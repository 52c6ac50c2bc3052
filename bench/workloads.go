package main

import (
	"math/rand"

	"repro/internal/core"
)

// A workloadDef names one workload, says why it exists and builds its op
// list from a seed. The library never sees the seed, only the matrices.
type workloadDef struct {
	name string
	why  string
	mt   bool // run with min(nproc, 4) library threads instead of 1
	ops  func(rng *rand.Rand, scale float64, threads int) []*op
}

type workload struct {
	name    string
	threads int
	ops     []*op
}

func (d workloadDef) build(seed int64, scale float64, threads int) *workload {
	rng := rand.New(rand.NewSource(seed))
	return &workload{name: d.name, threads: threads, ops: d.ops(rng, scale, threads)}
}

// dim scales a problem dimension for the smoke test.
func dim(n int, scale float64) int { return max(4, int(float64(n)*scale+0.5)) }

func denseF64(rng *rand.Rand, scale float64, threads int) []*op {
	n := []int{dim(1024, scale)}
	return []*op{
		newSolveOp[float64](rng, "GESV", gesv, false, false, n, 16, threads),
		newSolveOp[float64](rng, "POSV", posv, false, false, n, 16, threads),
		newSolveOp[float64](rng, "POSV/L", posv, true, false, n, 16, threads),
		newSolveOp[float64](rng, "SYSV", sysv, false, false, n, 16, threads),
	}
}

func typedSolves[T core.Scalar](rng *rand.Rand, n []int, threads int) []*op {
	return []*op{
		newSolveOp[T](rng, "GESV", gesv, false, false, n, 16, threads),
		newSolveOp[T](rng, "POSV", posv, false, false, n, 16, threads),
		newSolveOp[T](rng, "SYSV", sysv, false, false, n, 16, threads),
	}
}

// smallSizes are the orders small_batch draws from; all are at or below the
// pack-free crossover, so the packed GEMM engine is never reached.
var smallSizes = []int{4, 8, 16, 32, 48, 64}

var workloadDefs = []workloadDef{
	{
		name: "dense_f64",
		why:  "n=1024 f64 GESV, POSV (both UPLO) and SYSV on one thread: packed GEMM/Trsm/Syrk do the work and la almost none; the plain single-thread baseline",
		ops:  denseF64,
	},
	{
		name: "dense_f64_mt",
		why:  "the dense_f64 op list with min(nproc,4) threads: the only workload where the fork-join engine and LU lookahead move pass_s_best",
		mt:   true,
		ops:  denseF64,
	},
	{
		name: "dense_types",
		why:  "GESV, POSV, SYSV at n=384 in f32, c64 and c128: the f32 asm set and the generic complex micro-kernel, which f64 workloads bypass",
		ops: func(rng *rand.Rand, scale float64, threads int) []*op {
			n := []int{dim(384, scale)}
			ops := typedSolves[float32](rng, n, threads)
			ops = append(ops, typedSolves[complex64](rng, n, threads)...)
			return append(ops, typedSolves[complex128](rng, n, threads)...)
		},
	},
	{
		name: "small_batch",
		why:  "1024 systems of order 4..64, looped GESV/POSV and BatchGesv/BatchPosv: la option parsing and allocation, the pack-free engine and smalllu; bypasses the packed engine",
		ops: func(rng *rand.Rand, scale float64, threads int) []*op {
			// A fixed histogram of orders in a seed-shuffled sequence: the
			// flop count of a pass does not depend on the seed.
			sizes := make([]int, dim(1024, scale))
			for i := range sizes {
				sizes[i] = smallSizes[i%len(smallSizes)]
			}
			rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
			return []*op{
				newSolveOp[float64](rng, "GESV.loop", gesv, false, false, sizes, 1, threads),
				newSolveOp[float64](rng, "POSV.loop", posv, false, false, sizes, 1, threads),
				newSolveOp[float64](rng, "BatchGesv", gesv, false, true, sizes, 1, threads),
				newSolveOp[float64](rng, "BatchPosv", posv, false, true, sizes, 1, threads),
			}
		},
	},
	{
		name: "eig_svd",
		why:  "SYEV and SYEVD n=384, GESVD n=256, GEEV n=192, all with vectors: half-Level-2 reductions and the iterations dominate, GEMM is a minority",
		ops: func(rng *rand.Rand, scale float64, threads int) []*op {
			return []*op{
				newSyevOp[float64](rng, false, dim(384, scale), threads),
				newSyevOp[float64](rng, true, dim(384, scale), threads),
				newGesvdOp[float64](rng, dim(256, scale), threads),
				newGeevOp(rng, dim(192, scale), threads),
			}
		},
	},
	{
		name: "ls_tall",
		why:  "GELS and GELSD on 4096x256 with 8 right-hand sides: panel-shaped Level-3 (k=NB GEMM, Larfb, Ormqr) and the QR-first SVD path; very non-square shapes",
		ops: func(rng *rand.Rand, scale float64, threads int) []*op {
			m, n := dim(4096, scale), dim(256, scale)
			return []*op{
				newLsOp[float64](rng, false, m, n, 8, threads),
				newLsOp[float64](rng, true, m, n, 8, threads),
			}
		},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}
