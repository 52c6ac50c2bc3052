// The -batch mode: benchmark the batched drivers and the pack-free
// small-matrix regime they ride on, writing BENCH_batch.json. Three legs
// per driver (gesv, posv) and size:
//
//   - gesv-looped-seed: a serial loop over la.GESV with the pack-free path
//     disabled per call (-config small=0), i.e. the dispatch the seed tree had —
//     the baseline the batched drivers are measured against;
//   - gesv-looped: the same loop with the small-matrix path enabled,
//     isolating how much of the win is the regime vs the batching;
//   - gesv-batched: la.BatchGesv over the whole batch;
//
// and the same three over la.POSV / la.BatchPosv on positive definite systems.
//
// A second table compares the pack-free GEMM against the packed engine's
// dispatch on single small products.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/la"
)

type batchResult struct {
	Kernel  string  `json:"kernel"`
	Dtype   string  `json:"dtype"`
	N       int     `json:"n"`
	Batch   int     `json:"batch,omitempty"`
	Seconds float64 `json:"seconds"` // minimum over repetitions
	PerSec  float64 `json:"solves_per_sec,omitempty"`
	GFLOPS  float64 `json:"gflops,omitempty"`
}

type batchReport struct {
	Go               string        `json:"go"`
	GOOS             string        `json:"goos"`
	GOARCH           string        `json:"goarch"`
	CPUs             int           `json:"cpus"`
	Threads          int           `json:"threads"`
	GemmSmallDim     int           `json:"gemm_small_dim"`
	Results          []batchResult `json:"results"`
	GesvSpeedup      float64       `json:"gesv_speedup_n32_b1024"` // batched vs looped-seed
	PosvSpeedup      float64       `json:"posv_speedup_n32_b1024"` // batched vs looped-seed
	SmallGemmSpeedup float64       `json:"gemm_small_speedup_n48"` // pack-free vs seed dispatch
}

// batchProblem holds one batch of pristine systems plus the working copies
// the timed legs overwrite.
type batchProblem struct {
	as, bs               []*la.Matrix[float64]
	pristineA, pristineB []*la.Matrix[float64]
}

// newBatchProblem generates batch diagonally dominant n×n systems: general
// ones, or with spd symmetric and hence positive definite.
func newBatchProblem(n, batch int, spd bool) *batchProblem {
	p := &batchProblem{
		as:        make([]*la.Matrix[float64], batch),
		bs:        make([]*la.Matrix[float64], batch),
		pristineA: make([]*la.Matrix[float64], batch),
		pristineB: make([]*la.Matrix[float64], batch),
	}
	rng := lapack.NewRng([4]int{n, 11, 17, 23})
	for i := range p.as {
		a := la.NewMatrix[float64](n, n)
		lapack.Larnv(2, rng, len(a.Data), a.Data)
		for d := 0; d < n; d++ {
			a.Set(d, d, a.At(d, d)+float64(n)) // diagonally dominant: never singular
			for r := d + 1; spd && r < n; r++ {
				a.Set(d, r, a.At(r, d))
			}
		}
		b := la.NewMatrix[float64](n, 1)
		lapack.Larnv(2, rng, len(b.Data), b.Data)
		p.as[i], p.bs[i] = a, b
		p.pristineA[i], p.pristineB[i] = a.Clone(), b.Clone()
	}
	return p
}

func (p *batchProblem) restore() {
	for i := range p.as {
		copy(p.as[i].Data, p.pristineA[i].Data)
		copy(p.bs[i].Data, p.pristineB[i].Data)
	}
}

func runBatch() {
	rep := batchReport{
		Go:           runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CPUs:         runtime.NumCPU(),
		Threads:      blas.Threads(),
		GemmSmallDim: benchCfg().GemmSmallDim,
	}

	drivers := []struct {
		name    string
		spd     bool
		one     func(a, b *la.Matrix[float64], opts ...la.Opt) error
		all     func(as, bs []*la.Matrix[float64], opts ...la.Opt) ([]error, error)
		speedup *float64
	}{
		{"gesv", false,
			func(a, b *la.Matrix[float64], opts ...la.Opt) error { _, err := la.GESV(a, b, opts...); return err },
			func(as, bs []*la.Matrix[float64], opts ...la.Opt) ([]error, error) {
				_, errs, err := la.BatchGesv(as, bs, opts...)
				return errs, err
			}, &rep.GesvSpeedup},
		{"posv", true, la.POSV[float64], la.BatchPosv[float64], &rep.PosvSpeedup},
	}
	batches := []int{64, 1024}
	for _, drv := range drivers {
		for _, n := range []int{4, 16, 32, 64, 128} {
			for _, batch := range batches {
				if batch > *maxbatch {
					continue
				}
				p := newBatchProblem(n, batch, drv.spd)
				loopWith := func(opts []la.Opt) func() {
					return func() {
						for i := range p.as {
							if err := drv.one(p.as[i], p.bs[i], opts...); err != nil {
								panic(err)
							}
						}
					}
				}
				batchedRun := func() {
					errs, err := drv.all(p.as, p.bs, benchLaOpts()...)
					if err != nil {
						panic(err)
					}
					for i, e := range errs {
						if e != nil {
							panic(fmt.Sprintf("item %d: %v", i, e))
						}
					}
				}

				// The three legs run round-robin within each repetition, so a
				// slow phase of the (noisy, virtualized) machine hits all legs
				// alike instead of skewing whichever leg it landed on; each
				// leg's reported time is still its own minimum over
				// repetitions.
				legs := []struct {
					kernel string
					run    func()
				}{
					// looped-seed is the dispatch the seed tree had: a serial
					// loop with the pack-free path disabled.
					{"-looped-seed", loopWith(append(append([]la.Opt(nil), benchLaOpts()...),
						la.WithConfig(la.Config{GemmSmallDim: -1})))},
					{"-looped", loopWith(benchLaOpts())},
					{"-batched", batchedRun},
				}
				best := make([]float64, len(legs))
				for r := 0; r < *reps; r++ {
					for i, l := range legs {
						p.restore()
						if r == 0 {
							l.run() // warm-up
							p.restore()
						}
						t0 := time.Now()
						l.run()
						d := time.Since(t0).Seconds()
						if r == 0 || d < best[i] {
							best[i] = d
						}
					}
				}
				for i, l := range legs {
					rep.Results = append(rep.Results, batchResult{
						Kernel: drv.name + l.kernel, Dtype: "float64", N: n, Batch: batch,
						Seconds: best[i], PerSec: float64(batch) / best[i],
					})
				}
				if n == 32 && batch == 1024 {
					*drv.speedup = best[0] / best[2]
				}
			}
		}
	}

	// Single small products: pack-free kernels vs the seed dispatch.
	var small48, seedGemm48 float64
	for _, n := range []int{16, 32, 48, 64} {
		rng := lapack.NewRng([4]int{n, 3, 5, 7})
		a := make([]float64, n*n)
		b := make([]float64, n*n)
		c := make([]float64, n*n)
		lapack.Larnv(2, rng, n*n, a)
		lapack.Larnv(2, rng, n*n, b)
		flops := 2 * float64(n) * float64(n) * float64(n)
		// One timed call is far below timer resolution; batch the calls and
		// divide.
		inner := 1 << 12
		cfg := benchCfg()
		run := func() {
			for r := 0; r < inner; r++ {
				blas.Gemm(cfg, blas.NoTrans, blas.NoTrans, n, n, n, 1.0, a, n, b, n, 0.0, c, n)
			}
		}
		run()
		s := minTime(*reps, run) / float64(inner)
		rep.Results = append(rep.Results, batchResult{
			Kernel: "gemm-small", Dtype: "float64", N: n, Seconds: s, GFLOPS: flops / s / 1e9,
		})
		if n == 48 {
			small48 = s
		}

		cfg = cfg.With(func(c *core.Config) { c.GemmSmallDim = 0 })
		run()
		s = minTime(*reps, run) / float64(inner)
		rep.Results = append(rep.Results, batchResult{
			Kernel: "gemm-seed", Dtype: "float64", N: n, Seconds: s, GFLOPS: flops / s / 1e9,
		})
		if n == 48 {
			seedGemm48 = s
		}
	}
	if small48 > 0 {
		rep.SmallGemmSpeedup = seedGemm48 / small48
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		panic(err)
	}
	enc = append(enc, '\n')
	out := *outFlag
	if out == "" {
		out = "BENCH_batch.json"
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "la90bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%-18s %6s %6s %12s %14s %10s\n", "kernel", "N", "batch", "seconds", "solves/s", "GFLOPS")
	for _, r := range rep.Results {
		fmt.Printf("%-18s %6d %6d %12.6f %14.0f %10.2f\n", r.Kernel, r.N, r.Batch, r.Seconds, r.PerSec, r.GFLOPS)
	}
	fmt.Printf("GESV n=32 batch=1024: batched vs looped-seed speedup: %.2fx\n", rep.GesvSpeedup)
	fmt.Printf("POSV n=32 batch=1024: batched vs looped-seed speedup: %.2fx\n", rep.PosvSpeedup)
	fmt.Printf("GEMM n=48 pack-free vs seed dispatch speedup: %.2fx (written to %s)\n", rep.SmallGemmSpeedup, out)
}
