// The -lapack mode: benchmark the blocked one-sided factorizations (LU,
// Cholesky, QR, Bunch–Kaufman) that PR 2 rewired onto the packed Level-3
// engine, and write machine-readable results (BENCH_lapack.json). Each size
// also times a same-run gemm-packed reference so the headline numbers —
// "what fraction of GEMM speed does the factorization reach" — are ratios
// of measurements taken on the same machine state, not against a stale
// BENCH_blas.json.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
)

type lapackResult struct {
	Routine string  `json:"routine"` // gemm-packed | getrf | potrf | geqrf | sytrf
	Dtype   string  `json:"dtype"`   // float64 | complex128
	N       int     `json:"n"`
	Seconds float64 `json:"seconds"` // minimum over repetitions
	GFLOPS  float64 `json:"gflops"`
}

type lapackReport struct {
	Go      string         `json:"go"`
	GOOS    string         `json:"goos"`
	GOARCH  string         `json:"goarch"`
	CPUs    int            `json:"cpus"`
	Threads int            `json:"threads"` // blas worker budget during the run
	Results []lapackResult `json:"results"`
	// Factorization GFLOPS over same-run gemm-packed GFLOPS, float64, n=1024.
	GetrfVsGemm float64 `json:"getrf_vs_gemm_n1024"`
	PotrfVsGemm float64 `json:"potrf_vs_gemm_n1024"`
	GeqrfVsGemm float64 `json:"geqrf_vs_gemm_n1024"`
	SytrfVsGemm float64 `json:"sytrf_vs_gemm_n1024"`
	// Single-precision LU rate over double, n=1024 (same flop count, so this
	// is the factorization-time ratio between the two real types).
	GetrfF32VsF64 float64 `json:"getrf_f32_vs_f64_n1024"`
}

// benchFactorizations appends one gemm-packed reference row and one row per
// factorization for every size, returning the n=1024 GFLOPS per routine.
func benchFactorizations[T core.Scalar](rep *lapackReport, dtype string, sizes []int) map[string]float64 {
	at1024 := map[string]float64{}
	// LAPACK flop-count convention: a complex flop is four real flops.
	cmul := 1.0
	if core.IsComplex[T]() {
		cmul = 4
	}
	one := core.FromFloat[T](1)
	zero := core.FromFloat[T](0)
	record := func(routine string, n int, flops, seconds float64) {
		gf := flops / seconds / 1e9
		rep.Results = append(rep.Results, lapackResult{routine, dtype, n, seconds, gf})
		if n == 1024 {
			at1024[routine] = gf
		}
	}
	for _, n := range sizes {
		nf := float64(n)
		rng := lapack.NewRng([4]int{n, 11, 13, 1})
		a := make([]T, n*n)
		lapack.Larnv(2, rng, n*n, a)
		w := make([]T, n*n)

		// Same-run GEMM reference.
		bm := make([]T, n*n)
		lapack.Larnv(2, rng, n*n, bm)
		c := make([]T, n*n)
		gemm := func() {
			blas.Gemm(benchCfg(), blas.NoTrans, blas.NoTrans, n, n, n, one, a, n, bm, n, zero, c, n)
		}
		gemm() // warm-up
		record("gemm-packed", n, cmul*2*nf*nf*nf, minTime(*reps, gemm))

		// LU with partial pivoting.
		ipiv := make([]int, n)
		copy(w, a)
		lapack.Getrf(benchCfg(), n, n, w, n, ipiv) // warm-up
		record("getrf", n, cmul*2.0/3.0*nf*nf*nf, minTimeSetup(*reps,
			func() { copy(w, a) },
			func() { lapack.Getrf(benchCfg(), n, n, w, n, ipiv) }))

		// Cholesky on A·Aᴴ + n·I (Hermitian positive definite).
		hpd := make([]T, n*n)
		blas.Gemm(benchCfg(), blas.NoTrans, blas.ConjTrans, n, n, n, one, a, n, a, n, zero, hpd, n)
		for i := 0; i < n; i++ {
			hpd[i+i*n] = core.FromFloat[T](core.Re(hpd[i+i*n]) + nf)
		}
		copy(w, hpd)
		lapack.Potrf(benchCfg(), lapack.Lower, n, w, n) // warm-up
		record("potrf", n, cmul*1.0/3.0*nf*nf*nf, minTimeSetup(*reps,
			func() { copy(w, hpd) },
			func() {
				if info := lapack.Potrf(benchCfg(), lapack.Lower, n, w, n); info != 0 {
					fmt.Fprintf(os.Stderr, "la90bench: potrf n=%d info=%d\n", n, info)
					os.Exit(1)
				}
			}))

		// Householder QR.
		tau := make([]T, n)
		copy(w, a)
		lapack.Geqrf(benchCfg(), n, n, w, n, tau) // warm-up
		record("geqrf", n, cmul*4.0/3.0*nf*nf*nf, minTimeSetup(*reps,
			func() { copy(w, a) },
			func() { lapack.Geqrf(benchCfg(), n, n, w, n, tau) }))

		// Bunch–Kaufman on the symmetrized matrix (complex symmetric, not
		// Hermitian, for complex element types — matching Sytrf semantics).
		sym := make([]T, n*n)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				sym[i+j*n] = a[i+j*n] + a[j+i*n]
			}
		}
		copy(w, sym)
		lapack.Sytrf(benchCfg(), lapack.Lower, n, w, n, ipiv) // warm-up
		record("sytrf", n, cmul*1.0/3.0*nf*nf*nf, minTimeSetup(*reps,
			func() { copy(w, sym) },
			func() { lapack.Sytrf(benchCfg(), lapack.Lower, n, w, n, ipiv) }))
	}
	return at1024
}

func runLapack() {
	rep := lapackReport{
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Threads: blas.Threads(),
	}
	sizes := []int{64, 256, 512, 1024}
	f64 := benchFactorizations[float64](&rep, "float64", sizes)
	f32 := benchFactorizations[float32](&rep, "float32", sizes)
	benchFactorizations[complex128](&rep, "complex128", sizes)
	benchFactorizations[complex64](&rep, "complex64", sizes)
	if g := f64["gemm-packed"]; g > 0 {
		rep.GetrfVsGemm = f64["getrf"] / g
		rep.PotrfVsGemm = f64["potrf"] / g
		rep.GeqrfVsGemm = f64["geqrf"] / g
		rep.SytrfVsGemm = f64["sytrf"] / g
	}
	if g := f64["getrf"]; g > 0 {
		rep.GetrfF32VsF64 = f32["getrf"] / g
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		panic(err)
	}
	enc = append(enc, '\n')
	out := *outFlag
	if out == "" {
		out = "BENCH_lapack.json"
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "la90bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%-12s %-10s %6s %12s %10s\n", "routine", "dtype", "N", "seconds", "GFLOPS")
	for _, r := range rep.Results {
		fmt.Printf("%-12s %-10s %6d %12.6f %10.2f\n", r.Routine, r.Dtype, r.N, r.Seconds, r.GFLOPS)
	}
	fmt.Printf("float64 N=1024, fraction of same-run gemm-packed: getrf %.2f  potrf %.2f  geqrf %.2f  sytrf %.2f (written to %s)\n",
		rep.GetrfVsGemm, rep.PotrfVsGemm, rep.GeqrfVsGemm, rep.SytrfVsGemm, out)
	fmt.Printf("getrf N=1024, float32 vs float64 rate: %.2fx\n", rep.GetrfF32VsF64)
}
