// The -mixed mode: benchmark the mixed-precision LA_GESV path (factor in
// float32, refine to float64 — PR 7) against the plain float64 path and
// write machine-readable results (BENCH_mixed.json).
//
// The two legs are measured paired: every repetition times the plain solve
// and the mixed solve back to back on the same machine state, and the
// headline speedup is the ratio of the per-leg minima. Input matrices are
// re-initialized untimed before each repetition (LA_GESV consumes A), so
// the measured interval is the solve alone. Alongside the times, the mode
// records the normwise backward error ‖b−A·x‖∞/(‖A‖∞·‖x‖∞) of each leg's
// delivered solution — the point of the mixed path is that both legs sit in
// the same n·eps64 accuracy class — and the refinement sweep count.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/la"
)

type mixedResult struct {
	Mode    string  `json:"mode"`  // gesv-f64 | gesv-mixed
	Dtype   string  `json:"dtype"` // float64
	N       int     `json:"n"`
	Nrhs    int     `json:"nrhs"`
	Seconds float64 `json:"seconds"` // minimum over repetitions
	// Refinement sweeps the mixed path needed (mixed rows; < 0 is a
	// lapack.MixedFallback* reason code).
	Iter int `json:"iter,omitempty"`
	// Normwise backward error of the delivered solution.
	BackwardError float64 `json:"backward_error"`
}

type mixedReport struct {
	Go      string        `json:"go"`
	GOOS    string        `json:"goos"`
	GOARCH  string        `json:"goarch"`
	CPUs    int           `json:"cpus"`
	Threads int           `json:"threads"`
	Results []mixedResult `json:"results"`
	// Plain-over-mixed time ratio for the single large solve.
	Speedup float64 `json:"mixed_gesv_speedup_n1024"`
}

// mixedSystem builds a well-conditioned random n×n float64 system: Larnv
// entries with the diagonal shifted by n to keep the condition number in
// the range where refinement converges in a few sweeps (the intended
// workload for the mixed path; harder systems fall back, which -mixed is
// not trying to measure).
func mixedSystem(n, nrhs int) (a, b []float64) {
	rng := lapack.NewRng([4]int{n, 11, 13, 1})
	a = make([]float64, n*n)
	b = make([]float64, n*nrhs)
	lapack.Larnv(2, rng, n*n, a)
	lapack.Larnv(2, rng, n*nrhs, b)
	for i := 0; i < n; i++ {
		a[i+i*n] += float64(n)
	}
	return a, b
}

// backwardError returns max_j ‖b_j−A·x_j‖∞ / (‖A‖∞·‖x_j‖∞) for the n×nrhs
// solution x of the system (a, b).
func backwardError(n, nrhs int, a, b, x []float64) float64 {
	r := append([]float64(nil), b...)
	blas.Gemm(benchCfg(), blas.NoTrans, blas.NoTrans, n, nrhs, n, -1.0, a, n, x, n, 1.0, r, n)
	anrm := lapack.Lange(lapack.InfNorm, n, n, a, n)
	worst := 0.0
	for j := 0; j < nrhs; j++ {
		rn := lapack.Lange(lapack.MaxAbs, n, 1, r[j*n:j*n+n], n)
		xn := lapack.Lange(lapack.MaxAbs, n, 1, x[j*n:j*n+n], n)
		if be := rn / (anrm * xn); be > worst {
			worst = be
		}
	}
	return worst
}

func runMixed() {
	rep := mixedReport{
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Threads: blas.Threads(),
	}

	// Single large solve, paired legs.
	n := min(1024, *maxnFlag)
	nrhs := 1
	a, b := mixedSystem(n, nrhs)
	am := la.NewMatrix[float64](n, n)
	bm := la.NewMatrix[float64](n, nrhs)
	load := func() { copy(am.Data, a); copy(bm.Data, b) }
	solvePlain := func() { la.Must1(la.GESV(am, bm, benchLaOpts()...)) }
	solveMixed := func() { la.Must1(la.GESV(am, bm, append(benchLaOpts(), la.WithMixed())...)) }

	load()
	solvePlain() // warm-up both engines
	plainBE := backwardError(n, nrhs, a, b, bm.Data)
	load()
	solveMixed()
	mixedBE := backwardError(n, nrhs, a, b, bm.Data)
	// Untimed probe for the refinement sweep count of the mixed path.
	ac := append([]float64(nil), a...)
	xp := make([]float64, n*nrhs)
	iter, _ := lapack.GesvMixed(benchCfg(), n, nrhs, ac, n, make([]int, n), b, n, xp, n)

	var plainS, mixedS float64
	for r := 0; r < *reps; r++ {
		if s := minTimeSetup(1, load, solvePlain); r == 0 || s < plainS {
			plainS = s
		}
		if s := minTimeSetup(1, load, solveMixed); r == 0 || s < mixedS {
			mixedS = s
		}
	}
	rep.Results = append(rep.Results,
		mixedResult{Mode: "gesv-f64", Dtype: "float64", N: n, Nrhs: nrhs, Seconds: plainS, BackwardError: plainBE},
		mixedResult{Mode: "gesv-mixed", Dtype: "float64", N: n, Nrhs: nrhs, Seconds: mixedS, Iter: iter, BackwardError: mixedBE})
	if mixedS > 0 && n == 1024 {
		rep.Speedup = plainS / mixedS
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		panic(err)
	}
	enc = append(enc, '\n')
	out := *outFlag
	if out == "" {
		out = "BENCH_mixed.json"
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "la90bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%-12s %6s %6s %12s %12s %6s\n", "mode", "N", "nrhs", "seconds", "berr", "iter")
	for _, r := range rep.Results {
		fmt.Printf("%-12s %6d %6d %12.6f %12.3e %6d\n", r.Mode, r.N, r.Nrhs, r.Seconds, r.BackwardError, r.Iter)
	}
	fmt.Printf("LA_GESV N=%d mixed vs f64 speedup: %.2fx (written to %s)\n", n, rep.Speedup, out)
}
