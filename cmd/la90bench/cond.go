// The -cond mode: price the condition machinery (PR 8). LA_GESVX runs the
// whole expert pipeline — factor, Higham–Hager RCOND estimate, iterative
// refinement, FERR/BERR bounds — so its cost over plain LA_GESV is exactly
// what a caller pays for guaranteed error bounds. The legs are measured
// paired on the same inputs (re-initialized untimed each repetition, since
// the drivers consume A and B) at n=256 and n=1024, and the report records
// the overhead ratio alongside the RCOND and FERR the expert leg delivered,
// so the JSON shows what the extra time buys. A third leg times LA_GESVX
// with equilibration enabled on a power-of-two row-graded copy of the same
// system — the workload the plain path cannot certify at all.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/la"
)

type condResult struct {
	Mode    string  `json:"mode"` // gesv | gesvx | gesvx-equil
	Dtype   string  `json:"dtype"`
	N       int     `json:"n"`
	Nrhs    int     `json:"nrhs"`
	Seconds float64 `json:"seconds"` // minimum over repetitions
	RCond   float64 `json:"rcond,omitempty"`
	Ferr    float64 `json:"ferr,omitempty"`
	Berr    float64 `json:"berr,omitempty"`
	Equed   string  `json:"equed,omitempty"`
}

type condReport struct {
	Go      string       `json:"go"`
	GOOS    string       `json:"goos"`
	GOARCH  string       `json:"goarch"`
	CPUs    int          `json:"cpus"`
	Threads int          `json:"threads"`
	Results []condResult `json:"results"`
	// Expert-over-plain time ratios (the price of the bounds).
	Overhead256  float64 `json:"gesvx_overhead_n256"`
	Overhead1024 float64 `json:"gesvx_overhead_n1024"`
}

// condSystem builds a well-conditioned random n×n float64 system: Larnv
// entries with the diagonal shifted by n, so the expert driver's refinement
// converges in a sweep or two and the legs price the machinery, not the matrix.
func condSystem(n, nrhs int) (a, b []float64) {
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

// condLegs measures the three legs at one size and appends their results.
func condLegs(rep *condReport, n, nrhs int) (overhead float64) {
	a, b := condSystem(n, nrhs)
	am := la.NewMatrix[float64](n, n)
	bm := la.NewMatrix[float64](n, nrhs)
	load := func() { copy(am.Data, a); copy(bm.Data, b) }

	// Plain solve.
	load()
	la.Must1(la.GESV(am, bm, benchLaOpts()...)) // warm-up
	var plainS float64
	for r := 0; r < *reps; r++ {
		if s := minTimeSetup(1, load, func() { la.Must1(la.GESV(am, bm, benchLaOpts()...)) }); r == 0 || s < plainS {
			plainS = s
		}
	}
	rep.Results = append(rep.Results,
		condResult{Mode: "gesv", Dtype: "float64", N: n, Nrhs: nrhs, Seconds: plainS})

	// Expert pipeline on the same system.
	load()
	res := la.Must1(la.GESVX(am, bm, benchLaOpts()...))
	var expertS float64
	for r := 0; r < *reps; r++ {
		if s := minTimeSetup(1, load, func() { la.Must1(la.GESVX(am, bm, benchLaOpts()...)) }); r == 0 || s < expertS {
			expertS = s
		}
	}
	rep.Results = append(rep.Results, condResult{
		Mode: "gesvx", Dtype: "float64", N: n, Nrhs: nrhs, Seconds: expertS,
		RCond: res.RCond, Ferr: res.Ferr[0], Berr: res.Berr[0]})

	// Expert pipeline with equilibration on a row-graded copy (rows scaled
	// by exact powers of two across 2^±40 — wide enough that equilibration
	// fires, well inside the range where the plain solve still works).
	ga := append([]float64(nil), a...)
	gb := append([]float64(nil), b...)
	for i := 0; i < n; i++ {
		d := math.Ldexp(1, -40+80*i/(n-1))
		for j := 0; j < n; j++ {
			ga[i+j*n] *= d
		}
		for j := 0; j < nrhs; j++ {
			gb[i+j*n] *= d
		}
	}
	loadG := func() { copy(am.Data, ga); copy(bm.Data, gb) }
	loadG()
	resG := la.Must1(la.GESVX(am, bm, append(benchLaOpts(), la.WithEquilibration())...))
	var equilS float64
	for r := 0; r < *reps; r++ {
		if s := minTimeSetup(1, loadG, func() { la.Must1(la.GESVX(am, bm, append(benchLaOpts(), la.WithEquilibration())...)) }); r == 0 || s < equilS {
			equilS = s
		}
	}
	rep.Results = append(rep.Results, condResult{
		Mode: "gesvx-equil", Dtype: "float64", N: n, Nrhs: nrhs, Seconds: equilS,
		RCond: resG.RCond, Ferr: resG.Ferr[0], Berr: resG.Berr[0], Equed: string(resG.Equed)})

	if plainS > 0 {
		return expertS / plainS
	}
	return 0
}

func runCond() {
	rep := condReport{
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Threads: blas.Threads(),
	}
	rep.Overhead256 = condLegs(&rep, min(256, *maxnFlag), 1)
	if n := min(1024, *maxnFlag); n > 256 {
		rep.Overhead1024 = condLegs(&rep, n, 1)
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		panic(err)
	}
	enc = append(enc, '\n')
	out := *outFlag
	if out == "" {
		out = "BENCH_cond.json"
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "la90bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%-12s %6s %6s %12s %10s %10s %10s %6s\n", "mode", "N", "nrhs", "seconds", "rcond", "ferr", "berr", "equed")
	for _, r := range rep.Results {
		fmt.Printf("%-12s %6d %6d %12.6f %10.3e %10.3e %10.3e %6s\n", r.Mode, r.N, r.Nrhs, r.Seconds, r.RCond, r.Ferr, r.Berr, r.Equed)
	}
	fmt.Printf("LA_GESVX over LA_GESV: %.2fx at N=256, %.2fx at N=1024 (written to %s)\n",
		rep.Overhead256, rep.Overhead1024, out)
}
