// The -svd mode: price the divide-and-conquer SVD (PR 9). Each leg runs the
// same input through the D&C drive (Bdsdc singular vectors applied with one
// GEMM per side) and through the classic QR-iteration routine
// (lapack.Gesvd, what f77.GESVD runs), so the speedup column is measured in
// the same process on the same matrix. Both legs are held to the same
// quality bar — orthogonality of U and Vᴴ and the
// reconstruction residual ‖A − U·Σ·Vᴴ‖, in units of machine epsilon — and
// the run aborts if either path misses it, so the speedups can never be
// bought with accuracy. The square legs (n=1024, float64 and complex128)
// exercise the Gebrd→Bdsdc→GEMM core; the tall-skinny leg (4096×256)
// exercises the blocked QR-first path both drives share.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/la"
)

type svdResult struct {
	Mode    string  `json:"mode"` // dc | qr
	Dtype   string  `json:"dtype"`
	M       int     `json:"m"`
	N       int     `json:"n"`
	Seconds float64 `json:"seconds"` // minimum over repetitions
	OrthoU  float64 `json:"ortho_u"` // ‖UᴴU−I‖₁ / (k·eps)
	OrthoVT float64 `json:"ortho_vt"`
	Resid   float64 `json:"resid"` // ‖A−UΣVᴴ‖₁ / (‖A‖₁·max(m,n)·eps)
}

type svdReport struct {
	Go      string      `json:"go"`
	GOOS    string      `json:"goos"`
	GOARCH  string      `json:"goarch"`
	CPUs    int         `json:"cpus"`
	Threads int         `json:"threads"`
	Results []svdResult `json:"results"`
	// QR-iteration time over D&C time on the same matrix (higher is better
	// for D&C). The tall headline compares against the full-width classic
	// drive (mode "qr-full"): at 16:1 both modern drivers share the blocked
	// QR-first preprocessing, so the pre-crossover bidiagonalize-everything
	// path is the baseline the D&C stack actually replaced there.
	SpeedupSquareF64  float64 `json:"dc_speedup_square_f64"`
	SpeedupSquareC128 float64 `json:"dc_speedup_square_c128"`
	SpeedupTallF64    float64 `json:"dc_speedup_tall_f64"`
}

// svdTol is the shared quality bar, in the normalized units of svdResult:
// both factor orthogonality and the reconstruction residual must sit within
// a small multiple of machine epsilon for BOTH legs or the bench fails.
const svdTol = 100.0

// svdQuality measures one computed decomposition against the original
// matrix. All three numbers are normalized so a backward-stable result is
// O(1) and svdTol is generous.
func svdQuality[T la.Scalar](a0 *la.Matrix[T], res *la.SVDResult[T]) (orthoU, orthoVT, resid float64) {
	m, n := a0.Rows, a0.Cols
	k := len(res.S)
	eps := core.Eps[T]()
	one := core.FromFloat[T](1)
	zero := core.FromFloat[T](0)

	gram := func(rows int, x []T, ldx int, rowVectors bool) float64 {
		g := make([]T, k*k)
		if rowVectors {
			blas.Gemm(benchCfg(), blas.NoTrans, blas.ConjTrans, k, k, rows, one, x, ldx, x, ldx, zero, g, k)
		} else {
			blas.Gemm(benchCfg(), blas.ConjTrans, blas.NoTrans, k, k, rows, one, x, ldx, x, ldx, zero, g, k)
		}
		for i := 0; i < k; i++ {
			g[i+i*k] -= one
		}
		return lapack.Lange(lapack.OneNorm, k, k, g, k) / (float64(k) * eps)
	}
	orthoU = gram(m, res.U.Data, res.U.Stride, false)
	orthoVT = gram(n, res.VT.Data, res.VT.Stride, true)

	// Reconstruction: scale the columns of U by Σ and multiply by Vᴴ.
	us := make([]T, m*k)
	lapack.Lacpy('A', m, k, res.U.Data, res.U.Stride, us, m)
	for j := 0; j < k; j++ {
		sj := core.FromFloat[T](res.S[j])
		for i := 0; i < m; i++ {
			us[i+j*m] *= sj
		}
	}
	c := make([]T, m*n)
	blas.Gemm(benchCfg(), blas.NoTrans, blas.NoTrans, m, n, k, one, us, m, res.VT.Data, res.VT.Stride, zero, c, m)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			c[i+j*m] -= a0.Data[i+j*a0.Stride]
		}
	}
	anrm := lapack.Lange(lapack.OneNorm, m, n, a0.Data, a0.Stride)
	resid = lapack.Lange(lapack.OneNorm, m, n, c, m) / (anrm * float64(max(m, n)) * eps)
	return orthoU, orthoVT, resid
}

// svdInput builds the deterministic random m×n input shared by all legs at
// one shape.
func svdInput[T la.Scalar](m, n int) *la.Matrix[T] {
	a0 := la.NewMatrix[T](m, n)
	rng := lapack.NewRng([4]int{m, n, 1990, 9})
	lapack.Larnv(2, rng, len(a0.Data), a0.Data)
	return a0
}

// svdCheck scores one computed decomposition, records it, and aborts the
// bench if it misses the shared quality bar.
func svdCheck[T la.Scalar](rep *svdReport, mode, dtype string, a0 *la.Matrix[T], secs float64, res *la.SVDResult[T]) {
	ou, ov, rs := svdQuality(a0, res)
	rep.Results = append(rep.Results, svdResult{
		Mode: mode, Dtype: dtype, M: a0.Rows, N: a0.Cols, Seconds: secs,
		OrthoU: ou, OrthoVT: ov, Resid: rs})
	if ou > svdTol || ov > svdTol || rs > svdTol {
		fmt.Fprintf(os.Stderr,
			"la90bench -svd: %s %s %dx%d failed the quality bar: ortho_u=%.1f ortho_vt=%.1f resid=%.1f (tol %.0f)\n",
			mode, dtype, a0.Rows, a0.Cols, ou, ov, rs, svdTol)
		os.Exit(1)
	}
}

// svdLegs times the D&C and QR-iteration drives on one random m×n matrix
// and returns both times. Both legs must pass the shared quality bar.
func svdLegs[T la.Scalar](rep *svdReport, dtype string, m, n int) (dcS, qrS float64) {
	a0 := svdInput[T](m, n)

	work := la.NewMatrix[T](m, n)
	load := func() { copy(work.Data, a0.Data) }

	time := func(run func() *la.SVDResult[T]) (float64, *la.SVDResult[T]) {
		load()
		res := run() // warm-up; result reused for checks
		best := 0.0
		for r := 0; r < *reps; r++ {
			if s := minTimeSetup(1, load, func() { res = run() }); r == 0 || s < best {
				best = s
			}
		}
		return best, res
	}

	dcS, dcRes := time(func() *la.SVDResult[T] { return la.Must1(la.GESVD(work, benchLaOpts()...)) })
	svdCheck(rep, "dc", dtype, a0, dcS, dcRes)
	// The QR-iteration leg is the computational routine under f77.GESVD,
	// with the economy factors la.GESVD forms by default.
	k := min(m, n)
	qrS, qrRes := time(func() *la.SVDResult[T] {
		res := &la.SVDResult[T]{S: make([]float64, k), U: la.NewMatrix[T](m, k), VT: la.NewMatrix[T](k, n)}
		if info := lapack.Gesvd(benchCfg(), lapack.SVDSome, lapack.SVDSome, m, n, work.Data, work.Stride,
			res.S, res.U.Data, res.U.Stride, res.VT.Data, res.VT.Stride); info != 0 {
			fmt.Fprintf(os.Stderr, "la90bench -svd: qr Gesvd info=%d\n", info)
			os.Exit(1)
		}
		return res
	})
	svdCheck(rep, "qr", dtype, a0, qrS, qrRes)
	return dcS, qrS
}

// svdFullClassic times the pre-crossover classic drive — bidiagonalize the
// whole m×n matrix with Gebrd, form the Orgbr bases, and let Bdsqr rotate
// them — assembled from the computational routines exactly as the tall
// branch of Gesvd runs it below the 5n/3 crossover. This is what every
// tall shape paid before the QR-first path existed, and it is the baseline
// the tall-skinny headline speedup is quoted against.
func svdFullClassic[T la.Scalar](rep *svdReport, dtype string, m, n int) float64 {
	a0 := svdInput[T](m, n)
	res := &la.SVDResult[T]{
		S:  make([]float64, n),
		U:  la.NewMatrix[T](m, n),
		VT: la.NewMatrix[T](n, n),
	}
	w := la.NewMatrix[T](m, n)
	d := make([]float64, n)
	e := make([]float64, n-1)
	tauq := make([]T, n)
	taup := make([]T, n)
	load := func() { copy(w.Data, a0.Data) }
	body := func() {
		lapack.Gebrd(benchCfg(), m, n, w.Data, w.Stride, d, e, tauq, taup)
		lapack.Lacpy('L', m, n, w.Data, w.Stride, res.U.Data, res.U.Stride)
		lapack.Orgbr(benchCfg(), 'Q', m, n, n, res.U.Data, res.U.Stride, tauq)
		lapack.Lacpy('U', n, n, w.Data, w.Stride, res.VT.Data, res.VT.Stride)
		lapack.Orgbr(benchCfg(), 'P', n, n, n, res.VT.Data, res.VT.Stride, taup)
		if info := lapack.Bdsqr(benchCfg(), n, d, e, res.VT.Data, res.VT.Stride, n, res.U.Data, res.U.Stride, m); info != 0 {
			fmt.Fprintf(os.Stderr, "la90bench -svd: qr-full Bdsqr info=%d\n", info)
			os.Exit(1)
		}
		copy(res.S, d)
	}
	load()
	body() // warm-up
	best := 0.0
	for r := 0; r < *reps; r++ {
		if s := minTimeSetup(1, load, body); r == 0 || s < best {
			best = s
		}
	}
	svdCheck(rep, "qr-full", dtype, a0, best, res)
	return best
}

func runSvd() {
	rep := svdReport{
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Threads: blas.Threads(),
	}

	// Square, full economy vectors: the Gebrd→Bdsdc→GEMM core vs Bdsqr's
	// rotation streams.
	nsq := min(1024, *maxnFlag)
	dc, qr := svdLegs[float64](&rep, "float64", nsq, nsq)
	if dc > 0 {
		rep.SpeedupSquareF64 = qr / dc
	}
	dc, qr = svdLegs[complex128](&rep, "complex128", nsq, nsq)
	if dc > 0 {
		rep.SpeedupSquareC128 = qr / dc
	}

	// Tall-skinny 16:1: the D&C QR-first path (Geqrf + n×n SVD + one GEMM)
	// against both the QR-first classic drive (mode "qr") and the
	// full-width bidiagonalization it replaced (mode "qr-full", the
	// headline baseline). Smoke runs scale the leg down with -maxn.
	mt := min(4096, 4**maxnFlag)
	dc, _ = svdLegs[float64](&rep, "float64", mt, mt/16)
	full := svdFullClassic[float64](&rep, "float64", mt, mt/16)
	if dc > 0 {
		rep.SpeedupTallF64 = full / dc
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		panic(err)
	}
	enc = append(enc, '\n')
	out := *outFlag
	if out == "" {
		out = "BENCH_svd.json"
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "la90bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%-7s %-10s %6s %6s %12s %9s %9s %9s\n", "mode", "dtype", "M", "N", "seconds", "ortho_u", "ortho_vt", "resid")
	for _, r := range rep.Results {
		fmt.Printf("%-7s %-10s %6d %6d %12.6f %9.2f %9.2f %9.2f\n",
			r.Mode, r.Dtype, r.M, r.N, r.Seconds, r.OrthoU, r.OrthoVT, r.Resid)
	}
	fmt.Printf("D&C speedup over QR iteration: %.2fx square f64, %.2fx square c128, %.2fx tall f64 (written to %s)\n",
		rep.SpeedupSquareF64, rep.SpeedupSquareC128, rep.SpeedupTallF64, out)
}
