package lapack

// Mixed-precision iterative-refinement solvers (the DSGESV/DSPOSV family,
// generalized over the repo's type pairs float64↔float32 and
// complex128↔complex64).
//
// The factorization — the O(n³) term — runs in the lower precision, riding
// the f32 GEMM kernels at roughly twice the f64 flop rate with half the
// memory traffic. Full precision is then recovered by iterative refinement
// in float64: each sweep computes the residual r = b − A·x with a float64
// GEMM (O(n²·nrhs)), solves A·d = r through the low-precision factors, and
// updates x += d. The iteration is declared converged when every right-hand
// side satisfies the backward-error criterion
//
//	‖r‖∞ ≤ ‖x‖∞ · ‖A‖∞ · n · eps64
//
// i.e. the computed x is the exact solution of a system perturbed by no
// more than n·eps64 in a normwise relative sense — the same accuracy class
// a full float64 factorization delivers.
//
// Fallback policy: the mixed path must never be less robust than the plain
// float64 driver, so the engine silently re-solves with the full float64
// factorization whenever the low-precision route cannot deliver —
//
//   - the demoted matrix or right-hand side is non-finite (a value beyond
//     float32 range demotes to ±Inf),
//   - the float32 factorization reports singularity (or a non-positive-
//     definite leading minor for PosvMixed) — condition beyond what f32
//     resolves,
//   - the Higham–Hager condition estimate off the float32 factors (Gecon/
//     Pocon, a few O(n²) solves) lands below the single-precision rcond
//     floor — refinement would stall, so fall back before iterating,
//   - a non-finite value appears in a residual or demoted correction
//     (consistent exception handling: NaN/Inf aborts the loop immediately
//     rather than iterating to the bound),
//   - the iteration hits its ITERMAX bound without converging (stall).
//
// The fallback performs exactly the operations of the plain driver on the
// same bits, so its results are bit-identical to Gesv/Posv. The iter return
// reports which path ran: ≥ 0 is the number of refinement sweeps the mixed
// path needed, < 0 is one of the MixedFallback* reason codes.

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
)

// Mixed fallback reason codes, returned as the iter result of
// GesvMixed/PosvMixed when the low-precision route was abandoned and the
// answer was computed by the full float64 factorization instead.
const (
	// MixedFallbackSingular: the low-precision factorization failed
	// (singular U(i,i) for LU, non-PD leading minor for Cholesky).
	MixedFallbackSingular = -1
	// MixedFallbackNonFinite: a NaN or ±Inf appeared in the demoted
	// operands, a residual, or a demoted correction.
	MixedFallbackNonFinite = -2
	// MixedFallbackStalled: refinement did not converge within
	// Config.MixedIterMax sweeps.
	MixedFallbackStalled = -3
	// MixedFallbackIllConditioned: the condition estimate of the
	// low-precision factors says refinement cannot converge (rcond below
	// the single-precision floor), so the engine fell back immediately
	// instead of burning MixedIterMax sweeps to discover the stall.
	MixedFallbackIllConditioned = -4
)

// mixedRcondFloorMul sets the rcond floor of the pre-refinement condition
// screen in multiples of the low precision's machine epsilon. Refinement
// through the low-precision factors contracts the error by roughly
// cond(A)·eps_low per sweep, so convergence to full precision within the
// sweep bound needs cond(A)·eps_low comfortably below 1; rcond estimates
// under 4·eps_low (cond above ~2·10⁶ in float32) are the stall region, and
// the Higham–Hager estimate is reliable to a small constant factor.
const mixedRcondFloorMul = 4

// MixedScalar constrains the element types that have a lower-precision
// partner to factor in: float64↔float32 and complex128↔complex64. The
// float32/complex64 families already are the low precision — a mixed solve
// has nothing to demote to, so the la layer routes them to the plain path.
type MixedScalar interface {
	float64 | complex128
}

// GesvMixed solves A·X = B for a general n×n float64 (complex128) matrix by
// factoring a float32 (complex64) demotion of A and refining in full
// precision — the xSGESV driver. Unlike Gesv, a and b are inputs: a is
// unchanged when the mixed path converges (iter ≥ 0) and holds the float64
// L·U factors after a fallback (iter < 0, exactly as Gesv would leave it);
// b is always preserved. The solution is written to x (n×nrhs, leading
// dimension ldx ≥ n). ipiv receives the pivots of whichever factorization
// produced x. info follows Gesv: 0 on success, i > 0 when the float64
// fallback also found U(i,i) exactly zero.
func GesvMixed[T MixedScalar](cfg *core.Config, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int, x []T, ldx int) (iter, info int) {
	var z T
	switch any(z).(type) {
	case float64:
		return gesvMixedEngine[float64, float32](cfg, n, nrhs,
			any(a).([]float64), lda, ipiv, any(b).([]float64), ldb, any(x).([]float64), ldx)
	default:
		return gesvMixedEngine[complex128, complex64](cfg, n, nrhs,
			any(a).([]complex128), lda, ipiv, any(b).([]complex128), ldb, any(x).([]complex128), ldx)
	}
}

// PosvMixed is GesvMixed for symmetric/Hermitian positive definite systems
// (the xSPOSV driver): Cholesky in float32/complex64, refinement in full
// precision, fallback to the float64 Potrf. Only the uplo triangle of a is
// referenced; it is unchanged on the mixed path and holds the float64
// Cholesky factor after a fallback. info > 0 means the float64 fallback
// also found the leading minor of that order not positive definite.
func PosvMixed[T MixedScalar](cfg *core.Config, uplo Uplo, n, nrhs int, a []T, lda int, b []T, ldb int, x []T, ldx int) (iter, info int) {
	var z T
	switch any(z).(type) {
	case float64:
		return posvMixedEngine[float64, float32](cfg, uplo, n, nrhs,
			any(a).([]float64), lda, any(b).([]float64), ldb, any(x).([]float64), ldx)
	default:
		return posvMixedEngine[complex128, complex64](cfg, uplo, n, nrhs,
			any(a).([]complex128), lda, any(b).([]complex128), ldb, any(x).([]complex128), ldx)
	}
}

// demoteMat dispatches the m×n strided demotion H→L to the concrete
// conversion kernel for the type pair (one switch per call, contiguous
// unrolled inner loops).
func demoteMat[H, L core.Scalar](m, n int, src []H, lds int, dst []L, ldd int) {
	switch s := any(src).(type) {
	case []float64:
		blas.DemoteF64(m, n, s, lds, any(dst).([]float32), ldd)
	case []complex128:
		blas.DemoteC128(m, n, s, lds, any(dst).([]complex64), ldd)
	}
}

// promoteMat dispatches the m×n strided promotion L→H.
func promoteMat[L, H core.Scalar](m, n int, src []L, lds int, dst []H, ldd int) {
	switch s := any(src).(type) {
	case []float32:
		blas.PromoteF32(m, n, s, lds, any(dst).([]float64), ldd)
	case []complex64:
		blas.PromoteC64(m, n, s, lds, any(dst).([]complex128), ldd)
	}
}

// axpyPromote dispatches the fused y += promote(x) correction update.
func axpyPromote[L, H core.Scalar](n int, x []L, y []H) {
	switch xs := any(x).(type) {
	case []float32:
		blas.AxpyPromoteF32(n, xs, any(y).([]float64))
	case []complex64:
		blas.AxpyPromoteC64(n, xs, any(y).([]complex128))
	}
}

// colMaxAbs returns max_i |x_i| over a contiguous column in the |re|+|im|
// measure (the pivot metric, cheap for complex types); the convergence test
// only compares it against the same measure of the residual.
func colMaxAbs[T core.Scalar](x []T) float64 {
	v := 0.0
	for _, e := range x {
		if a := core.Abs1(e); a > v {
			v = a
		}
	}
	return v
}

// gesvMixedEngine is the shared H↔L implementation behind GesvMixed.
func gesvMixedEngine[H, L core.Scalar](cfg *core.Config, n, nrhs int, a []H, lda int, ipiv []int, b []H, ldb int, x []H, ldx int) (iter, info int) {
	if n == 0 {
		return 0, 0
	}
	// Demote and factor. The demoted buffer is screened before the
	// factorization: an element beyond narrow range became ±Inf, and
	// factoring it would only manufacture the non-finite residual the loop
	// below falls back on anyway. The real-type pair fuses the norm, the
	// demotion, and the screen into one pass over a; the complex pair keeps
	// the three separate sweeps.
	sa := blas.GetScratch[L](n * n)
	defer blas.PutScratch(sa)
	var anrm float64
	if ah, isF64 := any(a).([]float64); isF64 {
		saf := any(sa).([]float32)
		if !blas.DemoteScreenF64(n, n, ah, lda, saf, n) {
			return gesvMixedFallback(cfg, MixedFallbackNonFinite, n, nrhs, a, lda, ipiv, b, ldb, x, ldx)
		}
		// The ∞-norm comes off the demoted copy while it is cache-resident:
		// demotion rounds each element exactly, so the two norms agree to
		// one part in 2²⁴ — far inside the slack of an order-of-magnitude
		// convergence threshold — and the screen above has already ruled
		// out non-finite values.
		anrm = Lange(InfNorm, n, n, saf, n)
		if math.IsInf(anrm, 0) {
			return gesvMixedFallback(cfg, MixedFallbackNonFinite, n, nrhs, a, lda, ipiv, b, ldb, x, ldx)
		}
	} else {
		anrm = Lange(InfNorm, n, n, a, lda)
		if math.IsNaN(anrm) || math.IsInf(anrm, 0) {
			return gesvMixedFallback(cfg, MixedFallbackNonFinite, n, nrhs, a, lda, ipiv, b, ldb, x, ldx)
		}
		demoteMat(n, n, a, lda, sa, n)
		if !core.AllFinite(sa) {
			return gesvMixedFallback(cfg, MixedFallbackNonFinite, n, nrhs, a, lda, ipiv, b, ldb, x, ldx)
		}
	}
	if Getrf(cfg, n, n, sa, n, ipiv) != 0 {
		return gesvMixedFallback(cfg, MixedFallbackSingular, n, nrhs, a, lda, ipiv, b, ldb, x, ldx)
	}
	// Condition screen: estimate rcond off the factors just computed (a
	// handful of O(n²) triangular solves) and fall back now when the
	// estimate says the refinement loop below cannot contract the error to
	// full precision within its sweep bound.
	if rc := Gecon[L](cfg, InfNorm, n, sa, n, ipiv, anrm); rc < mixedRcondFloorMul*core.Eps[L]() {
		return gesvMixedFallback(cfg, MixedFallbackIllConditioned, n, nrhs, a, lda, ipiv, b, ldb, x, ldx)
	}
	solve := func(r []L) { Getrs(cfg, NoTrans, n, nrhs, sa, n, ipiv, r, n) }
	residual := func(r []H) {
		blas.Gemm(cfg, NoTrans, NoTrans, n, nrhs, n, core.FromFloat[H](-1), a, lda, x, ldx, core.FromFloat[H](1), r, n)
	}
	iter = mixedRefine(cfg, n, nrhs, anrm, b, ldb, x, ldx, solve, residual)
	if iter < 0 {
		return gesvMixedFallback(cfg, iter, n, nrhs, a, lda, ipiv, b, ldb, x, ldx)
	}
	return iter, 0
}

// gesvMixedFallback abandons the mixed route: it performs exactly the plain
// Gesv operations — float64 Getrf on a in place, then Getrs on a copy of b
// — so the delivered x, factors, and pivots are bit-identical to the plain
// driver's. reason (a MixedFallback* code) is passed through as iter.
func gesvMixedFallback[H core.Scalar](cfg *core.Config, reason, n, nrhs int, a []H, lda int, ipiv []int, b []H, ldb int, x []H, ldx int) (iter, info int) {
	info = Getrf(cfg, n, n, a, lda, ipiv)
	if info == 0 {
		Lacpy('A', n, nrhs, b, ldb, x, ldx)
		Getrs(cfg, NoTrans, n, nrhs, a, lda, ipiv, x, ldx)
	}
	return reason, info
}

// posvMixedEngine is the shared H↔L implementation behind PosvMixed.
func posvMixedEngine[H, L core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, a []H, lda int, b []H, ldb int, x []H, ldx int) (iter, info int) {
	if n == 0 {
		return 0, 0
	}
	anrm := Lansy(InfNorm, uplo, n, a, lda)
	if math.IsNaN(anrm) || math.IsInf(anrm, 0) {
		return posvMixedFallback(cfg, MixedFallbackNonFinite, uplo, n, nrhs, a, lda, b, ldb, x, ldx)
	}
	// Demote only the stored triangle: the opposite triangle of a is dead
	// storage that may hold anything, and the scratch's is stale pool
	// content — neither is read by Potrf/Potrs or the screening below.
	sa := blas.GetScratch[L](n * n)
	defer blas.PutScratch(sa)
	triOK := true
	for j := 0; j < n; j++ {
		lo, hi := 0, j+1
		if uplo == Lower {
			lo, hi = j, n
		}
		demoteMat(hi-lo, 1, a[lo+j*lda:], lda, sa[lo+j*n:], n)
		triOK = triOK && core.AllFinite(sa[lo+j*n:hi+j*n])
	}
	if !triOK {
		return posvMixedFallback(cfg, MixedFallbackNonFinite, uplo, n, nrhs, a, lda, b, ldb, x, ldx)
	}
	if Potrf(cfg, uplo, n, sa, n) != 0 {
		return posvMixedFallback(cfg, MixedFallbackSingular, uplo, n, nrhs, a, lda, b, ldb, x, ldx)
	}
	// Condition screen, as in gesvMixedEngine. A symmetric matrix's ∞-norm
	// equals its 1-norm, so anrm is the right operand for Pocon.
	if rc := Pocon[L](cfg, uplo, n, sa, n, anrm); rc < mixedRcondFloorMul*core.Eps[L]() {
		return posvMixedFallback(cfg, MixedFallbackIllConditioned, uplo, n, nrhs, a, lda, b, ldb, x, ldx)
	}
	solve := func(r []L) { Potrs(cfg, uplo, n, nrhs, sa, n, r, n) }
	residual := func(r []H) {
		mone, one := core.FromFloat[H](-1), core.FromFloat[H](1)
		if core.IsComplex[H]() {
			blas.Hemm(cfg, Left, uplo, n, nrhs, mone, a, lda, x, ldx, one, r, n)
		} else {
			blas.Symm(cfg, Left, uplo, n, nrhs, mone, a, lda, x, ldx, one, r, n)
		}
	}
	iter = mixedRefine(cfg, n, nrhs, anrm, b, ldb, x, ldx, solve, residual)
	if iter < 0 {
		return posvMixedFallback(cfg, iter, uplo, n, nrhs, a, lda, b, ldb, x, ldx)
	}
	return iter, 0
}

// posvMixedFallback is gesvMixedFallback for the Cholesky route: plain Posv
// operations on the same bits, bit-identical results.
func posvMixedFallback[H core.Scalar](cfg *core.Config, reason int, uplo Uplo, n, nrhs int, a []H, lda int, b []H, ldb int, x []H, ldx int) (iter, info int) {
	info = Potrf(cfg, uplo, n, a, lda)
	if info == 0 {
		Lacpy('A', n, nrhs, b, ldb, x, ldx)
		Potrs(cfg, uplo, n, nrhs, a, lda, x, ldx)
	}
	return reason, info
}

// mixedRefine runs the shared refinement loop: the initial low-precision
// solve of b, then residual/correct sweeps until the backward-error
// criterion holds for every column, a non-finite value appears, or the
// sweep bound is hit. solve overwrites an n×nrhs low-precision buffer with
// the factored solve; residual accumulates r -= A·x in full precision on a
// buffer pre-loaded with b. Returns the sweep count on convergence or a
// negative MixedFallback* code.
func mixedRefine[H, L core.Scalar](cfg *core.Config, n, nrhs int, anrm float64, b []H, ldb int, x []H, ldx int,
	solve func(r []L), residual func(r []H)) int {

	sx := blas.GetScratch[L](n * nrhs)
	defer blas.PutScratch(sx)
	demoteMat(n, nrhs, b, ldb, sx, n)
	if !core.AllFinite(sx) {
		return MixedFallbackNonFinite
	}
	solve(sx)
	promoteMat(n, nrhs, sx, n, x, ldx)

	r := blas.GetScratch[H](n * nrhs)
	defer blas.PutScratch(r)
	// Convergence: ‖r_j‖∞ ≤ ‖x_j‖∞ · anrm · n · eps64 for every column j —
	// a normwise backward error of at most n·eps64.
	cte := anrm * float64(n) * core.EpsDouble
	itermax := core.Cfg(cfg).MixedIterMax
	for it := 0; ; it++ {
		// Cancellation checkpoint: once per refinement sweep.
		cfg.Checkpoint()
		Lacpy('A', n, nrhs, b, ldb, r, n)
		residual(r)
		if !core.AllFinite(r) {
			// Consistent exception handling: a non-finite residual means the
			// low-precision solve overflowed or the promoted solution went
			// non-finite; iterating further cannot recover, so abandon now
			// rather than at the sweep bound.
			return MixedFallbackNonFinite
		}
		converged := true
		for j := 0; j < nrhs; j++ {
			if colMaxAbs(r[j*n:j*n+n]) > colMaxAbs(x[j*ldx:j*ldx+n])*cte {
				converged = false
				break
			}
		}
		if converged {
			return it
		}
		if it >= itermax {
			return MixedFallbackStalled
		}
		// Correction: d = A⁻¹·r through the low-precision factors, x += d.
		demoteMat(n, nrhs, r, n, sx, n)
		if !core.AllFinite(sx) {
			return MixedFallbackNonFinite
		}
		solve(sx)
		for j := 0; j < nrhs; j++ {
			axpyPromote(n, sx[j*n:j*n+n], x[j*ldx:j*ldx+n])
		}
	}
}
