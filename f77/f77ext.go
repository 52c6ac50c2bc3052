package f77

import (
	"math"

	"repro/internal/core"
	"repro/internal/lapack"
)

// Additional F77_LAPACK interfaces beyond the Appendix A examples: the
// paper's F77 module covers every LAPACK 77 driver and computational
// routine with a generic interface; this file extends the same explicit
// calling sequences to the eigensolvers, the SVD-based least squares
// driver and the expert general solver.

// GEEV computes eigenvalues and, optionally, eigenvectors of a real
// general matrix (xGEEV: JOBVL, JOBVR, N, A, LDA, WR, WI, VL, LDVL, VR,
// LDVR, INFO, with the job characters replaced by booleans). For the
// complex families use GEEVC.
func GEEV[T interface{ float32 | float64 }](jobvl, jobvr bool, n int, a []T, lda int, wr, wi []float64, vl []T, ldvl int, vr []T, ldvr int) (info int) {
	if info = check(dim(n, 3), mat(n, n, a, lda, 4), mat(wanted(jobvl, n), wanted(jobvl, n), vl, ldvl, 8), mat(wanted(jobvr, n), wanted(jobvr, n), vr, ldvr, 10)); info != 0 {
		return info
	}
	cfg := core.Default()
	return lapack.Geev(cfg, jobvl, jobvr, n, a, lda, wr, wi, vl, ldvl, vr, ldvr)
}

// GEEVC is the complex counterpart of GEEV (xGEEV, C/Z families).
func GEEVC[T interface{ complex64 | complex128 }](jobvl, jobvr bool, n int, a []T, lda int, w []complex128, vl []T, ldvl int, vr []T, ldvr int) (info int) {
	if info = check(dim(n, 3), mat(n, n, a, lda, 4), mat(wanted(jobvl, n), wanted(jobvl, n), vl, ldvl, 7), mat(wanted(jobvr, n), wanted(jobvr, n), vr, ldvr, 9)); info != 0 {
		return info
	}
	cfg := core.Default()
	return lapack.GeevC(cfg, jobvl, jobvr, n, a, lda, w, vl, ldvl, vr, ldvr)
}

// GEES computes the real Schur factorization (xGEES). sel may be nil for
// no ordering; sdim counts the selected leading eigenvalues.
func GEES[T interface{ float32 | float64 }](jobvs bool, sel func(wr, wi float64) bool, n int, a []T, lda int, wr, wi []float64, vs []T, ldvs int) (sdim, info int) {
	if info = check(dim(n, 4), mat(n, n, a, lda, 5), mat(wanted(jobvs, n), wanted(jobvs, n), vs, ldvs, 10)); info != 0 {
		return 0, info
	}
	if !jobvs {
		vs = nil
	}
	w := make([]complex128, n)
	res := lapack.Geesx(core.Default(), false, sel, n, a, lda, w, vs, ldvs)
	for i, v := range w {
		wr[i], wi[i] = real(v), imag(v)
	}
	return res.SDim, res.Info
}

// GEESC is the complex counterpart of GEES.
func GEESC[T interface{ complex64 | complex128 }](jobvs bool, sel func(w complex128) bool, n int, a []T, lda int, w []complex128, vs []T, ldvs int) (sdim, info int) {
	if info = check(dim(n, 4), mat(n, n, a, lda, 5), mat(wanted(jobvs, n), wanted(jobvs, n), vs, ldvs, 9)); info != 0 {
		return 0, info
	}
	var s func(re, im float64) bool
	if sel != nil {
		s = func(re, im float64) bool { return sel(complex(re, im)) }
	}
	if !jobvs {
		vs = nil
	}
	res := lapack.Geesx(core.Default(), false, s, n, a, lda, w, vs, ldvs)
	return res.SDim, res.Info
}

// GELSS computes the minimum-norm least squares solution by SVD
// (xGELSS: M, N, NRHS, A, LDA, B, LDB, S, RCOND, RANK, INFO).
func GELSS[T Scalar](m, n, nrhs int, a []T, lda int, b []T, ldb int, s []float64, rcond float64) (rank, info int) {
	if info = check(dim(m, 1), dim(n, 2), dim(nrhs, 3), mat(m, n, a, lda, 4), mat(max(m, n), nrhs, b, ldb, 6)); info != 0 {
		return 0, info
	}
	cfg := core.Default()
	return lapack.Gelss(cfg, m, n, nrhs, a, lda, b, ldb, s, rcond)
}

// GECON estimates the reciprocal condition number from a GETRF
// factorization (xGECON: NORM, N, A, LDA, ANORM, RCOND, INFO).
func GECON[T Scalar](norm byte, n int, a []T, lda int, ipiv []int, anorm float64) (rcond float64, info int) {
	if info = check(dim(n, 2), mat(n, n, a, lda, 3)); info != 0 {
		return 0, info
	}
	return lapack.Gecon(core.Default(), lapack.Norm(norm), n, a, lda, pivIn(ipiv), anorm), 0
}

// LANGE returns the selected norm of a general matrix
// (xLANGE: NORM, M, N, A, LDA). xLANGE is a FUNCTION with no INFO to report
// a malformed matrix through, so it returns NaN for one.
func LANGE[T Scalar](norm byte, m, n int, a []T, lda int) float64 {
	if check(dim(m, 2), dim(n, 3), mat(m, n, a, lda, 4)) != 0 {
		return math.NaN()
	}
	return lapack.Lange(lapack.Norm(norm), m, n, a, lda)
}

// SYEVD is SYEV under LAPACK's divide & conquer name, one body for both
// (xSYEVD: JOBZ, UPLO, N, A, LDA, W, …, INFO).
func SYEVD[T Scalar](jobz bool, uplo UpLo, n int, a []T, lda int, w []float64) (info int) {
	if info = check(dim(n, 3), mat(n, n, a, lda, 4)); info != 0 {
		return info
	}
	cfg := core.Default()
	return lapack.Syevd[T](cfg, jobz, uplo, n, a, lda, w)
}

// SYGV solves the generalized symmetric-definite eigenproblem
// (xSYGV: ITYPE, JOBZ, UPLO, N, A, LDA, B, LDB, W, …, INFO).
func SYGV[T Scalar](itype int, jobz bool, uplo UpLo, n int, a []T, lda int, b []T, ldb int, w []float64) (info int) {
	if info = check(dim(n, 4), mat(n, n, a, lda, 5), mat(n, n, b, ldb, 7)); info != 0 {
		return info
	}
	cfg := core.Default()
	return lapack.Sygv(cfg, itype, jobz, uplo, n, a, lda, b, ldb, w)
}

// GEHRD reduces a matrix to upper Hessenberg form
// (xGEHRD: N, ILO, IHI, A, LDA, TAU, …, INFO; ilo/ihi are 1-based as in
// LAPACK).
func GEHRD[T Scalar](n, ilo, ihi int, a []T, lda int, tau []T) (info int) {
	if info = check(dim(n, 1), mat(n, n, a, lda, 4)); info != 0 {
		return info
	}
	cfg := core.Default()
	lapack.Gehrd(cfg, n, ilo-1, ihi-1, a, lda, tau)
	return 0
}

// SYTRD reduces a symmetric/Hermitian matrix to tridiagonal form
// (xSYTRD: UPLO, N, A, LDA, D, E, TAU, …, INFO).
func SYTRD[T Scalar](uplo UpLo, n int, a []T, lda int, d, e []float64, tau []T) (info int) {
	if info = check(dim(n, 2), mat(n, n, a, lda, 3)); info != 0 {
		return info
	}
	cfg := core.Default()
	lapack.Sytrd(cfg, uplo, n, a, lda, d, e, tau)
	return 0
}

// ORGTR generates the unitary matrix from SYTRD
// (xORGTR: UPLO, N, A, LDA, TAU, …, INFO).
func ORGTR[T Scalar](uplo UpLo, n int, a []T, lda int, tau []T) (info int) {
	if info = check(dim(n, 2), mat(n, n, a, lda, 3)); info != 0 {
		return info
	}
	cfg := core.Default()
	lapack.Orgtr(cfg, uplo, n, a, lda, tau)
	return 0
}

// STEQR computes eigenvalues/eigenvectors of a symmetric tridiagonal
// matrix by the implicit QL/QR method (xSTEQR: COMPZ via a non-nil z).
func STEQR[T Scalar](n int, d, e []float64, z []T, ldz int) (info int) {
	if info = check(dim(n, 2), mat(wanted(z != nil, n), wanted(z != nil, n), z, ldz, 5)); info != 0 {
		return info
	}
	cfg := core.Default()
	return lapack.Steqr(cfg, n, d, e, z, ldz)
}

// GESVX is the expert driver for general systems (xGESVX), returning the
// solution in x plus the condition estimate and error bounds.
func GESVX[T Scalar](fact byte, trans Trans, n, nrhs int, a []T, lda int, af []T, ldaf int, ipiv []int, b []T, ldb int, x []T, ldx int, ferr, berr []float64) (rcond float64, info int) {
	if info = check(dim(n, 3), dim(nrhs, 4), mat(n, n, a, lda, 5), mat(n, n, af, ldaf, 7), mat(n, nrhs, b, ldb, 13), mat(n, nrhs, x, ldx, 15)); info != 0 {
		return 0, info
	}
	cfg := core.Default()
	piv := make([]int, n)
	if fact == 'F' {
		copy(piv, pivIn(ipiv))
	}
	res := lapack.Gesvx(cfg, lapack.Fact(fact), trans, n, nrhs, a, lda, af, ldaf, piv, b, ldb, x, ldx)
	pivOut(piv, ipiv)
	copy(ferr, res.Ferr)
	copy(berr, res.Berr)
	return res.RCond, res.Info
}
