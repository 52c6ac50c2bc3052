package la

import "repro/internal/lapack"

// What the symmetric eigenproblem drivers report when INFO > 0.
const (
	eigFailed  = "the tridiagonal eigenvalue iteration failed to converge"
	ifailSet   = "some eigenvectors failed to converge"
	notPosDefB = "B is not positive definite or the reduction failed"
)

// EigXResult carries the outputs of the expert eigensolvers (the paper's
// M, W, Z, IFAIL arguments).
type EigXResult[T Scalar] struct {
	M     int        // number of eigenvalues found
	W     []float64  // the eigenvalues, ascending
	Z     *Matrix[T] // eigenvectors (first M columns), when requested
	IFail []int      // indices of eigenvectors that failed to converge
}

// evxResult is the return of an expert eigensolver: z keeps the M columns
// that were computed.
func evxResult[T Scalar](routine string, res lapack.SyevxResult, z *Matrix[T]) (*EigXResult[T], error) {
	if z != nil {
		z.Cols = res.M
	}
	return &EigXResult[T]{M: res.M, W: res.W, Z: z, IFail: res.IFail}, erinfo(routine, res.Info, ifailSet)
}

// SYEV computes all eigenvalues and, with WithVectors, the orthonormal
// eigenvectors of a real symmetric matrix — and, by genericity, of a
// complex Hermitian one (the paper's LA_SYEV / LA_HEEV). Only the
// WithUpLo triangle of A is referenced; with WithVectors A is overwritten
// by the eigenvectors. The eigenvalues are returned ascending. The
// eigenvectors of the tridiagonal form come from the QL/QR iteration on
// small matrices and from divide & conquer on larger ones.
func SYEV[T Scalar](a *Matrix[T], opts ...Opt) (w []float64, err error) {
	return syev("LA_SYEV", a, opts)
}

// syev is the body of SYEV and of SYEVD, the paper's other name for it.
func syev[T Scalar](routine string, a *Matrix[T], opts []Opt) (w []float64, err error) {
	defer guard(routine, &err)
	o := apply(opts)
	n, err := squareArgs(routine, o.check, a)
	if err != nil {
		return nil, err
	}
	w = make([]float64, n)
	info := lapack.Syev[T](o.cfg, o.vectors, o.uplo, n, a.Data, a.Stride, w)
	return w, erdiag(routine, info, eigFailed, DiagNotConverged)
}

// HEEV is the Hermitian name for SYEV (the paper's LA_HEEV).
func HEEV[T Scalar](a *Matrix[T], opts ...Opt) (w []float64, err error) {
	return SYEV(a, opts...)
}

// SYEVD is SYEV under the paper's divide & conquer name (LA_SYEVD /
// LA_HEEVD): one routine serves both and takes divide & conquer wherever
// it is the faster route.
func SYEVD[T Scalar](a *Matrix[T], opts ...Opt) (w []float64, err error) {
	return syev("LA_SYEVD", a, opts)
}

// HEEVD is the Hermitian name for SYEVD (the paper's LA_HEEVD).
func HEEVD[T Scalar](a *Matrix[T], opts ...Opt) (w []float64, err error) {
	return SYEVD(a, opts...)
}

// SYEVX computes selected eigenvalues and, with WithVectors, eigenvectors
// of a symmetric/Hermitian matrix by bisection and inverse iteration (the
// paper's LA_SYEVX / LA_HEEVX). Select eigenvalues with WithValueRange or
// WithIndexRange (default: all); WithAbsTol tunes the bisection tolerance.
// A is overwritten by its tridiagonal reduction.
func SYEVX[T Scalar](a *Matrix[T], opts ...Opt) (result *EigXResult[T], err error) {
	const routine = "LA_SYEVX"
	defer guard(routine, &err)
	o := apply(opts)
	n, err := squareArgs(routine, o.check, a)
	if err != nil {
		return nil, err
	}
	z, zdata, ldz := vecOut[T](o.vectors, n, n)
	res := lapack.Syevx(o.cfg, o.vectors, o.rng, o.uplo, n, a.Data, a.Stride, o.vl, o.vu, o.il, o.iuFor(n), o.abstol, zdata, ldz)
	return evxResult(routine, res, z)
}

// HEEVX is the Hermitian name for SYEVX (the paper's LA_HEEVX).
func HEEVX[T Scalar](a *Matrix[T], opts ...Opt) (*EigXResult[T], error) {
	return SYEVX(a, opts...)
}

// SPEV computes all eigenvalues and, with WithVectors, eigenvectors of a
// symmetric/Hermitian matrix in packed storage (the paper's LA_SPEV /
// LA_HPEV). The eigenvectors, when requested, are returned in z.
func SPEV[T Scalar](ap []T, opts ...Opt) (w []float64, z *Matrix[T], err error) {
	return spev("LA_SPEV", ap, opts)
}

// spev is the body of SPEV and SPEVD.
func spev[T Scalar](routine string, ap []T, opts []Opt) (w []float64, z *Matrix[T], err error) {
	defer guard(routine, &err)
	o := apply(opts)
	n, err := packedEigArgs(routine, o.check, ap)
	if err != nil {
		return nil, nil, err
	}
	w = make([]float64, n)
	z, zdata, ldz := vecOut[T](o.vectors, n, n)
	info := lapack.Spev(o.cfg, o.vectors, o.uplo, n, ap, w, zdata, ldz)
	return w, z, erdiag(routine, info, eigFailed, DiagNotConverged)
}

// HPEV is the Hermitian name for SPEV (the paper's LA_HPEV).
func HPEV[T Scalar](ap []T, opts ...Opt) (w []float64, z *Matrix[T], err error) {
	return SPEV(ap, opts...)
}

// SPEVD is SPEV under the paper's divide & conquer name (LA_SPEVD /
// LA_HPEVD).
func SPEVD[T Scalar](ap []T, opts ...Opt) (w []float64, z *Matrix[T], err error) {
	return spev("LA_SPEVD", ap, opts)
}

// HPEVD is the Hermitian name for SPEVD.
func HPEVD[T Scalar](ap []T, opts ...Opt) (w []float64, z *Matrix[T], err error) {
	return SPEVD(ap, opts...)
}

// SPEVX computes selected eigenvalues/eigenvectors of a packed
// symmetric/Hermitian matrix (the paper's LA_SPEVX / LA_HPEVX).
func SPEVX[T Scalar](ap []T, opts ...Opt) (result *EigXResult[T], err error) {
	const routine = "LA_SPEVX"
	defer guard(routine, &err)
	o := apply(opts)
	n, err := packedEigArgs(routine, o.check, ap)
	if err != nil {
		return nil, err
	}
	z, zdata, ldz := vecOut[T](o.vectors, n, n)
	res := lapack.Spevx(o.cfg, o.vectors, o.rng, o.uplo, n, ap, o.vl, o.vu, o.il, o.iuFor(n), o.abstol, zdata, ldz)
	return evxResult(routine, res, z)
}

// HPEVX is the Hermitian name for SPEVX.
func HPEVX[T Scalar](ap []T, opts ...Opt) (*EigXResult[T], error) {
	return SPEVX(ap, opts...)
}

// SBEV computes all eigenvalues and, with WithVectors, eigenvectors of a
// symmetric/Hermitian band matrix (the paper's LA_SBEV / LA_HBEV). AB is
// in symmetric band storage with kd = AB.Rows−1 off-diagonals.
func SBEV[T Scalar](ab *Matrix[T], opts ...Opt) (w []float64, z *Matrix[T], err error) {
	return sbev("LA_SBEV", ab, opts)
}

// sbev is the body of SBEV and SBEVD.
func sbev[T Scalar](routine string, ab *Matrix[T], opts []Opt) (w []float64, z *Matrix[T], err error) {
	defer guard(routine, &err)
	o := apply(opts)
	n, err := bandEigArgs(routine, o.check, ab)
	if err != nil {
		return nil, nil, err
	}
	w = make([]float64, n)
	z, zdata, ldz := vecOut[T](o.vectors, n, n)
	info := lapack.Sbev(o.cfg, o.vectors, o.uplo, n, ab.Rows-1, ab.Data, ab.Stride, w, zdata, ldz)
	return w, z, erdiag(routine, info, eigFailed, DiagNotConverged)
}

// HBEV is the Hermitian name for SBEV (the paper's LA_HBEV).
func HBEV[T Scalar](ab *Matrix[T], opts ...Opt) (w []float64, z *Matrix[T], err error) {
	return SBEV(ab, opts...)
}

// SBEVD is SBEV under the paper's divide & conquer name (LA_SBEVD /
// LA_HBEVD).
func SBEVD[T Scalar](ab *Matrix[T], opts ...Opt) (w []float64, z *Matrix[T], err error) {
	return sbev("LA_SBEVD", ab, opts)
}

// HBEVD is the Hermitian name for SBEVD.
func HBEVD[T Scalar](ab *Matrix[T], opts ...Opt) (w []float64, z *Matrix[T], err error) {
	return SBEVD(ab, opts...)
}

// SBEVX computes selected eigenvalues/eigenvectors of a band
// symmetric/Hermitian matrix (the paper's LA_SBEVX / LA_HBEVX).
func SBEVX[T Scalar](ab *Matrix[T], opts ...Opt) (result *EigXResult[T], err error) {
	const routine = "LA_SBEVX"
	defer guard(routine, &err)
	o := apply(opts)
	n, err := bandEigArgs(routine, o.check, ab)
	if err != nil {
		return nil, err
	}
	z, zdata, ldz := vecOut[T](o.vectors, n, n)
	res := lapack.Sbevx(o.cfg, o.vectors, o.rng, o.uplo, n, ab.Rows-1, ab.Data, ab.Stride, o.vl, o.vu, o.il, o.iuFor(n), o.abstol, zdata, ldz)
	return evxResult(routine, res, z)
}

// HBEVX is the Hermitian name for SBEVX.
func HBEVX[T Scalar](ab *Matrix[T], opts ...Opt) (*EigXResult[T], error) {
	return SBEVX(ab, opts...)
}

// STEV computes all eigenvalues and, with WithVectors, eigenvectors of a
// real symmetric tridiagonal matrix (the paper's LA_STEV). d and e are
// overwritten; on success d holds the eigenvalues ascending.
func STEV[T Scalar](d, e []float64, opts ...Opt) (z *Matrix[T], err error) {
	return stev[T]("LA_STEV", d, e, opts)
}

// stev is the body of STEV and STEVD.
func stev[T Scalar](routine string, d, e []float64, opts []Opt) (z *Matrix[T], err error) {
	defer guard(routine, &err)
	o := apply(opts)
	n, err := tridiagArgs(routine, o.check, d, e)
	if err != nil {
		return nil, err
	}
	z, zdata, ldz := vecOut[T](o.vectors, n, n)
	info := lapack.Stev(o.cfg, n, d, e, zdata, ldz)
	return z, erdiag(routine, info, eigFailed, DiagNotConverged)
}

// STEVD is STEV under the paper's divide & conquer name (LA_STEVD).
func STEVD[T Scalar](d, e []float64, opts ...Opt) (z *Matrix[T], err error) {
	return stev[T]("LA_STEVD", d, e, opts)
}

// STEVX computes selected eigenvalues/eigenvectors of a real symmetric
// tridiagonal matrix by bisection and inverse iteration (the paper's
// LA_STEVX).
func STEVX[T Scalar](d, e []float64, opts ...Opt) (result *EigXResult[T], err error) {
	const routine = "LA_STEVX"
	defer guard(routine, &err)
	o := apply(opts)
	n, err := tridiagArgs(routine, o.check, d, e)
	if err != nil {
		return nil, err
	}
	z, zdata, ldz := vecOut[T](o.vectors, n, n)
	res := lapack.Stevx(o.vectors, o.rng, n, d, e, o.vl, o.vu, o.il, o.iuFor(n), o.abstol, zdata, ldz)
	return evxResult(routine, res, z)
}

// SYGV computes all eigenvalues and, with WithVectors, eigenvectors of a
// generalized symmetric/Hermitian-definite eigenproblem (the paper's
// LA_SYGV / LA_HEGV). WithIType selects A·x = λ·B·x (1, default),
// A·B·x = λ·x (2) or B·A·x = λ·x (3). On exit A holds the eigenvectors
// (when requested) and B its Cholesky factor. A positive INFO > n in the
// error means the leading minor of order INFO−n of B is not positive
// definite.
func SYGV[T Scalar](a, b *Matrix[T], opts ...Opt) (w []float64, err error) {
	const routine = "LA_SYGV"
	defer guard(routine, &err)
	o := apply(opts)
	n, err := squareArgs(routine, o.check, a, b)
	if err != nil {
		return nil, err
	}
	w = make([]float64, n)
	info := lapack.Sygv(o.cfg, o.itype, o.vectors, o.uplo, n, a.Data, a.Stride, b.Data, b.Stride, w)
	return w, erinfo(routine, info, notPosDefB)
}

// HEGV is the Hermitian name for SYGV (the paper's LA_HEGV).
func HEGV[T Scalar](a, b *Matrix[T], opts ...Opt) (w []float64, err error) {
	return SYGV(a, b, opts...)
}

// SPGV solves the generalized symmetric-definite eigenproblem in packed
// storage (the paper's LA_SPGV / LA_HPGV). The eigenvectors, when
// requested, are returned in z; bp is overwritten with the packed
// Cholesky factor of B.
func SPGV[T Scalar](ap, bp []T, opts ...Opt) (w []float64, z *Matrix[T], err error) {
	const routine = "LA_SPGV"
	defer guard(routine, &err)
	o := apply(opts)
	n, err := packedEigArgs(routine, o.check, ap, bp)
	if err != nil {
		return nil, nil, err
	}
	w = make([]float64, n)
	z, zdata, ldz := vecOut[T](o.vectors, n, n)
	info := lapack.Spgv(o.cfg, o.itype, o.vectors, o.uplo, n, ap, bp, w, zdata, ldz)
	return w, z, erinfo(routine, info, notPosDefB)
}

// HPGV is the Hermitian name for SPGV.
func HPGV[T Scalar](ap, bp []T, opts ...Opt) (w []float64, z *Matrix[T], err error) {
	return SPGV(ap, bp, opts...)
}

// SBGV solves the generalized symmetric-definite banded eigenproblem
// A·x = λ·B·x (the paper's LA_SBGV / LA_HBGV). AB and BB are in
// symmetric band storage (ka = AB.Rows−1, kb = BB.Rows−1 off-diagonals).
func SBGV[T Scalar](ab, bb *Matrix[T], opts ...Opt) (w []float64, z *Matrix[T], err error) {
	const routine = "LA_SBGV"
	defer guard(routine, &err)
	o := apply(opts)
	n, err := bandEigArgs(routine, o.check, ab, bb)
	if err != nil {
		return nil, nil, err
	}
	w = make([]float64, n)
	z, zdata, ldz := vecOut[T](o.vectors, n, n)
	info := lapack.Sbgv(o.cfg, o.vectors, o.uplo, n, ab.Rows-1, bb.Rows-1, ab.Data, ab.Stride, bb.Data, bb.Stride, w, zdata, ldz)
	return w, z, erinfo(routine, info, notPosDefB)
}

// HBGV is the Hermitian name for SBGV.
func HBGV[T Scalar](ab, bb *Matrix[T], opts ...Opt) (w []float64, z *Matrix[T], err error) {
	return SBGV(ab, bb, opts...)
}
