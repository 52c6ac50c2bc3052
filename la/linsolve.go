package la

import "repro/internal/lapack"

// GESV solves a general system of linear equations A·X = B (the paper's
// LA_GESV with a matrix right-hand side).
//
// A (n×n) is overwritten with the factors L and U from the factorization
// A = Pᵀ·L·U; B (n×nrhs) is overwritten with the solution X. The returned
// ipiv holds the 0-based pivot indices (the paper's optional IPIV
// argument, always provided here). A positive INFO i in the error means
// U(i,i) = 0: A is singular and no solution was computed.
func GESV[T Scalar](a, b *Matrix[T], opts ...Opt) (ipiv []int, err error) {
	const routine = "LA_GESV"
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	if err := denseArgs(routine, o.check, a, b); err != nil {
		return nil, err
	}
	n := a.Rows
	ipiv = make([]int, n)
	info := lapack.Gesv(cfg, n, b.Cols, a.Data, a.Stride, ipiv, b.Data, b.Stride)
	return ipiv, erdiag(routine, info, "matrix is exactly singular", DiagSingular)
}

// GESV1 is LA_GESV with a vector right-hand side (the paper's
// SGESV1_F90 shape resolution: B has shape (:)).
func GESV1[T Scalar](a *Matrix[T], b []T, opts ...Opt) (ipiv []int, err error) {
	bm := &Matrix[T]{Rows: len(b), Cols: 1, Stride: max(1, len(b)), Data: b}
	return GESV(a, bm, opts...)
}

// GBSV solves a general band system of linear equations A·X = B (the
// paper's LA_GBSV).
//
// AB holds the matrix in LAPACK LU band storage: ldab = 2*kl+ku+1 rows
// with the matrix occupying rows kl..2*kl+ku. kl is passed via WithKL
// (default: inferred as (ldab-1)/3, the paper's KL = (SIZE(AB,1)-1)/3
// rule); ku = ldab-1-2*kl. B is overwritten with the solution.
func GBSV[T Scalar](ab, b *Matrix[T], opts ...Opt) (ipiv []int, err error) {
	const routine = "LA_GBSV"
	defer guard(routine, &err)
	o := apply(opts)
	if ab == nil || ab.Cols < 0 {
		return nil, erinfo(routine, -1, "")
	}
	n := ab.Cols
	if !rhsMatch(n, b) {
		return nil, erinfo(routine, -2, "")
	}
	ldab := ab.Rows
	kl := (ldab - 1) / 3
	if o.haveKL {
		kl = o.kl
	}
	ku := ldab - 1 - 2*kl
	if kl < 0 || ku < 0 {
		return nil, erinfo(routine, -3, "")
	}
	if o.check {
		if err := firstErr(finiteMat(routine, 1, "AB", ab), finiteMat(routine, 2, "B", b)); err != nil {
			return nil, err
		}
	}
	ipiv = make([]int, n)
	info := lapack.Gbsv(n, kl, ku, b.Cols, ab.Data, ab.Stride, ipiv, b.Data, b.Stride)
	return ipiv, erdiag(routine, info, "matrix is exactly singular", DiagSingular)
}

// GBSV1 is LA_GBSV with a vector right-hand side.
func GBSV1[T Scalar](ab *Matrix[T], b []T, opts ...Opt) (ipiv []int, err error) {
	bm := &Matrix[T]{Rows: len(b), Cols: 1, Stride: max(1, len(b)), Data: b}
	return GBSV(ab, bm, opts...)
}

// GTSV solves a general tridiagonal system of linear equations A·X = B
// (the paper's LA_GTSV). dl, d and du are the sub-, main and
// super-diagonals and are overwritten by the factorization; B is
// overwritten with the solution.
func GTSV[T Scalar](dl, d, du []T, b *Matrix[T], opts ...Opt) (err error) {
	const routine = "LA_GTSV"
	defer guard(routine, &err)
	o := apply(opts)
	if err := gtArgs(routine, o.check, dl, d, du, b); err != nil {
		return err
	}
	info := lapack.Gtsv(len(d), b.Cols, dl, d, du, b.Data, b.Stride)
	return erdiag(routine, info, "matrix is exactly singular", DiagSingular)
}

// GTSV1 is LA_GTSV with a vector right-hand side.
func GTSV1[T Scalar](dl, d, du []T, b []T, opts ...Opt) error {
	bm := &Matrix[T]{Rows: len(b), Cols: 1, Stride: max(1, len(b)), Data: b}
	return GTSV(dl, d, du, bm, opts...)
}

// POSV solves a symmetric/Hermitian positive definite system of linear
// equations A·X = B (the paper's LA_POSV). Only the triangle selected by
// WithUpLo (default Upper) is referenced; on exit it holds the Cholesky
// factor. A positive INFO i means the leading minor of order i is not
// positive definite.
func POSV[T Scalar](a, b *Matrix[T], opts ...Opt) (err error) {
	const routine = "LA_POSV"
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	if err := denseArgs(routine, o.check, a, b); err != nil {
		return err
	}
	info := lapack.Posv(cfg, o.uplo, a.Rows, b.Cols, a.Data, a.Stride, b.Data, b.Stride)
	return erdiag(routine, info, "matrix is not positive definite", DiagNotPositiveDefinite)
}

// POSV1 is LA_POSV with a vector right-hand side.
func POSV1[T Scalar](a *Matrix[T], b []T, opts ...Opt) error {
	bm := &Matrix[T]{Rows: len(b), Cols: 1, Stride: max(1, len(b)), Data: b}
	return POSV(a, bm, opts...)
}

// PPSV solves a symmetric/Hermitian positive definite system in packed
// storage (the paper's LA_PPSV). ap holds the WithUpLo triangle packed
// column-wise (length n(n+1)/2) and is overwritten with the packed
// Cholesky factor.
func PPSV[T Scalar](ap []T, b *Matrix[T], opts ...Opt) (err error) {
	const routine = "LA_PPSV"
	defer guard(routine, &err)
	o := apply(opts)
	n, err := packedArgs(routine, o.check, ap, b)
	if err != nil {
		return err
	}
	info := lapack.Ppsv(o.uplo, n, b.Cols, ap, b.Data, b.Stride)
	return erdiag(routine, info, "matrix is not positive definite", DiagNotPositiveDefinite)
}

// PPSV1 is LA_PPSV with a vector right-hand side.
func PPSV1[T Scalar](ap []T, b []T, opts ...Opt) error {
	bm := &Matrix[T]{Rows: len(b), Cols: 1, Stride: max(1, len(b)), Data: b}
	return PPSV(ap, bm, opts...)
}

// packedOrder returns n with len = n(n+1)/2, or -1 if len is not
// triangular.
func packedOrder(length int) int {
	n := 0
	for n*(n+1)/2 < length {
		n++
	}
	if n*(n+1)/2 != length {
		return -1
	}
	return n
}

// PBSV solves a symmetric/Hermitian positive definite band system (the
// paper's LA_PBSV). AB is in symmetric band storage with kd = AB.Rows-1
// off-diagonals in the WithUpLo triangle; on exit it holds the band
// Cholesky factor.
func PBSV[T Scalar](ab, b *Matrix[T], opts ...Opt) (err error) {
	const routine = "LA_PBSV"
	defer guard(routine, &err)
	o := apply(opts)
	if err := bandArgs(routine, o.check, ab, b); err != nil {
		return err
	}
	n, kd := ab.Cols, ab.Rows-1
	info := lapack.Pbsv(o.uplo, n, kd, b.Cols, ab.Data, ab.Stride, b.Data, b.Stride)
	return erdiag(routine, info, "matrix is not positive definite", DiagNotPositiveDefinite)
}

// PBSV1 is LA_PBSV with a vector right-hand side.
func PBSV1[T Scalar](ab *Matrix[T], b []T, opts ...Opt) error {
	bm := &Matrix[T]{Rows: len(b), Cols: 1, Stride: max(1, len(b)), Data: b}
	return PBSV(ab, bm, opts...)
}

// PTSV solves a symmetric/Hermitian positive definite tridiagonal system
// (the paper's LA_PTSV). d is the real diagonal and e the sub-diagonal;
// both are overwritten by the L·D·Lᴴ factorization.
func PTSV[T Scalar](d []float64, e []T, b *Matrix[T], opts ...Opt) (err error) {
	const routine = "LA_PTSV"
	defer guard(routine, &err)
	o := apply(opts)
	if err := ptArgs(routine, o.check, d, e, b); err != nil {
		return err
	}
	info := lapack.Ptsv(len(d), b.Cols, d, e, b.Data, b.Stride)
	return erdiag(routine, info, "matrix is not positive definite", DiagNotPositiveDefinite)
}

// PTSV1 is LA_PTSV with a vector right-hand side.
func PTSV1[T Scalar](d []float64, e []T, b []T, opts ...Opt) error {
	bm := &Matrix[T]{Rows: len(b), Cols: 1, Stride: max(1, len(b)), Data: b}
	return PTSV(d, e, bm, opts...)
}

// SYSV solves a symmetric indefinite system of linear equations A·X = B
// by the Bunch–Kaufman factorization (the paper's LA_SYSV; for complex
// element types this is the complex-symmetric solver — see HESV for the
// Hermitian one). The returned ipiv encodes the pivot blocks as in
// LAPACK.
func SYSV[T Scalar](a, b *Matrix[T], opts ...Opt) (ipiv []int, err error) {
	return sysv("LA_SYSV", false, a, b, opts)
}

// SYSV1 is LA_SYSV with a vector right-hand side.
func SYSV1[T Scalar](a *Matrix[T], b []T, opts ...Opt) (ipiv []int, err error) {
	bm := &Matrix[T]{Rows: len(b), Cols: 1, Stride: max(1, len(b)), Data: b}
	return SYSV(a, bm, opts...)
}

// HESV solves a Hermitian indefinite system of linear equations (the
// paper's LA_HESV). For real element types it coincides with SYSV.
func HESV[T Scalar](a, b *Matrix[T], opts ...Opt) (ipiv []int, err error) {
	return sysv("LA_HESV", true, a, b, opts)
}

// HESV1 is LA_HESV with a vector right-hand side.
func HESV1[T Scalar](a *Matrix[T], b []T, opts ...Opt) (ipiv []int, err error) {
	bm := &Matrix[T]{Rows: len(b), Cols: 1, Stride: max(1, len(b)), Data: b}
	return HESV(a, bm, opts...)
}

// sysv is the one body of SYSV (herm false) and HESV (herm true).
func sysv[T Scalar](routine string, herm bool, a, b *Matrix[T], opts []Opt) (ipiv []int, err error) {
	defer guard(routine, &err)
	o := apply(opts)
	if err := denseArgs(routine, o.check, a, b); err != nil {
		return nil, err
	}
	solve := lapack.Sysv[T]
	if herm {
		solve = lapack.Hesv[T]
	}
	ipiv = make([]int, a.Rows)
	info := solve(o.cfg, o.uplo, a.Rows, b.Cols, a.Data, a.Stride, ipiv, b.Data, b.Stride)
	return ipiv, erdiag(routine, info, "D(i,i) is exactly zero; the factorization is singular", DiagSingular)
}

// SPSV solves a symmetric indefinite system in packed storage (the
// paper's LA_SPSV).
func SPSV[T Scalar](ap []T, b *Matrix[T], opts ...Opt) (ipiv []int, err error) {
	return spsv("LA_SPSV", false, ap, b, opts)
}

// SPSV1 is LA_SPSV with a vector right-hand side.
func SPSV1[T Scalar](ap []T, b []T, opts ...Opt) (ipiv []int, err error) {
	bm := &Matrix[T]{Rows: len(b), Cols: 1, Stride: max(1, len(b)), Data: b}
	return SPSV(ap, bm, opts...)
}

// HPSV solves a Hermitian indefinite system in packed storage (the
// paper's LA_HPSV).
func HPSV[T Scalar](ap []T, b *Matrix[T], opts ...Opt) (ipiv []int, err error) {
	return spsv("LA_HPSV", true, ap, b, opts)
}

// spsv is the one body of SPSV (herm false) and HPSV (herm true).
func spsv[T Scalar](routine string, herm bool, ap []T, b *Matrix[T], opts []Opt) (ipiv []int, err error) {
	defer guard(routine, &err)
	o := apply(opts)
	n, err := packedArgs(routine, o.check, ap, b)
	if err != nil {
		return nil, err
	}
	solve := lapack.Spsv[T]
	if herm {
		solve = lapack.Hpsv[T]
	}
	ipiv = make([]int, n)
	info := solve(o.cfg, o.uplo, n, b.Cols, ap, ipiv, b.Data, b.Stride)
	return ipiv, erdiag(routine, info, "D(i,i) is exactly zero; the factorization is singular", DiagSingular)
}

// HPSV1 is LA_HPSV with a vector right-hand side.
func HPSV1[T Scalar](ap []T, b []T, opts ...Opt) (ipiv []int, err error) {
	bm := &Matrix[T]{Rows: len(b), Cols: 1, Stride: max(1, len(b)), Data: b}
	return HPSV(ap, bm, opts...)
}
