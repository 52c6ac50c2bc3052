package la

import (
	"repro/internal/lapack"
	"repro/internal/matgen"
)

// GETRF computes the LU factorization with partial pivoting of a general
// rectangular matrix A = Pᵀ·L·U (the paper's LA_GETRF). For square
// matrices it also estimates the reciprocal condition number in the norm
// selected by WithNorm ('1', default, or 'I'), the paper's optional RCOND
// and NORM arguments. A is overwritten with the packed factors.
func GETRF[T Scalar](a *Matrix[T], opts ...Opt) (ipiv []int, rcond float64, err error) {
	const routine = "LA_GETRF"
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	if err := generalArgs(routine, o.check, a); err != nil {
		return nil, 0, err
	}
	m, n := a.Rows, a.Cols
	var anorm float64
	norm := lapack.Norm(o.norm)
	if m == n {
		anorm = lapack.Lange(norm, m, n, a.Data, a.Stride)
	}
	ipiv = make([]int, min(m, n))
	info := lapack.Getrf(cfg, m, n, a.Data, a.Stride, ipiv)
	if m == n && info == 0 {
		rcond = lapack.Gecon(cfg, norm, n, a.Data, a.Stride, ipiv, anorm)
	}
	return ipiv, rcond, erinfo(routine, info, "U(i,i) is exactly zero: the factor U is singular")
}

// GETRS solves op(A)·X = B using the LU factorization from GETRF (the
// paper's LA_GETRS). WithTrans selects op(A).
func GETRS[T Scalar](a *Matrix[T], ipiv []int, b *Matrix[T], opts ...Opt) (err error) {
	const routine = "LA_GETRS"
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	if !stored(a) || a.Rows != a.Cols {
		return erinfo(routine, -1, "")
	}
	if len(ipiv) != a.Rows {
		return erinfo(routine, -2, "")
	}
	if !stored(b) || b.Rows != a.Rows {
		return erinfo(routine, -3, "")
	}
	if o.check {
		if err := firstErr(finiteMat(routine, 1, "A", a), finiteMat(routine, 3, "B", b)); err != nil {
			return err
		}
	}
	lapack.Getrs(cfg, o.trans, a.Rows, b.Cols, a.Data, a.Stride, ipiv, b.Data, b.Stride)
	return nil
}

// GETRI computes the inverse of a matrix from its LU factorization (the
// paper's LA_GETRI; its workspace query through ILAENV happens
// internally, as in the paper's Appendix C listing).
func GETRI[T Scalar](a *Matrix[T], ipiv []int, opts ...Opt) (err error) {
	const routine = "LA_GETRI"
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	n, err := squareArgs(routine, o.check, a)
	if err != nil {
		return err
	}
	if len(ipiv) != n {
		return erinfo(routine, -2, "")
	}
	nb := lapack.Ilaenv(cfg, 1, "GETRI", n, -1, -1, -1)
	lwork := max(workSize(routine, n, nb), 1)
	work := make([]T, lwork)
	info := lapack.Getri(cfg, n, a.Data, a.Stride, ipiv, work)
	return erinfo(routine, info, "U(i,i) is exactly zero: the matrix is singular")
}

// GERFS improves a computed solution X of op(A)·X = B by iterative
// refinement and returns forward and backward error bounds (the paper's
// LA_GERFS). a is the original matrix and af/ipiv its LU factorization.
func GERFS[T Scalar](a, af *Matrix[T], ipiv []int, b, x *Matrix[T], opts ...Opt) (ferr, berr []float64, err error) {
	const routine = "LA_GERFS"
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	if !stored(a) || a.Rows != a.Cols {
		return nil, nil, erinfo(routine, -1, "")
	}
	if !stored(af) || af.Rows != a.Rows || af.Cols != a.Rows {
		return nil, nil, erinfo(routine, -2, "")
	}
	if !stored(b) || b.Rows != a.Rows {
		return nil, nil, erinfo(routine, -4, "")
	}
	if !stored(x) {
		return nil, nil, erinfo(routine, -5, "")
	}
	if x.Rows != a.Rows || x.Cols != b.Cols {
		return nil, nil, erinfo(routine, -4, "B and X do not conform")
	}
	if o.check {
		if err := firstErr(finiteMat(routine, 1, "A", a), finiteMat(routine, 2, "AF", af),
			finiteMat(routine, 4, "B", b), finiteMat(routine, 5, "X", x)); err != nil {
			return nil, nil, err
		}
	}
	nrhs := b.Cols
	ferr = make([]float64, nrhs)
	berr = make([]float64, nrhs)
	lapack.Gerfs(cfg, o.trans, a.Rows, nrhs, a.Data, a.Stride, af.Data, af.Stride, ipiv, b.Data, b.Stride, x.Data, x.Stride, ferr, berr)
	return ferr, berr, nil
}

// GEEQU computes row and column scalings intended to equilibrate a
// rectangular matrix (the paper's LA_GEEQU).
func GEEQU[T Scalar](a *Matrix[T], opts ...Opt) (r, c []float64, rowcnd, colcnd, amax float64, err error) {
	const routine = "LA_GEEQU"
	defer guard(routine, &err)
	o := apply(opts)
	if err := generalArgs(routine, o.check, a); err != nil {
		return nil, nil, 0, 0, 0, err
	}
	r = make([]float64, a.Rows)
	c = make([]float64, a.Cols)
	rowcnd, colcnd, amax, info := lapack.Geequ(a.Rows, a.Cols, a.Data, a.Stride, r, c)
	return r, c, rowcnd, colcnd, amax, erinfo(routine, info, "the matrix has an exactly zero row or column")
}

// POTRF computes the Cholesky factorization of a symmetric/Hermitian
// positive definite matrix and optionally estimates its reciprocal
// condition number (the paper's LA_POTRF with the optional RCOND/NORM
// arguments, always computed here in the 1-norm).
func POTRF[T Scalar](a *Matrix[T], opts ...Opt) (rcond float64, err error) {
	const routine = "LA_POTRF"
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	n, err := squareArgs(routine, o.check, a)
	if err != nil {
		return 0, err
	}
	anorm := lapack.Lansy(lapack.OneNorm, o.uplo, n, a.Data, a.Stride)
	info := lapack.Potrf(cfg, o.uplo, n, a.Data, a.Stride)
	if info == 0 {
		rcond = lapack.Pocon(cfg, o.uplo, n, a.Data, a.Stride, anorm)
	}
	return rcond, erinfo(routine, info, "the matrix is not positive definite")
}

// SYTRD reduces a symmetric/Hermitian matrix to real symmetric
// tridiagonal form Qᴴ·A·Q = T (the paper's LA_SYTRD / LA_HETRD). The
// reflectors are returned in A and tau for use by ORGTR; d and e are the
// diagonal and off-diagonal of T.
func SYTRD[T Scalar](a *Matrix[T], opts ...Opt) (d, e []float64, tau []T, err error) {
	const routine = "LA_SYTRD"
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	n, err := squareArgs(routine, o.check, a)
	if err != nil {
		return nil, nil, nil, err
	}
	d = make([]float64, n)
	e = make([]float64, max(0, n-1))
	tau = make([]T, max(0, n-1))
	lapack.Sytrd(cfg, o.uplo, n, a.Data, a.Stride, d, e, tau)
	return d, e, tau, nil
}

// HETRD is the Hermitian name for SYTRD (the paper's LA_HETRD).
func HETRD[T Scalar](a *Matrix[T], opts ...Opt) (d, e []float64, tau []T, err error) {
	return SYTRD(a, opts...)
}

// ORGTR generates the unitary matrix Q from the reduction computed by
// SYTRD (the paper's LA_ORGTR / LA_UNGTR), overwriting A.
func ORGTR[T Scalar](a *Matrix[T], tau []T, opts ...Opt) (err error) {
	const routine = "LA_ORGTR"
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	if !stored(a) || a.Rows != a.Cols {
		return erinfo(routine, -1, "")
	}
	if len(tau) != max(0, a.Rows-1) {
		return erinfo(routine, -2, "")
	}
	if o.check {
		if err := firstErr(finiteMat(routine, 1, "A", a), finiteSlice(routine, 2, "TAU", tau)); err != nil {
			return err
		}
	}
	lapack.Orgtr(cfg, o.uplo, a.Rows, a.Data, a.Stride, tau)
	return nil
}

// UNGTR is the unitary name for ORGTR (the paper's LA_UNGTR).
func UNGTR[T Scalar](a *Matrix[T], tau []T, opts ...Opt) error {
	return ORGTR(a, tau, opts...)
}

// SYGST reduces a symmetric/Hermitian-definite generalized eigenproblem
// to standard form (the paper's LA_SYGST / LA_HEGST). b must hold the
// Cholesky factor of B from POTRF; WithIType selects the problem type.
func SYGST[T Scalar](a, b *Matrix[T], opts ...Opt) (err error) {
	const routine = "LA_SYGST"
	defer guard(routine, &err)
	o := apply(opts)
	n, err := squareArgs(routine, o.check, a, b)
	if err != nil {
		return err
	}
	lapack.Sygst(o.itype, o.uplo, n, a.Data, a.Stride, b.Data, b.Stride)
	return nil
}

// HEGST is the Hermitian name for SYGST (the paper's LA_HEGST).
func HEGST[T Scalar](a, b *Matrix[T], opts ...Opt) error {
	return SYGST(a, b, opts...)
}

// LANGE returns the value of the norm selected by WithNorm — one norm
// ('1', default), infinity norm ('I'), Frobenius norm ('F'), or largest
// absolute value ('M') — of a general rectangular matrix (the paper's
// LA_LANGE).
func LANGE[T Scalar](a *Matrix[T], opts ...Opt) (v float64, err error) {
	const routine = "LA_LANGE"
	defer guard(routine, &err)
	o := apply(opts)
	if err := generalArgs(routine, o.check, a); err != nil {
		return 0, err
	}
	norm := lapack.Norm(o.norm)
	if !norm.Valid() {
		return 0, erinfo(routine, -2, "")
	}
	return lapack.Lange(norm, a.Rows, a.Cols, a.Data, a.Stride), nil
}

// LAGGE generates a random general rectangular matrix A = U·D·V by pre-
// and post-multiplying a diagonal matrix D with random unitary matrices
// (the paper's LA_LAGGE). d supplies the singular values; WithKL/WithKU
// restrict the bandwidth and WithSeed fixes the random stream (the
// paper's ISEED).
func LAGGE[T Scalar](a *Matrix[T], d []float64, opts ...Opt) (err error) {
	const routine = "LA_LAGGE"
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	if !stored(a) {
		return erinfo(routine, -1, "")
	}
	if len(d) < min(a.Rows, a.Cols) {
		return erinfo(routine, -4, "")
	}
	// A is output only: its entries are not looked at, nor screened.
	if o.check {
		if err := finiteFloats(routine, 4, "D", d[:min(a.Rows, a.Cols)]); err != nil {
			return err
		}
	}
	kl := a.Rows - 1
	if o.haveKL {
		kl = o.kl
	}
	ku := a.Cols - 1
	if o.ku > 0 {
		ku = o.ku
	}
	seed := [4]int{1988, 1989, 1990, 1991}
	if o.haveSeed {
		seed = o.iseed
	}
	rng := lapack.NewRng(seed)
	matgen.Lagge(cfg, rng, a.Rows, a.Cols, kl, ku, d, a.Data, a.Stride)
	return nil
}
