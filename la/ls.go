package la

import "repro/internal/lapack"

// GELS solves over- or under-determined full-rank linear systems
// op(A)·X = B using a QR or LQ factorization (the paper's LA_GELS).
//
// A is m×n and is overwritten by its factorization. B must have
// max(m, n) rows: on entry its leading rows hold the right-hand sides; on
// exit its leading rows hold the solution (for the overdetermined case the
// remaining rows carry residual information). WithTrans selects op(A).
func GELS[T Scalar](a, b *Matrix[T], opts ...Opt) (err error) {
	const routine = "LA_GELS"
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	if err := lsArgs(routine, o.check, a, b); err != nil {
		return err
	}
	info := lapack.Gels(cfg, o.trans, a.Rows, a.Cols, b.Cols, a.Data, a.Stride, b.Data, b.Stride)
	return erinfo(routine, info, "the triangular factor is exactly singular: A does not have full rank")
}

// GELS1 is LA_GELS with a single right-hand-side vector, which must have
// length max(m, n).
func GELS1[T Scalar](a *Matrix[T], b []T, opts ...Opt) error {
	bm := &Matrix[T]{Rows: len(b), Cols: 1, Stride: max(1, len(b)), Data: b}
	return GELS(a, bm, opts...)
}

// GELSX computes the minimum-norm solution to a possibly rank-deficient
// least squares problem using a complete orthogonal factorization (the
// paper's LA_GELSX). It returns the effective rank determined against
// WithRCond (default: machine epsilon) and the column permutation jpvt.
// B must have max(m, n) rows and is overwritten with the solution.
func GELSX[T Scalar](a, b *Matrix[T], opts ...Opt) (rank int, jpvt []int, err error) {
	const routine = "LA_GELSX"
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	if err := lsArgs(routine, o.check, a, b); err != nil {
		return 0, nil, err
	}
	rcond := o.rcond
	if rcond < 0 {
		rcond = epsFor[T]()
	}
	jpvt = make([]int, a.Cols)
	rank = lapack.Gelsx(cfg, a.Rows, a.Cols, b.Cols, a.Data, a.Stride, jpvt, rcond, b.Data, b.Stride)
	return rank, jpvt, nil
}

// GELSS computes the minimum-norm solution to a possibly rank-deficient
// least squares problem using the singular value decomposition (the
// paper's LA_GELSS). It returns the effective rank and the singular
// values of A. B must have max(m, n) rows and is overwritten with the
// solution. It is GELSD under the paper's name.
func GELSS[T Scalar](a, b *Matrix[T], opts ...Opt) (rank int, s []float64, err error) {
	defer guard("LA_GELSS", &err)
	o := apply(opts)
	return gelsd("LA_GELSS", &o, a, b, nil)
}

// GELSD computes the minimum-norm solution to a possibly rank-deficient
// least squares problem using the divide-and-conquer SVD (the paper
// family's LA_GELSD). It returns the effective rank and the singular
// values of A. B must have max(m, n) rows and is overwritten with the
// solution. Tall problems take a blocked QR first. f77.GELSS runs the same
// body, lapack.Gelsd.
func GELSD[T Scalar](a, b *Matrix[T], opts ...Opt) (rank int, s []float64, err error) {
	defer guard("LA_GELSD", &err)
	o := apply(opts)
	return gelsd("LA_GELSD", &o, a, b, nil)
}

// gelsd is GELSD and GELSS, the paper's name for it, on applied options, into
// the singular values s (see alloc); BatchGelsd runs it per item.
func gelsd[T Scalar](routine string, o *options, a, b *Matrix[T], s []float64) (int, []float64, error) {
	if err := lsArgs(routine, o.check, a, b); err != nil {
		return 0, nil, err
	}
	s = alloc(s, min(a.Rows, a.Cols))
	rank, info := lapack.Gelsd(o.cfg, a.Rows, a.Cols, b.Cols, a.Data, a.Stride, b.Data, b.Stride, s, o.rcond)
	return rank, s, erdiag(routine, info, "the SVD failed to converge", DiagNotConverged)
}

// GGLSE solves the linear equality-constrained least squares problem
// minimize ‖c − A·x‖₂ subject to B·x = d (the paper's LA_GGLSE). A is
// m×n, B is p×n; c and d have lengths m and p. The solution x (length n)
// is returned.
func GGLSE[T Scalar](a, b *Matrix[T], c, d []T, opts ...Opt) (x []T, err error) {
	const routine = "LA_GGLSE"
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	if !stored(a) {
		return nil, erinfo(routine, -1, "")
	}
	if !stored(b) || b.Cols != a.Cols {
		return nil, erinfo(routine, -2, "")
	}
	if len(c) != a.Rows {
		return nil, erinfo(routine, -3, "")
	}
	if len(d) != b.Rows {
		return nil, erinfo(routine, -4, "")
	}
	m, n, p := a.Rows, a.Cols, b.Rows
	if p > n || n > m+p {
		return nil, erinfo(routine, -2, "")
	}
	if o.check {
		if err := firstErr(
			finiteMat(routine, 1, "A", a), finiteMat(routine, 2, "B", b),
			finiteSlice(routine, 3, "C", c), finiteSlice(routine, 4, "D", d),
		); err != nil {
			return nil, err
		}
	}
	x = make([]T, n)
	info := lapack.Gglse(cfg, m, n, p, a.Data, a.Stride, b.Data, b.Stride, c, d, x)
	return x, erinfo(routine, info, "the constraint matrix or the reduced system is rank deficient")
}

// GGGLM solves the general Gauss–Markov linear model problem
// minimize ‖y‖₂ subject to d = A·x + B·y (the paper's LA_GGGLM). A is
// n×m, B is n×p, d has length n; the solutions x (length m) and y
// (length p) are returned.
func GGGLM[T Scalar](a, b *Matrix[T], d []T, opts ...Opt) (x, y []T, err error) {
	const routine = "LA_GGGLM"
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	if !stored(a) {
		return nil, nil, erinfo(routine, -1, "")
	}
	if !stored(b) || b.Rows != a.Rows {
		return nil, nil, erinfo(routine, -2, "")
	}
	if len(d) != a.Rows {
		return nil, nil, erinfo(routine, -3, "")
	}
	n, m, p := a.Rows, a.Cols, b.Cols
	if m > n || n > m+p {
		return nil, nil, erinfo(routine, -1, "")
	}
	if o.check {
		if err := firstErr(
			finiteMat(routine, 1, "A", a), finiteMat(routine, 2, "B", b),
			finiteSlice(routine, 3, "D", d),
		); err != nil {
			return nil, nil, err
		}
	}
	x = make([]T, m)
	y = make([]T, p)
	info := lapack.Ggglm(cfg, n, m, p, a.Data, a.Stride, b.Data, b.Stride, d, x, y)
	return x, y, erinfo(routine, info, "the model matrices are rank deficient")
}
