package la

// The least squares driver on the SVD and the batched SVD-based drivers. All
// of them run the bidiagonal divide & conquer engine (lapack.Gesdd /
// lapack.Gelsd): the bidiagonal singular vectors are accumulated in float64
// and applied to the orthogonal bases with one GEMM per side, and tall
// problems take a blocked QR first at the m ≥ 5n/3 crossover. The QR-iteration
// routines (lapack.Gesvd / lapack.Gelss) are the route of the f77 layer and
// of GGSVD, and the reference the D&C agreement tests compare against.

import (
	"repro/internal/blas"
	"repro/internal/lapack"
)

// GELSD computes the minimum-norm solution to a possibly rank-deficient
// least squares problem using the divide-and-conquer SVD (the paper
// family's LA_GELSD). It returns the effective rank and the singular
// values of A. B must have max(m, n) rows and is overwritten with the
// solution.
func GELSD[T Scalar](a, b *Matrix[T], opts ...Opt) (rank int, s []float64, err error) {
	return gelsd("LA_GELSD", a, b, opts)
}

// gelsd is the body of GELSD and of GELSS, which is the paper's name for it.
func gelsd[T Scalar](routine string, a, b *Matrix[T], opts []Opt) (rank int, s []float64, err error) {
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	if a == nil {
		return 0, nil, erinfo(routine, -1, "")
	}
	if b == nil || b.Rows != max(a.Rows, a.Cols) {
		return 0, nil, erinfo(routine, -2, "")
	}
	if o.check {
		if err := firstErr(finiteMat(routine, 1, "A", a), finiteMat(routine, 2, "B", b)); err != nil {
			return 0, nil, err
		}
	}
	s = make([]float64, min(a.Rows, a.Cols))
	rank, info := lapack.Gelsd(cfg, a.Rows, a.Cols, b.Cols, a.Data, a.Stride, b.Data, b.Stride, s, o.rcond)
	return rank, s, erdiag(routine, info, "the SVD failed to converge", DiagNotConverged)
}

// BatchGesdd computes the singular value decomposition of every A[i] (the
// batched LA_GESVD on the divide-and-conquer engine). Each item performs
// exactly the work the single-call GESVD would, so results are bit-identical
// to a serial loop at any SetThreads value; the per-item drives recycle the
// pooled per-worker workspaces. res[i] carries problem i's factors, errs[i] its
// error; err reports batch-level misuse.
func BatchGesdd[T Scalar](as []*Matrix[T], opts ...Opt) (res []*SVDResult[T], errs []error, err error) {
	const routine = "LA_GESVD"
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	errs = make([]error, len(as))
	res = make([]*SVDResult[T], len(as))
	// One flat backing for all the singular value slices.
	total := 0
	for i, a := range as {
		if !matOK(a) {
			errs[i] = erinfo(routine, -1, "")
			continue
		}
		total += min(a.Rows, a.Cols)
	}
	flat := make([]float64, total)
	off := 0
	for i, a := range as {
		if errs[i] != nil {
			continue
		}
		mn := min(a.Rows, a.Cols)
		res[i] = &SVDResult[T]{S: flat[off : off+mn : off+mn]}
		off += mn
	}
	blas.BatchRange(cfg, len(as), func(i int) {
		if errs[i] != nil {
			return
		}
		a := as[i]
		if o.check {
			if e := finiteMat(routine, 1, "A", a); e != nil {
				errs[i] = e
				return
			}
		}
		errs[i] = erdiag(routine, res[i].gesdd(&o, a), "the SVD failed to converge", DiagNotConverged)
	}, func(i int, pe *blas.PanicError) {
		errs[i] = batchItemError(routine, pe)
	})
	return res, errs, nil
}

// BatchGelsd solves the least squares problems min ‖B[i] − A[i]·X[i]‖₂ for
// every i on the divide-and-conquer SVD (the batched LA_GELSD). Each B[i] is
// overwritten with its minimum-norm solution; ranks[i] and ss[i] hold the
// effective rank and singular values of problem i, the latter carved from
// one flat allocation. errs[i] is problem i's error; err reports
// batch-level misuse.
func BatchGelsd[T Scalar](as, bs []*Matrix[T], opts ...Opt) (ranks []int, ss [][]float64, errs []error, err error) {
	const routine = "LA_GELSD"
	defer guard(routine, &err)
	if len(as) != len(bs) {
		return nil, nil, nil, erinfo(routine, -2, "batch slice lengths differ")
	}
	o := apply(opts)
	cfg := o.cfg
	errs = make([]error, len(as))
	ranks = make([]int, len(as))
	ss = make([][]float64, len(as))
	total := 0
	for i, a := range as {
		if !matOK(a) {
			errs[i] = erinfo(routine, -1, "")
			continue
		}
		if b := bs[i]; !matOK(b) || b.Rows != max(a.Rows, a.Cols) {
			errs[i] = erinfo(routine, -2, "")
			continue
		}
		total += min(a.Rows, a.Cols)
	}
	flat := make([]float64, total)
	off := 0
	for i, a := range as {
		if errs[i] != nil {
			continue
		}
		mn := min(a.Rows, a.Cols)
		ss[i] = flat[off : off+mn : off+mn]
		off += mn
	}
	blas.BatchRange(cfg, len(as), func(i int) {
		if errs[i] != nil {
			return
		}
		a, b := as[i], bs[i]
		if o.check {
			if e := firstErr(finiteMat(routine, 1, "A", a), finiteMat(routine, 2, "B", b)); e != nil {
				errs[i] = e
				return
			}
		}
		var info int
		ranks[i], info = lapack.Gelsd(cfg, a.Rows, a.Cols, b.Cols, a.Data, a.Stride, b.Data, b.Stride, ss[i], o.rcond)
		errs[i] = erdiag(routine, info, "the SVD failed to converge", DiagNotConverged)
	}, func(i int, pe *blas.PanicError) {
		errs[i] = batchItemError(routine, pe)
	})
	return ranks, ss, errs, nil
}
