package la

import "repro/internal/blas"

// Batched drivers. A batched workload — thousands of small independent
// problems — inverts the economics the rest of the interface layer is tuned
// for: per-call costs (option parsing, the threaded engine's hand-off) that
// are noise against one large factorization dominate when the factorization
// itself is a few microseconds. Every Batch driver is one call of batch,
// which applies the options once and runs, for each problem, the body its
// single-call driver runs (gesv, posv, syev, gesvx, posvx, gesdd, gelsd)
// under blas.BatchRange:
//
//   - one problem per task across the deterministic worker pool, so the
//     batch scales with cores while each problem runs the serial
//     small-matrix fast path; the item→worker assignment depends only on the
//     batch length and the worker budget;
//   - a problem's argument checks, input screening and error mapping are its
//     body's, so errs[i] is the error the single call returns for it and a
//     batch is bit-identical to a serial loop of single calls at any
//     SetThreads value — it runs the same code;
//   - a fault while solving problem i (a kernel panic, an injected worker
//     fault) becomes errs[i] through recoveredError, as the single call's
//     guard would report it, and every other problem still completes;
//   - the pivots, eigenvalues and singular values are carved from one flat
//     backing per batch (carve), so a problem allocates no more than its
//     single call would and the small-matrix path nothing at all.
//
// Error reporting is two-level: errs (always of the batch's length) holds
// the per-problem outcomes, nil for success; err reports batch-level misuse
// (mismatched slice lengths) that keeps any problem from running.

// batch runs body(o, i) — problem i of a Batch driver on the applied options
// — for the n problems under blas.BatchRange. sameLen says that the driver's
// other slice arguments have length n.
func batch(routine string, opts []Opt, n int, sameLen bool, body func(o *options, i int) error) (errs []error, err error) {
	defer guard(routine, &err)
	if !sameLen {
		return nil, erinfo(routine, -2, "batch slice lengths differ")
	}
	o := apply(opts)
	errs = make([]error, n)
	blas.BatchRange(o.cfg, n, func(i int) {
		errs[i] = body(&o, i)
	}, func(i int, pe *blas.PanicError) {
		errs[i] = recoveredError(routine, pe)
	})
	return errs, nil
}

// carve cuts one flat backing into a slice per problem: min(Rows, Cols)
// elements — the pivots, eigenvalues or singular values — for a well-formed
// as[i], nil for a malformed one, which its body rejects.
func carve[E any, T Scalar](as []*Matrix[T]) [][]E {
	backs, total := make([][]E, len(as)), 0
	for _, a := range as {
		if stored(a) {
			total += min(a.Rows, a.Cols)
		}
	}
	flat := make([]E, total)
	for i, a := range as {
		if stored(a) {
			k := min(a.Rows, a.Cols)
			backs[i], flat = flat[:k:k], flat[k:]
		}
	}
	return backs
}

// alloc is the other side of carve: back, the slice a Batch driver carved for
// the problem, or n new elements in a single call.
func alloc[E any](back []E, n int) []E {
	if back == nil {
		return make([]E, n)
	}
	return back
}

// BatchGesv solves the general linear systems A[i]·X[i] = B[i] for every i
// (the batched LA_GESV). Each A[i] is overwritten with its L·U factors and
// each B[i] with its solution, exactly as GESV would; ipivs[i] holds the
// 0-based pivot indices of problem i, all carved from one flat allocation.
// errs[i] is problem i's GESV error (nil on success); err reports only
// batch-level misuse. Problems need not share a size.
func BatchGesv[T Scalar](as, bs []*Matrix[T], opts ...Opt) (ipivs [][]int, errs []error, err error) {
	ipivs = carve[int](as)
	errs, err = batch("LA_GESV", opts, len(as), len(bs) == len(as), func(o *options, i int) (err error) {
		ipivs[i], err = gesv("LA_GESV", o, as[i], bs[i], ipivs[i])
		return err
	})
	return ipivs, errs, err
}

// BatchPosv solves the symmetric/Hermitian positive definite systems
// A[i]·X[i] = B[i] for every i (the batched LA_POSV). The WithUpLo triangle
// of each A[i] is overwritten with its Cholesky factor and each B[i] with
// its solution. errs[i] is problem i's POSV error; err reports batch-level
// misuse.
func BatchPosv[T Scalar](as, bs []*Matrix[T], opts ...Opt) (errs []error, err error) {
	return batch("LA_POSV", opts, len(as), len(bs) == len(as), func(o *options, i int) error {
		return posv("LA_POSV", o, as[i], bs[i])
	})
}

// BatchSyev computes all eigenvalues — and, with WithVectors, the
// eigenvectors — of every symmetric/Hermitian A[i] (the batched LA_SYEV).
// ws[i] holds problem i's ascending eigenvalues, all carved from one flat
// allocation; with WithVectors each A[i] is overwritten by its
// eigenvectors. errs[i] is problem i's SYEV error; err reports batch-level
// misuse.
func BatchSyev[T Scalar](as []*Matrix[T], opts ...Opt) (ws [][]float64, errs []error, err error) {
	ws = carve[float64](as)
	errs, err = batch("LA_SYEV", opts, len(as), true, func(o *options, i int) (err error) {
		ws[i], err = syev("LA_SYEV", o, as[i], ws[i])
		return err
	})
	return ws, errs, err
}

// BatchGemm computes C[i] = alpha·op(A[i])·op(B[i]) + beta·C[i] for every i
// — the batched general matrix product, with op(A) selected by WithTrans
// and op(B) by WithTransB. Dimensions are inferred per problem and need not
// match across the batch; products under the pack-free crossover run the
// small-matrix kernels with no allocation at all. errs[i] reports a
// non-conforming problem; err reports batch-level misuse. The product has
// no single-call driver, so its body is here.
func BatchGemm[T Scalar](alpha T, as, bs []*Matrix[T], beta T, cs []*Matrix[T], opts ...Opt) (errs []error, err error) {
	const routine = "LA_GEMM"
	return batch(routine, opts, len(as), len(bs) == len(as) && len(cs) == len(as), func(o *options, i int) error {
		a, b, c := as[i], bs[i], cs[i]
		switch {
		case !stored(a):
			return erinfo(routine, -2, "")
		case !stored(b):
			return erinfo(routine, -3, "")
		case !stored(c):
			return erinfo(routine, -5, "")
		}
		m, k := a.Rows, a.Cols
		if o.trans != None {
			m, k = k, m
		}
		kb, n := b.Rows, b.Cols
		if o.transB != None {
			kb, n = n, kb
		}
		if k != kb {
			return erinfo(routine, -3, "inner dimensions differ")
		}
		if c.Rows != m || c.Cols != n {
			return erinfo(routine, -5, "result shape does not conform")
		}
		if o.check {
			if err := firstErr(finiteMat(routine, 2, "A", a), finiteMat(routine, 3, "B", b), finiteMat(routine, 5, "C", c)); err != nil {
				return err
			}
		}
		blas.Gemm(o.cfg, o.trans, o.transB, m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
		return nil
	})
}

// BatchGesvx solves the general systems A[i]·X[i] = B[i] through the expert
// pipeline — equilibration, factorization, condition estimation, iterative
// refinement, error bounds — for every i (the batched LA_GESVX). Options
// apply to every item: WithTrans selects op(A), WithEquilibration enables
// FACT = 'E' (A[i] and B[i] are then overwritten by the scaling, exactly as
// GESVX documents). results[i] is problem i's ExpertResult — non-nil even
// when errs[i] reports a numerical failure, as from GESVX, and nil only when
// its arguments were malformed; errs[i] is its GESVX error.
func BatchGesvx[T Scalar](as, bs []*Matrix[T], opts ...Opt) (results []*ExpertResult[T], errs []error, err error) {
	results = make([]*ExpertResult[T], len(as))
	errs, err = batch("LA_GESVX", opts, len(as), len(bs) == len(as), func(o *options, i int) (err error) {
		results[i], err = gesvx("LA_GESVX", o, as[i], bs[i])
		return err
	})
	return results, errs, err
}

// BatchPosvx solves the symmetric/Hermitian positive definite systems
// A[i]·X[i] = B[i] through the expert pipeline for every i (the batched
// LA_POSVX), with the results and errors of BatchGesvx. The WithUpLo
// triangle of each A[i] is referenced; WithEquilibration enables the
// diagonal scaling.
func BatchPosvx[T Scalar](as, bs []*Matrix[T], opts ...Opt) (results []*ExpertResult[T], errs []error, err error) {
	results = make([]*ExpertResult[T], len(as))
	errs, err = batch("LA_POSVX", opts, len(as), len(bs) == len(as), func(o *options, i int) (err error) {
		results[i], err = posvx("LA_POSVX", o, as[i], bs[i])
		return err
	})
	return results, errs, err
}

// BatchGesdd computes the singular value decomposition of every A[i] (the
// batched LA_GESVD on the divide-and-conquer engine); the per-item drives
// recycle the pooled per-worker workspaces. res[i] carries problem i's
// factors, its singular values carved from one flat allocation; errs[i] is
// its GESVD error; err reports batch-level misuse.
func BatchGesdd[T Scalar](as []*Matrix[T], opts ...Opt) (res []*SVDResult[T], errs []error, err error) {
	res, ss := make([]*SVDResult[T], len(as)), carve[float64](as)
	errs, err = batch("LA_GESVD", opts, len(as), true, func(o *options, i int) (err error) {
		res[i], err = gesdd("LA_GESVD", o, as[i], ss[i])
		return err
	})
	return res, errs, err
}

// BatchGelsd solves the least squares problems min ‖B[i] − A[i]·X[i]‖₂ for
// every i on the divide-and-conquer SVD (the batched LA_GELSD). Each B[i] is
// overwritten with its minimum-norm solution; ranks[i] and ss[i] hold the
// effective rank and singular values of problem i, the latter carved from
// one flat allocation. errs[i] is problem i's GELSD error; err reports
// batch-level misuse.
func BatchGelsd[T Scalar](as, bs []*Matrix[T], opts ...Opt) (ranks []int, ss [][]float64, errs []error, err error) {
	ranks, ss = make([]int, len(as)), carve[float64](as)
	errs, err = batch("LA_GELSD", opts, len(as), len(bs) == len(as), func(o *options, i int) (err error) {
		ranks[i], ss[i], err = gelsd("LA_GELSD", o, as[i], bs[i], ss[i])
		return err
	})
	return ranks, ss, errs, err
}
