package la

import (
	"repro/internal/blas"
	"repro/internal/lapack"
)

// Batched drivers. A batched workload — thousands of small independent
// systems — inverts the economics the rest of the interface layer is tuned
// for: per-call costs (option parsing, workspace allocation, the threaded
// engine's hand-off) that are noise against one large factorization
// dominate when the factorization itself is a few microseconds. The Batch
// drivers take whole slices of problems and
//
//   - schedule one problem per task across the deterministic worker pool
//     (blas.BatchRange), so the batch scales with cores while each problem
//     runs the serial small-matrix fast path;
//   - allocate every returned array out of one flat backing per batch, so
//     the steady-state cost of an item is the solve itself — no per-item
//     garbage;
//   - contain faults per item: a panic while solving problem i (a corrupted
//     matrix, an injected worker fault) becomes errs[i] with the
//     out-of-band InfoPanic code, and every other item still completes.
//
// The item→worker assignment depends only on the batch length and the
// worker budget, and each item performs exactly the work the corresponding
// single-call driver would; results are bit-identical to a serial loop over
// the single-call drivers at any SetThreads value.
//
// Error reporting is two-level: the errs slice (always of the batch's
// length) holds the per-problem outcomes, nil for success; the final error
// reports batch-level misuse (mismatched slice lengths) that prevents the
// batch from running at all.

// batchItemError converts a fault captured while running one batch item
// into that item's ERINFO error: an *Error panic (argument checking,
// allocation sizing) passes through as the item's own error, anything else
// is reported as a contained fault with the worker's stack.
func batchItemError(routine string, pe *blas.PanicError) *Error {
	if e, ok := pe.Value.(*Error); ok {
		return e
	}
	return recoveredError(routine, pe)
}

// matOK reports whether m is a structurally valid matrix with consistent
// backing storage.
func matOK[T Scalar](m *Matrix[T]) bool {
	return m != nil && m.Rows >= 0 && m.Cols >= 0 && m.Stride >= max(1, m.Rows) &&
		(m.Cols == 0 || len(m.Data) >= (m.Cols-1)*m.Stride+m.Rows)
}

// BatchGesv solves the general linear systems A[i]·X[i] = B[i] for every i
// (the batched LA_GESV). Each A[i] is overwritten with its L·U factors and
// each B[i] with its solution, exactly as GESV would; ipivs[i] holds the
// 0-based pivot indices of problem i, all carved from one flat allocation.
// errs[i] is problem i's GESV error (nil on success); err reports only
// batch-level misuse. Problems need not share a size.
func BatchGesv[T Scalar](as, bs []*Matrix[T], opts ...Opt) (ipivs [][]int, errs []error, err error) {
	const routine = "LA_GESV"
	defer guard(routine, &err)
	if len(as) != len(bs) {
		return nil, nil, erinfo(routine, -2, "batch slice lengths differ")
	}
	o := apply(opts)
	cfg := o.cfg
	errs = make([]error, len(as))
	ipivs = make([][]int, len(as))
	// One flat pivot backing for the whole batch; invalid items get an
	// empty slice and carry their argument error instead.
	total := 0
	for i, a := range as {
		if !square(a) {
			errs[i] = erinfo(routine, -1, "")
			continue
		}
		if !rhsMatch(a.Rows, bs[i]) {
			errs[i] = erinfo(routine, -2, "")
			continue
		}
		total += a.Rows
	}
	flat := make([]int, total)
	off := 0
	for i, a := range as {
		if errs[i] != nil {
			continue
		}
		ipivs[i] = flat[off : off+a.Rows : off+a.Rows]
		off += a.Rows
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
		info := lapack.Gesv(cfg, a.Rows, b.Cols, a.Data, a.Stride, ipivs[i], b.Data, b.Stride)
		errs[i] = erdiag(routine, info, "matrix is exactly singular", DiagSingular)
	}, func(i int, pe *blas.PanicError) {
		errs[i] = batchItemError(routine, pe)
	})
	return ipivs, errs, nil
}

// BatchPosv solves the symmetric/Hermitian positive definite systems
// A[i]·X[i] = B[i] for every i (the batched LA_POSV). The WithUpLo triangle
// of each A[i] is overwritten with its Cholesky factor and each B[i] with
// its solution. errs[i] is problem i's POSV error; err reports batch-level
// misuse.
func BatchPosv[T Scalar](as, bs []*Matrix[T], opts ...Opt) (errs []error, err error) {
	const routine = "LA_POSV"
	defer guard(routine, &err)
	if len(as) != len(bs) {
		return nil, erinfo(routine, -2, "batch slice lengths differ")
	}
	o := apply(opts)
	cfg := o.cfg
	errs = make([]error, len(as))
	blas.BatchRange(cfg, len(as), func(i int) {
		a, b := as[i], bs[i]
		if !square(a) {
			errs[i] = erinfo(routine, -1, "")
			return
		}
		if !rhsMatch(a.Rows, b) {
			errs[i] = erinfo(routine, -2, "")
			return
		}
		if o.check {
			if e := firstErr(finiteMat(routine, 1, "A", a), finiteMat(routine, 2, "B", b)); e != nil {
				errs[i] = e
				return
			}
		}
		info := lapack.Posv(cfg, o.uplo, a.Rows, b.Cols, a.Data, a.Stride, b.Data, b.Stride)
		errs[i] = erdiag(routine, info, "matrix is not positive definite", DiagNotPositiveDefinite)
	}, func(i int, pe *blas.PanicError) {
		errs[i] = batchItemError(routine, pe)
	})
	return errs, nil
}

// BatchSyev computes all eigenvalues — and, with WithVectors, the
// eigenvectors — of every symmetric/Hermitian A[i] (the batched LA_SYEV).
// ws[i] holds problem i's ascending eigenvalues, all carved from one flat
// allocation; with WithVectors each A[i] is overwritten by its
// eigenvectors. errs[i] is problem i's SYEV error; err reports batch-level
// misuse.
func BatchSyev[T Scalar](as []*Matrix[T], opts ...Opt) (ws [][]float64, errs []error, err error) {
	const routine = "LA_SYEV"
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	errs = make([]error, len(as))
	ws = make([][]float64, len(as))
	total := 0
	for i, a := range as {
		if !square(a) {
			errs[i] = erinfo(routine, -1, "")
			continue
		}
		total += a.Rows
	}
	flat := make([]float64, total)
	off := 0
	for i, a := range as {
		if errs[i] != nil {
			continue
		}
		ws[i] = flat[off : off+a.Rows : off+a.Rows]
		off += a.Rows
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
		info := lapack.Syev[T](cfg, o.vectors, o.uplo, a.Rows, a.Data, a.Stride, ws[i])
		errs[i] = erdiag(routine, info, eigFailed, DiagNotConverged)
	}, func(i int, pe *blas.PanicError) {
		errs[i] = batchItemError(routine, pe)
	})
	return ws, errs, nil
}

// BatchGemm computes C[i] = alpha·op(A[i])·op(B[i]) + beta·C[i] for every i
// — the batched general matrix product, with op(A) selected by WithTrans
// and op(B) by WithTransB. Dimensions are inferred per problem and need not
// match across the batch; products under the pack-free crossover run the
// small-matrix kernels with no allocation at all. errs[i] reports a
// non-conforming problem; err reports batch-level misuse.
func BatchGemm[T Scalar](alpha T, as, bs []*Matrix[T], beta T, cs []*Matrix[T], opts ...Opt) (errs []error, err error) {
	const routine = "LA_GEMM"
	defer guard(routine, &err)
	if len(as) != len(bs) || len(as) != len(cs) {
		return nil, erinfo(routine, -2, "batch slice lengths differ")
	}
	o := apply(opts)
	cfg := o.cfg
	errs = make([]error, len(as))
	blas.BatchRange(cfg, len(as), func(i int) {
		a, b, c := as[i], bs[i], cs[i]
		if !matOK(a) {
			errs[i] = erinfo(routine, -2, "")
			return
		}
		if !matOK(b) {
			errs[i] = erinfo(routine, -3, "")
			return
		}
		if !matOK(c) {
			errs[i] = erinfo(routine, -5, "")
			return
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
			errs[i] = erinfo(routine, -3, "inner dimensions differ")
			return
		}
		if c.Rows != m || c.Cols != n {
			errs[i] = erinfo(routine, -5, "result shape does not conform")
			return
		}
		if o.check {
			if e := firstErr(
				finiteMat(routine, 2, "A", a),
				finiteMat(routine, 3, "B", b),
				finiteMat(routine, 5, "C", c),
			); e != nil {
				errs[i] = e
				return
			}
		}
		blas.Gemm(cfg, o.trans, o.transB, m, n, k, alpha,
			a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
	}, func(i int, pe *blas.PanicError) {
		errs[i] = batchItemError(routine, pe)
	})
	return errs, nil
}
