package la

import "repro/internal/blas"

// Batched expert drivers: the LA_GESVX/LA_POSVX pipeline — equilibration,
// factorization, condition estimation, iterative refinement, error bounds —
// over a whole slice of independent problems. Scheduling follows the other
// Batch drivers (blas.BatchRange over the deterministic worker pool, one
// problem per task, per-item fault containment), and each item performs
// exactly the operations of the corresponding single-call expert driver, so
// every rcond/ferr/berr — and the solution bits themselves — is identical
// to a serial loop of GESVX/POSVX calls at any SetThreads value.
//
// results[i] is problem i's ExpertResult (non-nil even when errs[i] reports
// a numerical failure, matching the single-call driver: the bounds are
// still delivered so the caller can inspect how bad the system is);
// results[i] is nil only when the item's arguments were malformed. errs[i]
// is problem i's GESVX/POSVX error; err reports batch-level misuse.

// BatchGesvx solves the general systems A[i]·X[i] = B[i] through the expert
// pipeline for every i (the batched LA_GESVX). Options apply to every item:
// WithTrans selects op(A), WithEquilibration enables FACT = 'E' (A[i] and
// B[i] are then overwritten by the scaling, exactly as GESVX documents).
func BatchGesvx[T Scalar](as, bs []*Matrix[T], opts ...Opt) (results []*ExpertResult[T], errs []error, err error) {
	return batchExpert("LA_GESVX", gesvx[T], as, bs, opts)
}

// BatchPosvx solves the symmetric/Hermitian positive definite systems
// A[i]·X[i] = B[i] through the expert pipeline for every i (the batched
// LA_POSVX). The WithUpLo triangle of each A[i] is referenced;
// WithEquilibration enables the diagonal scaling.
func BatchPosvx[T Scalar](as, bs []*Matrix[T], opts ...Opt) (results []*ExpertResult[T], errs []error, err error) {
	return batchExpert("LA_POSVX", posvx[T], as, bs, opts)
}

// batchExpert runs item — the single-call driver on applied options — over
// the batch.
func batchExpert[T Scalar](routine string, item func(string, *options, *Matrix[T], *Matrix[T]) (*ExpertResult[T], error), as, bs []*Matrix[T], opts []Opt) (results []*ExpertResult[T], errs []error, err error) {
	defer guard(routine, &err)
	if len(as) != len(bs) {
		return nil, nil, erinfo(routine, -2, "batch slice lengths differ")
	}
	o := apply(opts)
	results = make([]*ExpertResult[T], len(as))
	errs = make([]error, len(as))
	blas.BatchRange(o.cfg, len(as), func(i int) {
		results[i], errs[i] = item(routine, &o, as[i], bs[i])
	}, func(i int, pe *blas.PanicError) {
		errs[i] = batchItemError(routine, pe)
	})
	return results, errs, nil
}
