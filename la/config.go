package la

// Per-call execution contexts.
//
// Every driver captures the process-wide default configuration exactly once,
// at its API boundary (see options.cfg), and threads the resulting immutable
// *core.Config explicitly through the lapack drivers into the blas engines.
// The options below refine that captured snapshot for a single call:
//
//	x, err := la.GESV(a, b, la.WithThreads(2))
//	x, err = la.GESV(a, b, la.WithContext(ctx)) // cancelable
//
// The worker budget is the one engine setting a caller reaches. Block sizes
// and crossovers — the packed engine's, and the factorizations' table of
// LAPACK's ILAENV (f77.ILAENV) — are the library's decision, as they are in
// LAPACK90. Concurrent calls with different per-call settings are fully
// isolated: a call keeps the configuration it captured even if the process
// default changes mid-flight.

import (
	"context"

	"repro/internal/core"
)

// WithThreads sets this call's Level-3 worker budget: 1 forces fully serial
// execution, higher values allow up to that many goroutines. Values below 1
// inherit the default; the floating-point result is bit-identical at any
// budget.
func WithThreads(n int) Opt {
	return func(o *options) {
		if n >= 1 {
			o.cfg = o.cfg.WithThreads(n)
		}
	}
}

// WithContext attaches ctx to this call for cooperative cancellation: the
// kernels poll it at macro-tile, panel and refinement-iteration boundaries,
// and once ctx is done the call unwinds — joining all of its worker
// goroutines on the way out — and returns a *Error with Info == InfoCanceled
// whose Unwrap chain reaches ctx.Err(), so both
// errors.Is(err, la.ErrCanceled) and errors.Is(err, context.Canceled) hold.
// Already-written portions of output arguments are unspecified after a
// canceled call.
func WithContext(ctx context.Context) Opt {
	return func(o *options) {
		o.cfg = o.cfg.With(func(c *core.Config) { c.Ctx = ctx })
	}
}
