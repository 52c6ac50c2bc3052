package la

// Per-call execution contexts.
//
// Every driver captures the process-wide default configuration exactly once,
// at its API boundary (see options.cfg), and threads the resulting immutable
// *core.Config explicitly through the lapack drivers into the blas engines.
// The options below refine that captured snapshot for a single call:
//
//	x, err := la.GESV(a, b, la.WithThreads(2))
//	cfg := la.DefaultConfig()
//	cfg.GemmMC, cfg.GemmKC = 128, 128
//	x, err = la.GESV(a, b, la.WithConfig(cfg))
//	x, err = la.GESV(a, b, la.WithContext(ctx)) // cancelable
//
// Concurrent calls with different per-call settings are fully isolated: a
// call keeps the configuration it captured even if the process default
// changes mid-flight.

import (
	"context"

	"repro/internal/core"
)

// Config is the public per-call tuning surface: the integer knobs of the
// execution context, in the units of the corresponding LA90_* environment
// variables. The README's "Configuration" table lists every field with its
// range, default and effect (a test keeps it equal to the table that bounds
// and parses them). The zero value of every field means "inherit the
// process-wide default", so callers set only the knobs they care about:
//
//	la.WithConfig(la.Config{Threads: 1, GemmKC: 128})
//
// GemmSmallDim is the one knob whose useful values include zero (disable
// the pack-free path); pass a negative value to disable it explicitly.
// Input screening, the one boolean policy, has its own option: WithCheck.
// Block sizes of the factorizations are not knobs: they are the constant
// table of LAPACK's ILAENV (f77.ILAENV).
type Config = core.Tuning

// DefaultConfig returns a snapshot of the process-wide default tuning
// configuration, ready to be edited and passed to WithConfig. The snapshot
// reflects the built-in defaults and the LA90_* environment variables parsed
// at startup.
func DefaultConfig() Config { return core.Default().Tuning }

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

// WithConfig overlays every non-zero field of cfg onto this call's execution
// context (see Config for the inherit/disable conventions). The overlay is
// captured at the API boundary: later default-store changes never affect the
// call.
func WithConfig(cfg Config) Opt {
	return func(o *options) {
		o.cfg = o.cfg.With(func(c *core.Config) { c.Overlay(&cfg) })
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
