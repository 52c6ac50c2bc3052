package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Config is the per-call execution context of the whole numerical stack: one
// immutable value carrying what a caller sets — the worker budget, the
// input-screening policy and an optional context.Context for cooperative
// cancellation. Block sizes and crossovers are blas constants (tuning.go).
//
// A Config is captured exactly once, at the la API boundary (from the
// process-wide default refined by per-call options), and then passed
// explicitly down through every lapack driver into the blas engines. Nothing
// below the boundary re-reads ambient state mid-kernel, so two concurrent
// calls with different Configs — different thread budgets, screening
// policies — never observe each other.
//
// Configs are immutable by convention: once a *Config has been handed to a
// driver it must never be written again. Derive variants with With, which
// copies, mutates and re-clamps.
type Config struct {
	// Threads is the maximum number of goroutines the Level-3 engines may
	// use for this call. 1 forces fully serial execution. The floating-point
	// schedule never depends on it: results are bit-identical at any budget.
	// It is the one engine setting a caller reaches (la.WithThreads,
	// LA90_NUM_THREADS, blas.SetThreads).
	Threads int

	// CheckInputs screens matrix arguments for non-finite values at the la
	// boundary before any computation.
	CheckInputs bool

	// Ctx, when non-nil, enables cooperative cancellation: kernels poll it
	// at macro-tile, panel and refinement-iteration boundaries and unwind
	// with a *CancelError once it is done. A nil Ctx makes Checkpoint free.
	Ctx context.Context
}

// MaxThreads bounds the worker budget; far above useful oversubscription, it
// only keeps a mistyped LA90_NUM_THREADS from provisioning absurd goroutine
// counts.
const MaxThreads = 1024

// Knob is one row of the configuration table: a setting a caller can reach,
// with its name, its environment variable and what it does. A test keeps the
// README "Configuration" table equal to Knobs, and make lint-knobs holds
// every LA90_* name in the sources to its Env column.
type Knob struct {
	Name string // README row
	Env  string // LA90_* variable read once at startup
	Doc  string
}

// Knobs is the complete list of settings: the worker budget, the screening
// policy (per call: la.WithCheck) and the switch read once at package
// initialisation by blas.
var Knobs = []Knob{
	{Name: "threads", Env: "LA90_NUM_THREADS",
		Doc: "worker budget of the Level-3 engines; 1 is fully serial; results are bit-identical at any value"},
	{Name: "check", Env: "LA90_CHECK_INPUTS",
		Doc: "screen matrix arguments for NaN/Inf at the la boundary (per call: la.WithCheck)"},
	{Name: "noasm", Env: "LA90_NO_ASM",
		Doc: "run the portable Go kernels instead of the AVX-512/AVX2 assembly; read by blas at startup only"},
}

// baseConfig returns the default before environment overrides: a thread
// budget of GOMAXPROCS, no screening, no context.
func baseConfig() Config { return Config{Threads: runtime.GOMAXPROCS(0)} }

// FromEnv applies the environment rows of Knobs that land in a Config to
// base and returns the result. Together with EnvFlag — which blas calls at
// initialisation for the startup-only LA90_NO_ASM row — this is the one
// place the environment is parsed: the worker budget by the EnvInt hardening
// policy (garbage ignored, out of range clamped), the screening switch by
// EnvFlag's.
func FromEnv(base Config) Config {
	base.Threads = EnvInt("LA90_NUM_THREADS", base.Threads, 1, MaxThreads)
	if EnvFlag("LA90_CHECK_INPUTS") {
		base.CheckInputs = true
	}
	base.clamp()
	return base
}

// clamp forces the worker budget, the one setting that arrives from outside,
// into [1, MaxThreads], however the Config was built.
func (c *Config) clamp() {
	c.Threads = ClampInt(c.Threads, 1, MaxThreads)
}

// defaultConfig is the process-wide default-config store. Readers load the
// pointer atomically and never write through it; writers (UpdateDefault,
// behind blas.SetThreads — the one runtime setter — and tests) serialize on
// defaultMu and swap in a fresh copy, so an update is race-free against
// running kernels: an in-flight call keeps the snapshot it captured at its
// API boundary, and the next call sees the update.
var (
	defaultConfig atomic.Pointer[Config]
	defaultMu     sync.Mutex
)

func init() {
	c := FromEnv(baseConfig())
	defaultConfig.Store(&c)
}

// Default returns the current process-wide default configuration. The
// returned Config must be treated as immutable; derive variants with With.
func Default() *Config {
	return defaultConfig.Load()
}

// UpdateDefault atomically replaces the process-wide default with
// mutate(current) (re-clamped), returning the configuration that was in
// effect before. It is the single write path to the default store and is
// safe to call concurrently with running kernels and with other updates.
func UpdateDefault(mutate func(*Config)) *Config {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	old := defaultConfig.Load()
	next := *old
	mutate(&next)
	next.clamp()
	defaultConfig.Store(&next)
	return old
}

// ResetDefault replaces the process-wide default outright (re-clamped),
// returning the previous value. Tests use it to restore a saved snapshot.
func ResetDefault(c Config) *Config {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	old := defaultConfig.Load()
	c.clamp()
	defaultConfig.Store(&c)
	return old
}

// With returns a copy of c with mutate applied and the worker budget
// re-clamped — the derivation step the la boundary uses to fold per-call
// options into the captured default. c itself is never modified.
func (c *Config) With(mutate func(*Config)) *Config {
	next := *c
	mutate(&next)
	next.clamp()
	return &next
}

// threadsMemo is the last Config WithThreads derived from a default snapshot.
// It holds the snapshot it was derived from and matches on its address, so
// replacing the default invalidates the memo by itself: no later default can
// have the address of one the memo keeps alive.
var threadsMemo atomic.Pointer[threadsDerived]

type threadsDerived struct {
	base *Config
	n    int
	cfg  *Config
}

// WithThreads returns c with a worker budget of n: With on that one field,
// except that the result for the process default is kept, so a loop of calls
// that all pass the same la.WithThreads — thousands per pass of a
// small-system workload — derives its Config once, not once per call.
func (c *Config) WithThreads(n int) *Config {
	if m := threadsMemo.Load(); m != nil && m.base == c && m.n == n {
		return m.cfg
	}
	next := c.With(func(c *Config) { c.Threads = n })
	if c == defaultConfig.Load() {
		threadsMemo.Store(&threadsDerived{base: c, n: n, cfg: next})
	}
	return next
}

// Cfg normalizes an execution context: nil means "the process default".
// Entry points that accept a caller-provided *Config call this once so a
// zero-value caller still gets a fully populated configuration.
func Cfg(c *Config) *Config {
	if c == nil {
		return Default()
	}
	return c
}

// CancelError is the panic value raised by Checkpoint when a call's context
// is done. It unwinds through the panic-containment machinery — worker
// goroutines capture it like any fault, drain, and re-raise on the caller —
// until the la API boundary converts it into the driver's typed error
// return. Err is the context's verdict (context.Canceled or
// context.DeadlineExceeded), exposed through Unwrap so errors.Is works all
// the way down.
type CancelError struct {
	Err error
}

func (e *CancelError) Error() string {
	return "la90: computation canceled: " + e.Err.Error()
}

// Unwrap exposes the context's error (context.Canceled or
// context.DeadlineExceeded).
func (e *CancelError) Unwrap() error { return e.Err }

// Checkpoint polls the call's cancellation context, panicking with a
// *CancelError when it is done. Kernels place it at coarse work boundaries —
// a GEMM macro-tile, a factorization panel, a refinement sweep — where the
// poll cost vanishes against the work between polls. With no context
// attached it is two predictable branches.
func (c *Config) Checkpoint() {
	if c == nil || c.Ctx == nil {
		return
	}
	if err := c.Ctx.Err(); err != nil {
		panic(&CancelError{Err: err})
	}
}
