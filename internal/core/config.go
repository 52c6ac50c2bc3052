package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Config is the per-call execution context of the whole numerical stack: one
// immutable value carrying every tuning and policy knob the la → lapack →
// blas layers used to read from package globals, plus an optional
// context.Context for cooperative cancellation.
//
// A Config is captured exactly once, at the la API boundary (from the
// process-wide default merged with per-call options), and then passed
// explicitly down through every lapack driver into the blas engines. Nothing
// below the boundary re-reads ambient state mid-kernel, so two concurrent
// calls with different Configs — different thread budgets, block sizes,
// screening policies — never observe each other.
//
// Configs are immutable by convention: once a *Config has been handed to a
// driver it must never be written again. Derive variants with With, which
// copies, mutates and re-clamps.
type Config struct {
	// Tuning is the block of integer knobs (worker budget, block sizes,
	// crossovers); its fields are promoted, so kernels read cfg.GemmMC.
	Tuning

	// CheckInputs screens matrix arguments for non-finite values at the la
	// boundary before any computation.
	CheckInputs bool

	// Ctx, when non-nil, enables cooperative cancellation: kernels poll it
	// at macro-tile, panel and refinement-iteration boundaries and unwind
	// with a *CancelError once it is done. A nil Ctx makes Checkpoint free.
	Ctx context.Context
}

// Tuning holds every integer knob of the execution context. It is the type
// behind la.Config, so its zero value is the "inherit everything" overlay
// (see Overlay). Each field is described, bounded and bound to its -config
// key and environment variable by exactly one row of Knobs.
type Tuning struct {
	// Threads is the maximum number of goroutines the Level-3 engines may
	// use for this call. 1 forces fully serial execution. The floating-point
	// schedule never depends on it: results are bit-identical at any budget.
	Threads int

	// GemmMC, GemmKC, GemmNC are the packed-engine cache block sizes
	// (element counts calibrated for float64; other types are re-scaled so
	// packed-panel byte footprints stay constant — see blas.blockFor). They
	// change the summation blocking, so overriding them changes results at
	// the rounding level — deterministically for a fixed Tuning.
	GemmMC, GemmKC, GemmNC int

	// GemmSmallDim is the pack-free small-matrix crossover: a NoTrans
	// product with every dimension at or below it runs BLASFEO-style
	// register kernels directly on the strided operands. 0 disables the
	// path (in an overlay: negative disables, 0 inherits).
	GemmSmallDim int

	// GemmParallelMinVol is the m·n·k multiply volume below which Level-3
	// operations stay serial even when Threads > 1.
	GemmParallelMinVol int
}

// Clamp bounds of the table below, shared by every route a value can arrive
// by (environment, per-call overlay, UpdateDefault, -config), so none can
// smuggle in a value that would allocate absurd workspaces or zero-width
// loops.
const (
	// MaxThreads bounds the worker budget; far above useful
	// oversubscription, it only keeps a mistyped LA90_NUM_THREADS from
	// provisioning absurd goroutine counts.
	MaxThreads = 1024
	// MaxBlockDim bounds the packed-engine cache block sizes: a mistyped
	// LA90_GEMM_MC degrades to a slow-but-safe blocking instead of a packed
	// panel measured in gigabytes.
	MaxBlockDim = 1 << 16
	// MaxGemmSmallDim bounds the pack-free crossover: above it the strided
	// reads blow past L1 and the packed engine is strictly better.
	MaxGemmSmallDim = 256
	// MaxParallelMinVol bounds the serial-cutoff volume.
	MaxParallelMinVol = 1 << 30
)

// Knob is one row of the configuration table: everything that is said about
// a setting — its name, where it can be set from, its legal range, what it
// does and which field holds it — is said here once. Environment parsing,
// clamping, the per-call overlay behind la.WithConfig and the README
// "Configuration" table are all loops over Knobs.
type Knob struct {
	Name   string // README row
	Env    string // LA90_* variable read once at startup; "" if there is none
	Lo, Hi int    // legal range of an integer knob
	Doc    string

	ptr  func(*Tuning) *int  // the integer knob's field; nil on boolean rows
	flag func(*Config) *bool // the boolean policy's field; nil on a row read only at startup
}

// Knobs is the complete list of settings. Integer rows first, in Tuning
// field order; then the boolean policy (set and not "0" means on), which is
// set per call by its la.With* option; then the row read once at package
// initialisation by the package that owns it.
var Knobs = []Knob{
	{Name: "threads", Env: "LA90_NUM_THREADS", Lo: 1, Hi: MaxThreads,
		Doc: "worker budget of the Level-3 engines; 1 is fully serial; results are bit-identical at any value",
		ptr: func(t *Tuning) *int { return &t.Threads }},
	{Name: "mc", Env: "LA90_GEMM_MC", Lo: 4, Hi: MaxBlockDim,
		Doc: "packed GEMM row block (float64 elements; the A block mc·kc stays in L2)",
		ptr: func(t *Tuning) *int { return &t.GemmMC }},
	{Name: "kc", Env: "LA90_GEMM_KC", Lo: 4, Hi: MaxBlockDim,
		Doc: "packed GEMM depth block (one kc·nr B micro-panel stays in L1)",
		ptr: func(t *Tuning) *int { return &t.GemmKC }},
	{Name: "nc", Env: "LA90_GEMM_NC", Lo: 4, Hi: MaxBlockDim,
		Doc: "packed GEMM column block (the B slab kc·nc targets L3)",
		ptr: func(t *Tuning) *int { return &t.GemmNC }},
	{Name: "small", Env: "LA90_GEMM_SMALL", Lo: 0, Hi: MaxGemmSmallDim,
		Doc: "pack-free small-matrix crossover: products and LU panels with every dimension at or below it skip packing; 0 disables the path",
		ptr: func(t *Tuning) *int { return &t.GemmSmallDim }},
	{Name: "minvol", Lo: 1, Hi: MaxParallelMinVol,
		Doc: "m·n·k volume below which Level-3 operations stay serial",
		ptr: func(t *Tuning) *int { return &t.GemmParallelMinVol }},

	{Name: "check", Env: "LA90_CHECK_INPUTS",
		Doc:  "screen matrix arguments for NaN/Inf at the la boundary (per call: la.WithCheck)",
		flag: func(c *Config) *bool { return &c.CheckInputs }},

	{Name: "noasm", Env: "LA90_NO_ASM",
		Doc: "run the portable Go kernels instead of the AVX-512/AVX2 assembly; read by blas at startup only"},
}

// IsInt reports whether the row is an integer knob (a Tuning field) rather
// than a boolean policy or a startup-only switch.
func (k *Knob) IsInt() bool { return k.ptr != nil }

// Value returns the knob's current value in t.
func (k *Knob) Value(t *Tuning) int { return *k.ptr(t) }

// Overlay applies the per-call override block ov to t, knob by knob: zero
// inherits t's value, a positive value replaces it, and a negative value on
// a knob whose range starts at 0 (GemmSmallDim) sets 0, which disables the
// path; ov is only read. The caller re-clamps (Config.With does).
func (t *Tuning) Overlay(ov *Tuning) {
	for i := range Knobs {
		k := &Knobs[i]
		if !k.IsInt() {
			continue
		}
		if v := k.Value(ov); v > 0 {
			*k.ptr(t) = v
		} else if v < 0 && k.Lo == 0 {
			*k.ptr(t) = 0
		}
	}
}

// baseConfig returns the hard-coded defaults, before environment overrides:
// the block sizes and crossovers measured in PRs 1–9 and a thread budget of
// GOMAXPROCS.
func baseConfig() Config {
	return Config{Tuning: Tuning{
		Threads:            runtime.GOMAXPROCS(0),
		GemmMC:             256,
		GemmKC:             256,
		GemmNC:             2048,
		GemmSmallDim:       64,
		GemmParallelMinVol: 192 * 192 * 192,
	}}
}

// FromEnv applies every environment row of Knobs to base and returns the
// result. Together with EnvFlag — which blas calls at initialisation for the
// startup-only LA90_NO_ASM row — this is the one place the environment is
// parsed. Integers follow the EnvInt hardening policy: garbage is ignored,
// out-of-range values are clamped. Booleans follow EnvFlag.
func FromEnv(base Config) Config {
	for i := range Knobs {
		k := &Knobs[i]
		switch {
		case k.Env == "":
		case k.ptr != nil:
			// Lo-1 cannot come back from a parsed (hence clamped) value, so
			// it marks "unset or garbage": the field keeps its default.
			if v := EnvInt(k.Env, k.Lo-1, k.Lo, k.Hi); v >= k.Lo {
				*k.ptr(&base.Tuning) = v
			}
		case k.flag != nil:
			if EnvFlag(k.Env) {
				*k.flag(&base) = true
			}
		}
	}
	base.clamp()
	return base
}

// clamp forces every knob of c into its legal range, so a hand-built Config
// cannot produce zero-width panels, absurd workspaces or a non-positive
// worker budget no matter how it was constructed. It works in place, on a
// Config that is already on the heap: a field pointer obtained through a
// table row's func value escapes, and With runs on every optioned call.
func (c *Config) clamp() {
	for i := range Knobs {
		k := &Knobs[i]
		if k.ptr == nil {
			continue
		}
		p := k.ptr(&c.Tuning)
		*p = ClampInt(*p, k.Lo, k.Hi)
	}
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

// With returns a copy of c with mutate applied and every knob re-clamped —
// the derivation step the la boundary uses to fold per-call options into the
// captured default. c itself is never modified.
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
