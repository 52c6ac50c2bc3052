// Package faultinject provides test-gated fault injection for the numerical
// runtime. The chaos/recovery test suites arm faults here and then drive the
// public la interface (or the internal blas/lapack layers directly) to prove
// that the fault-containment machinery — worker panic capture in
// internal/blas/parallel.go and the panic-to-*la.Error recovery at the la
// boundary — actually contains them.
//
// Three fault classes are supported:
//
//   - injected worker panics: the next n parallel worker goroutines panic on
//     entry, exercising the Fork/parallelRange capture path;
//   - packed-buffer poisoning: the next n packed A panels get a NaN written
//     over their first element, modelling a corrupted pack or a kernel bug
//     that lets non-finite values into the engine;
//   - portable-kernel forcing: the assembly micro-kernels are bypassed so a
//     suspected asm fault can be separated from the blocking logic at runtime
//     (the env-var LA90_NO_ASM does the same at process start), or only the
//     AVX-512 row of the kernel table is, so a machine that has it can test
//     the AVX2 row it would otherwise never select.
//
// All state is manipulated with atomics so faults can be armed from a test
// while worker goroutines consume them. The injection points are single
// atomic loads of zero-valued counters when nothing is armed, so the
// production cost is negligible (they sit at per-tile, not per-element,
// granularity). This package must never be imported for non-test purposes.
package faultinject

import "sync/atomic"

// PanicMessage is the panic value used for injected worker panics, so tests
// can distinguish injected faults from real ones.
const PanicMessage = "faultinject: injected worker panic"

var (
	workerPanics atomic.Int64 // pending injected worker panics
	packPoisons  atomic.Int64 // pending packed-panel NaN poisonings
	portableOnly atomic.Bool  // bypass assembly micro-kernels
	avx2Only     atomic.Bool  // bypass the AVX-512 row of the kernel table
)

// ArmWorkerPanics makes the next n parallel worker goroutines panic with
// PanicMessage on entry.
func ArmWorkerPanics(n int) { workerPanics.Store(int64(n)) }

// ArmPackPoisons makes the next n packed A panels start with a NaN.
func ArmPackPoisons(n int) { packPoisons.Store(int64(n)) }

// ForcePortable routes all micro-kernel dispatch to the portable Go kernels
// while on. Toggling it while a Gemm is in flight is not supported (the
// packing geometry must match the kernel); arm it between calls.
func ForcePortable(on bool) { portableOnly.Store(on) }

// ForceAVX2 keeps kernel dispatch off the AVX-512 row while on, with
// ForcePortable's caveat, and returns the previous setting. It selects between
// two correct kernels rather than arming a fault, and `make test-avx2` sets it
// for a whole test binary, so Reset leaves it alone.
func ForceAVX2(on bool) bool { return avx2Only.Swap(on) }

// Reset disarms every fault.
func Reset() {
	workerPanics.Store(0)
	packPoisons.Store(0)
	portableOnly.Store(false)
}

// TakeWorkerPanic consumes one armed worker panic, reporting whether the
// caller should panic now.
func TakeWorkerPanic() bool { return take(&workerPanics) }

// TakePackPoison consumes one armed pack poisoning, reporting whether the
// caller should poison its panel now.
func TakePackPoison() bool { return take(&packPoisons) }

// PortableOnly reports whether assembly micro-kernels are bypassed.
func PortableOnly() bool { return portableOnly.Load() }

// AVX2Only reports whether the AVX-512 row is bypassed.
func AVX2Only() bool { return avx2Only.Load() }

// take atomically decrements c if it is positive.
func take(c *atomic.Int64) bool {
	for {
		v := c.Load()
		if v <= 0 {
			return false
		}
		if c.CompareAndSwap(v, v-1) {
			return true
		}
	}
}
