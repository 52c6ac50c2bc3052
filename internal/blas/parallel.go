package blas

import (
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// Threading model for the Level-3 engine. Parallelism is applied at exactly
// one point — the mc-tall macro-tile loop of the packed GEMM (gemm.go) — so
// worker goroutines write disjoint tiles of C and share only read-only packed
// panels. Each tile's floating-point evaluation order is fixed by the blocking
// parameters alone, never by the worker count, so parallel and serial runs
// produce bit-identical results.
//
// The worker budget is a per-call quantity: every threaded entry point reads
// it from the *core.Config captured at the API boundary, so concurrent
// callers can run with different budgets side by side. The process-wide
// default comes from runtime.GOMAXPROCS(0), may be pinned with the
// LA90_NUM_THREADS environment variable at startup, and can be changed at
// any time with SetThreads. Kernels below Config.GemmParallelMinVol always
// run serially so small-matrix latency does not pay goroutine hand-off
// costs.
//
// Fault containment: a panic on a worker goroutine would normally kill the
// whole process, since no caller defer can recover across goroutines. Fork
// and parallelRange therefore run every task under a recover, record the
// first panic (with its worker stack), wait for the remaining workers to
// drain, and re-panic the captured value on the calling goroutine. The fault
// then unwinds through ordinary caller defers — in particular the recovery
// guard at the la API boundary — exactly as a serial panic would. A
// cancellation checkpoint firing on a worker (*core.CancelError) unwinds the
// same way, so a canceled call always joins its workers before returning:
// no goroutine outlives the call that spawned it.

// SetThreads sets the default maximum number of goroutines Level-3 kernels
// may use and returns the previous setting — the one process-wide default
// that can change at run time (every other knob is fixed at startup by its
// environment variable and overridden per call). n < 1 leaves the setting
// unchanged; n == 1 forces fully serial execution; values above
// core.MaxThreads are clamped. Safe to call concurrently; calls already in
// flight keep the budget they captured at their API boundary.
func SetThreads(n int) int {
	old := core.UpdateDefault(func(c *core.Config) {
		if n >= 1 {
			c.Threads = n
		}
	})
	return old.Threads
}

// Threads returns the default Level-3 worker budget. Kernels never call
// this: they read the budget from their threaded *Config.
func Threads() int {
	return core.Default().Threads
}

// PanicError wraps a panic captured on a worker goroutine so it can be
// re-raised on the calling goroutine. Value is the original panic value and
// Stack the worker's stack at capture time; callers that recover a
// *PanicError (the la boundary guard) can therefore report where inside the
// parallel engine the fault occurred even though the worker is long gone.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic on worker goroutine: %v", e.Value)
}

// Unwrap exposes the original panic value when it was itself an error.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// panicBox records the first panic among a group of concurrent tasks.
type panicBox struct {
	once sync.Once
	err  *PanicError
}

// run executes f, capturing a panic into the box instead of letting it
// propagate. worker marks calls running on a spawned goroutine; those honor
// the fault-injection hook so tests can fault a real worker on demand.
func (b *panicBox) run(f func(), worker bool) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*PanicError)
			if !ok {
				pe = &PanicError{Value: r, Stack: debug.Stack()}
			}
			b.once.Do(func() { b.err = pe })
		}
	}()
	if worker && faultinject.TakeWorkerPanic() {
		panic(faultinject.PanicMessage)
	}
	f()
}

// rethrow re-raises the recorded panic, if any, on the calling goroutine.
// It must only be called after every task in the group has returned, so the
// unwinding caller never races still-running workers.
func (b *panicBox) rethrow() {
	if b.err != nil {
		panic(b.err)
	}
}

// Fork runs the given tasks concurrently, one goroutine per extra task, and
// returns when all of them have finished. The first task runs on the calling
// goroutine. With a per-call worker budget of one (cfg.Threads <= 1) the
// tasks run sequentially in argument order on the caller, so a serial run is
// simply the in-order execution of the same closures. Fork is the pool entry
// point used by the lookahead-pipelined LU in internal/lapack: tasks must
// write disjoint memory, which is also what keeps forked and serial
// execution bit-identical.
//
// If any task panics, Fork waits for the remaining tasks to finish and then
// panics on the calling goroutine with a *PanicError carrying the first
// panic's value and worker stack (first panic wins; later ones are dropped).
// On the serial path panics simply propagate, preserving identical semantics.
func Fork(cfg *core.Config, tasks ...func()) {
	if len(tasks) == 0 {
		return
	}
	if len(tasks) == 1 || core.Cfg(cfg).Threads <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	var box panicBox
	var wg sync.WaitGroup
	for _, t := range tasks[1:] {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			box.run(f, true)
		}(t)
	}
	// The caller's own task is captured too: if it panics, the spawned
	// workers must still be drained before the panic may unwind, or the
	// caller's defers would run while workers race its shared state.
	box.run(tasks[0], false)
	wg.Wait()
	box.rethrow()
}

// parallelRange partitions [0, n) into one contiguous chunk per worker and
// runs body(lo, hi) for each chunk, on up to `workers` goroutines. The
// partition depends only on n and workers — never on scheduling — and with
// workers <= 1 the body runs inline on the calling goroutine, so serial and
// parallel execution visit identical index ranges. body is called at most
// once per worker, letting it amortize per-worker scratch (packed-panel
// buffers) across its whole chunk.
//
// Worker panics are contained exactly as in Fork: the first panic is
// captured with its stack, all chunks drain, and the panic re-raises on the
// calling goroutine as a *PanicError.
func parallelRange(n, workers int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		body(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var box panicBox
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			box.run(func() { body(lo, hi) }, true)
		}(lo, hi)
	}
	wg.Wait()
	box.rethrow()
}
