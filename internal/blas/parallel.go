package blas

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// Threading model of package blas: one scheduling primitive, runTiles. A
// threaded routine cuts its work into numbered tiles with disjoint outputs,
// and up to Threads workers — the caller is one of them — claim tile numbers
// from an atomic counter until none are left. Which worker runs a tile
// depends on scheduling; what a tile computes does not, and that is the whole
// bit-identity argument:
//
//   - The packed Level-3 engine (gemm.go; Gemm, Gemmt and the rank-k family)
//     cuts C on multiples of the register tile, mr rows and nr columns
//     (tileGrid), so every mr×nr micro-tile is computed whole, by the same
//     kernel call on the same packed panels in the same kc-slab order,
//     wherever the cuts fall. The grid adapts to the operand shape and the
//     worker count — rows first, columns when op(A) is short; the bits cannot.
//   - Trsm forks once per call over what is independent, slabs of B's
//     columns (left) or rows (right) cut at multiples of the widest leaf
//     kernel, each slab running the serial recursion. Gemm picks its route
//     (inner-product, pack-free, skinny, naive, packed) from the product's
//     shape, so a slab's updates are routed by the whole call's shape (gemm,
//     level3.go). The inner-product route splits the columns of C.
//   - Gemv cuts its output into one contiguous chunk per worker
//     (parallelRange); Fork runs unrelated closures that write disjoint
//     memory (the LU lookahead in internal/lapack).
//
// Tiles are numbered heaviest first where their cost differs (the rows of a
// triangle), and a group has several per worker, so a worker that starts
// late or shares its CPU — with the LU panel running beside the trailing
// update, say — just claims fewer. A tile that runs a threaded routine would
// open a group of its own on the same CPUs, which is why Trsm's slabs and
// the lookahead panel run on a one-thread Config.
//
// The worker budget is per call: every threaded entry point reads it from
// the *core.Config captured at the API boundary, so concurrent callers can
// run with different budgets side by side. The process-wide default comes
// from runtime.GOMAXPROCS(0), may be pinned with LA90_NUM_THREADS at startup
// and changed at any time with SetThreads. Level-3 calls below the constant
// gemmParallelMinVol (Gemv: gemvParallelMinVol) run serially, so small
// problems do not pay goroutine hand-off. A budget above
// GOMAXPROCS is harmless: the surplus workers find the counter exhausted.
//
// Fault containment: a panic on a worker goroutine would normally kill the
// whole process, since no caller defer can recover across goroutines.
// runTiles therefore runs every worker, the caller's share included, under a
// recover, records the first panic (with its worker stack), lets the other
// workers drain the remaining tiles, and re-panics the captured value on the
// calling goroutine once every worker has returned. The fault then unwinds
// through ordinary caller defers — in particular the recovery guard at the
// la API boundary — exactly as a serial panic would. A cancellation
// checkpoint firing on a worker (*core.CancelError) unwinds the same way, so
// a canceled call always joins its workers before returning: no goroutine
// outlives the call that spawned it.

// SetThreads sets the default maximum number of goroutines Level-3 kernels
// may use and returns the previous setting — the one process-wide default
// that can change at run time (the screening switch is fixed at startup by
// its environment variable and set per call). n < 1 leaves the setting
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

// tileQueue hands out the tile numbers 0 … n-1 of one group, each exactly
// once, in increasing order.
type tileQueue struct {
	next atomic.Int64
	n    int64
}

// claim returns the next unclaimed tile number, or -1 when none is left.
func (q *tileQueue) claim() int {
	if t := q.next.Add(1) - 1; t < q.n {
		return int(t)
	}
	return -1
}

// runTiles runs one group of n tiles on up to `workers` goroutines: each
// worker calls work once and claims tiles from q until q.claim returns -1,
// which lets it keep per-worker scratch (a packed-panel buffer) across its
// tiles. The calling goroutine is the first worker, so a group costs
// workers-1 spawns and no hand-off of its own; with workers <= 1 (or a
// single tile) work simply runs on the caller, panics propagating raw.
//
// A panicking worker stops claiming; the others drain the group, and the
// first panic re-raises on the caller as a *PanicError once all of them have
// returned (later ones are dropped).
func runTiles(n, workers int, work func(q *tileQueue)) {
	if n <= 0 {
		return
	}
	q := &tileQueue{n: int64(n)}
	workers = min(workers, n)
	if workers <= 1 {
		work(q)
		return
	}
	var box panicBox
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			box.run(func() { work(q) }, true)
		}()
	}
	// A goroutine just started sits in this P's run-next slot, which an idle
	// P steals only after a pause: yielding hands this P to it at once, and
	// the P that the spawn woke up resumes the caller (EXPERIMENTS.md, "Tile
	// scheduling", has the fork-join cost with and without).
	runtime.Gosched()
	// The caller's own share is captured too: if it panics, the spawned
	// workers must still be drained before the panic may unwind, or the
	// caller's defers would run while workers race its shared state.
	box.run(func() { work(q) }, false)
	wg.Wait()
	box.rethrow()
}

// Fork runs the given tasks concurrently — one tile each, so up to one
// goroutine per extra task, whatever the worker budget above one — and
// returns when all of them have finished. With a per-call worker budget of
// one (cfg.Threads <= 1) the tasks run sequentially in argument order on the
// caller, so a serial run is simply the in-order execution of the same
// closures. Fork is the entry point used by the lookahead-pipelined LU in
// internal/lapack: tasks must write disjoint memory, which is also what
// keeps forked and serial execution bit-identical.
//
// If any task panics, Fork waits for the remaining tasks to finish and then
// panics on the calling goroutine with a *PanicError carrying the first
// panic's value and worker stack (first panic wins; later ones are dropped).
// On the serial path panics simply propagate, preserving identical semantics.
func Fork(cfg *core.Config, tasks ...func()) {
	workers := len(tasks)
	if core.Cfg(cfg).Threads <= 1 {
		workers = 1
	}
	eachTile(len(tasks), workers, func(t int) { tasks[t]() })
}

// eachTile is runTiles for tiles that need no per-worker state.
func eachTile(n, workers int, tile func(t int)) {
	runTiles(n, workers, func(q *tileQueue) {
		for t := q.claim(); t >= 0; t = q.claim() {
			tile(t)
		}
	})
}

// parallelRange partitions [0, n) into one contiguous chunk per worker and
// runs body(lo, hi) for each chunk as a tile of one group. The partition
// depends only on n and workers — never on scheduling — and with
// workers <= 1 the body runs inline on the calling goroutine, so serial and
// parallel execution visit identical index ranges. Panics are contained as
// in runTiles.
func parallelRange(n, workers int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = max(1, min(workers, n))
	chunk := (n + workers - 1) / workers
	eachTile((n+chunk-1)/chunk, workers, func(t int) { body(t*chunk, min(t*chunk+chunk, n)) })
}
