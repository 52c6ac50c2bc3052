package blas

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/testutil/diff"
)

// TestForkCapturesWorkerPanic proves that a panic on a spawned Fork goroutine
// re-raises on the calling goroutine as a *PanicError with the worker stack,
// instead of killing the process.
func TestForkCapturesWorkerPanic(t *testing.T) {
	defer SetThreads(SetThreads(4))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic was not repropagated")
		}
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T, want *PanicError", r)
		}
		if pe.Value != "boom" {
			t.Fatalf("PanicError.Value = %v, want boom", pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatal("PanicError.Stack is empty")
		}
		if !strings.Contains(pe.Error(), "boom") {
			t.Fatalf("PanicError.Error() = %q", pe.Error())
		}
	}()
	Fork(tcfg(), 
		func() {},
		func() { panic("boom") },
	)
}

// TestForkFirstPanicWins arms several panicking tasks and checks exactly one
// value is reported and all tasks finished before the re-panic.
func TestForkFirstPanicWins(t *testing.T) {
	defer SetThreads(SetThreads(4))
	ran := make([]bool, 5)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic repropagated")
		}
		if _, ok := r.(*PanicError); !ok {
			t.Fatalf("recovered %T, want *PanicError", r)
		}
		for i, ok := range ran {
			if !ok {
				t.Fatalf("task %d did not run to its completion point before the re-panic", i)
			}
		}
	}()
	tasks := make([]func(), 5)
	for i := range tasks {
		i := i
		tasks[i] = func() {
			ran[i] = true
			panic(i)
		}
	}
	Fork(tcfg(), tasks...)
}

// TestForkCallerTaskPanic checks that a panic in the caller-run task still
// waits for the workers before unwinding.
func TestForkCallerTaskPanic(t *testing.T) {
	defer SetThreads(SetThreads(4))
	workerDone := false
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("caller-task panic lost")
		}
		if !workerDone {
			t.Fatal("caller panic unwound before the worker finished")
		}
	}()
	Fork(tcfg(), 
		func() { panic("caller") },
		func() { workerDone = true },
	)
}

// TestForkSerialPanicPropagates checks the Threads()<=1 path panics plainly
// (no wrapping), preserving serial semantics.
func TestForkSerialPanicPropagates(t *testing.T) {
	defer SetThreads(SetThreads(1))
	defer func() {
		r := recover()
		if r != "serial" {
			t.Fatalf("recovered %v, want the raw panic value", r)
		}
	}()
	Fork(tcfg(), func() { panic("serial") }, func() {})
}

// TestParallelRangeCapturesPanic does the same for the macro-tile fan-out.
func TestParallelRangeCapturesPanic(t *testing.T) {
	covered := make([]bool, 64)
	defer func() {
		r := recover()
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T (%v), want *PanicError", r, r)
		}
		if pe.Value != 7 {
			t.Fatalf("PanicError.Value = %v, want 7", pe.Value)
		}
		for i, ok := range covered {
			if !ok && i != 7 {
				t.Fatalf("index %d never visited: a panicking chunk must not cancel other chunks", i)
			}
		}
	}()
	parallelRange(len(covered), 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i == 7 {
				panic(7)
			}
			covered[i] = true
		}
	})
}

// TestInjectedWorkerPanicThroughGemm arms the fault injector and drives a
// parallel GEMM: the injected worker panic must surface on the caller as a
// *PanicError carrying the injection message, and a subsequent un-armed call
// must succeed (the engine is not wedged).
func TestInjectedWorkerPanicThroughGemm(t *testing.T) {
	defer SetThreads(SetThreads(4))
	defer faultinject.Reset()

	// 320^3 > gemmParallelMinVol and 320 > gemmMC, so the engine both takes
	// the parallel path and has at least two macro-tiles to spawn workers for.
	const n = 320
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) - 3
		b[i] = float64(i%5) - 2
	}

	faultinject.ArmWorkerPanics(1)
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				pe, ok := r.(*PanicError)
				if !ok {
					t.Fatalf("recovered %T, want *PanicError", r)
				}
				err = pe
			}
		}()
		Gemm(tcfg(), NoTrans, NoTrans, n, n, n, 1.0, a, n, b, n, 0.0, c, n)
		return nil
	}()
	if err == nil {
		t.Fatal("armed worker panic did not surface")
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != faultinject.PanicMessage {
		t.Fatalf("surfaced error %v, want injected %q", err, faultinject.PanicMessage)
	}

	// The engine must be fully usable afterwards.
	faultinject.Reset()
	clear(c)
	Gemm(tcfg(), NoTrans, NoTrans, n, n, n, 1.0, a, n, b, n, 0.0, c, n)
	for _, v := range c[:8] {
		if math.IsNaN(v) {
			t.Fatal("post-fault GEMM produced NaN")
		}
	}
}

// TestPackPoisonPropagates arms a packed-panel poisoning and checks the NaN
// actually flows into C — i.e. the injection point sits on the live data
// path, so screening/containment tests exercise a real corruption.
func TestPackPoisonPropagates(t *testing.T) {
	defer faultinject.Reset()
	defer SetThreads(SetThreads(1))

	const n = 96 // above gemmPackedMinVol for f64: the packed engine engages
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = 1
		b[i] = 1
	}
	faultinject.ArmPackPoisons(1)
	Gemm(tcfg(), NoTrans, NoTrans, n, n, n, 1.0, a, n, b, n, 0.0, c, n)
	found := false
	for _, v := range c {
		if math.IsNaN(v) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("pack poisoning did not reach C: injection point is off the live path")
	}
	if core.AllFinite(c) {
		t.Fatal("AllFinite failed to flag the poisoned result")
	}
}

// TestForcePortableMatchesAsm checks the portable-kernel override produces
// the same result as the default dispatch (up to exact equality — both paths
// use the identical blocking so f64 accumulation order matches only within a
// tile; compare against a tolerance).
func TestForcePortableMatchesAsm(t *testing.T) {
	defer SetThreads(SetThreads(1))

	const n = 64
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c1 := make([]float64, n*n)
	c2 := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%13) - 6
		b[i] = float64(i%11) - 5
	}
	Gemm(tcfg(), NoTrans, NoTrans, n, n, n, 1.0, a, n, b, n, 0.0, c1, n)
	diff.Force(t, diff.Portable)
	Gemm(tcfg(), NoTrans, NoTrans, n, n, n, 1.0, a, n, b, n, 0.0, c2, n)
	for i := range c1 {
		if d := math.Abs(c1[i] - c2[i]); d > 1e-9*math.Max(1, math.Abs(c1[i])) {
			t.Fatalf("portable/asm mismatch at %d: %g vs %g", i, c1[i], c2[i])
		}
	}
}
