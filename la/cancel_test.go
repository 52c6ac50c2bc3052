package la_test

// Cooperative cancellation tests for WithContext: a canceled context must
// surface as a *la.Error whose Unwrap chain reaches ctx.Err() (so both
// errors.Is(err, la.ErrCanceled) and errors.Is(err, context.Canceled)
// hold), must return promptly rather than running the call to completion,
// and must join every worker goroutine on the way out.

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/la"
)

// wantCanceled asserts err is the canonical cancellation error shape.
func wantCanceled(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("canceled call returned nil error")
	}
	var le *la.Error
	if !errors.As(err, &le) {
		t.Fatalf("canceled call returned %T, want *la.Error: %v", err, err)
	}
	if le.Info != la.InfoCanceled {
		t.Errorf("Info = %d, want InfoCanceled (%d)", le.Info, la.InfoCanceled)
	}
	if !errors.Is(err, la.ErrCanceled) {
		t.Errorf("errors.Is(err, la.ErrCanceled) = false, want true: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false, want true: %v", err)
	}
}

// TestPreCanceledContext checks the fast exit: a context that is already
// done when the driver is entered fires the first checkpoint, before any
// substantial work.
func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 256
	a := randMat[float64](41, n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	b := randMat[float64](42, n, 1)
	_, err := la.GESV(a, b, la.WithContext(ctx))
	wantCanceled(t, err)
}

// TestCancelMidGESVD cancels a large SVD mid-flight and checks the three
// contract points at once: the call returns a cancellation *la.Error, it
// returns promptly (bounded by a fraction of the full decomposition time),
// and no worker goroutine outlives it.
func TestCancelMidGESVD(t *testing.T) {
	const n = 1024
	a := randMat[float64](43, n, n)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := la.GESVD(a, la.WithContext(ctx), la.WithThreads(4))
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()

	var err error
	select {
	case err = <-errc:
	case <-time.After(30 * time.Second):
		t.Fatal("canceled GESVD did not return within 30s of cancellation")
	}
	if err == nil {
		t.Fatal("GESVD(n=1024) completed before the 30ms cancellation — cancellation never observed")
	}
	wantCanceled(t, err)

	// Worker goroutines must have been joined before the driver returned;
	// allow the runtime a moment to retire exited goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after canceled GESVD: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pollCtx counts the cancellation polls a call makes and, when after is
// positive, cancels itself on poll number after: "canceled mid-call" without
// a race against the wall clock.
type pollCtx struct {
	context.Context
	cancel context.CancelFunc
	after  int64
	polls  atomic.Int64
}

func (p *pollCtx) Err() error {
	if p.polls.Add(1) == p.after {
		p.cancel()
	}
	return p.Context.Err()
}

// TestCancelMidSYSV pins where the blocked Bunch–Kaufman driver can be
// stopped: its panels have no checkpoint of their own, so the polls come from
// the triangle update that follows each one — at least one per panel — and a
// context that fires on one of them ends the call at that very poll.
func TestCancelMidSYSV(t *testing.T) {
	const n, nrhs = 1024, 16
	a0, b0 := randMat[float64](46, n, n), randMat[float64](47, n, nrhs)
	run := func(ctx context.Context) error {
		a, b := randMat[float64](0, n, n), randMat[float64](0, n, nrhs)
		copy(a.Data, a0.Data)
		copy(b.Data, b0.Data)
		_, err := la.SYSV(a, b, la.WithContext(ctx), la.WithThreads(2))
		return err
	}
	whole := &pollCtx{Context: context.Background()}
	if err := run(whole); err != nil {
		t.Fatalf("SYSV(n=%d): %v", n, err)
	}
	polls := whole.polls.Load()
	if minPolls := int64(n / 64); polls < minPolls {
		t.Fatalf("SYSV(n=%d) polled its context %d times, want at least one poll per panel (%d)", n, polls, minPolls)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mid := &pollCtx{Context: ctx, cancel: cancel, after: polls / 2}
	wantCanceled(t, run(mid))
	if got := mid.polls.Load(); got != mid.after {
		t.Errorf("canceled on poll %d of %d, yet the call went on to poll %d", mid.after, polls, got)
	}
}

// TestCancelDeadline checks that a deadline context unwraps to
// context.DeadlineExceeded through the same *la.Error shape.
func TestCancelDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure the deadline has passed
	const n = 256
	a := spdMat[float64](44, n)
	b := randMat[float64](45, n, 1)
	err := la.POSV(a, b, la.WithContext(ctx))
	if err == nil {
		t.Fatal("deadline-expired POSV returned nil error")
	}
	if !errors.Is(err, la.ErrCanceled) {
		t.Errorf("errors.Is(err, la.ErrCanceled) = false: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false: %v", err)
	}
}
