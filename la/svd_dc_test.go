package la_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/blas"
	"repro/internal/faultinject"
	"repro/la"
)

// TestGESVDKillSwitch: the D&C path GESVD takes with vectors must agree
// with its values-only route (the bidiagonal QR iteration, a separate
// algorithm) to factorization accuracy. (The name is from when an option
// selected the QR-iteration driver.)
func TestGESVDKillSwitch(t *testing.T) {
	for _, dims := range [][2]int{{24, 24}, {60, 13}, {13, 60}} {
		m, n := dims[0], dims[1]
		a0 := randMat[float64](31, m, n)

		ref, err := la.GESVD(a0.Clone(), la.WithSingularVectors('N', 'N'))
		if err != nil {
			t.Fatalf("GESVD values only: %v", err)
		}
		resd, err := la.GESVD(a0.Clone())
		if err != nil {
			t.Fatalf("GESVD: %v", err)
		}
		for i, want := range ref.S {
			if math.Abs(resd.S[i]-want) > 1e-11*(1+ref.S[0]) {
				t.Fatalf("D&C S[%d]=%v vs QR %v", i, resd.S[i], want)
			}
		}
	}
}

// TestGELSDDriver: the D&C least squares driver solves a full-rank problem
// like the pivoted-QR driver GELSX.
func TestGELSDDriver(t *testing.T) {
	m, n := 14, 9
	a0 := randMat[float64](37, m, n)
	b0 := randMat[float64](38, m, 1)

	asd, bsd := a0.Clone(), b0.Clone()
	rankD, _, err := la.GELSD(asd, bsd)
	if err != nil {
		t.Fatalf("GELSD: %v", err)
	}
	asx, bsx := a0.Clone(), b0.Clone()
	rankX, _, err := la.GELSX(asx, bsx)
	if err != nil {
		t.Fatalf("GELSX: %v", err)
	}
	if rankD != n || rankX != n {
		t.Fatalf("rank %d vs %d, want %d", rankD, rankX, n)
	}
	for i := 0; i < n; i++ {
		if math.Abs(bsd.At(i, 0)-bsx.At(i, 0)) > 1e-9 {
			t.Fatalf("solution differs at %d: %v vs %v", i, bsd.At(i, 0), bsx.At(i, 0))
		}
	}
}

// TestWorkerPanicContainedGesvd arms a worker panic under LA_GESVD: at
// n = 1024 the D&C back-multiplication GEMMs (and the Orgbr base
// formation) run on the parallel engine, so the injected fault fires on a
// worker goroutine inside the divide-and-conquer recursion. It must
// surface as a *la.Error with InfoPanic, the process must survive, and a
// follow-up un-armed drive must succeed.
func TestWorkerPanicContainedGesvd(t *testing.T) {
	defer blas.SetThreads(blas.SetThreads(4))
	defer faultinject.Reset()

	const n = 1024
	a := randMat[float64](77, n, n)

	faultinject.ArmWorkerPanics(1)
	_, err := la.GESVD(a)
	if err == nil {
		t.Fatal("armed worker panic did not surface as an error")
	}
	var e *la.Error
	if !errors.As(err, &e) {
		t.Fatalf("got %T (%v), want *la.Error", err, err)
	}
	if e.Info != la.InfoPanic {
		t.Fatalf("Info = %d, want InfoPanic (%d)", e.Info, la.InfoPanic)
	}
	if e.Routine != "LA_GESVD" {
		t.Fatalf("Routine = %q, want LA_GESVD", e.Routine)
	}
	if len(e.Stack) == 0 {
		t.Fatal("contained fault lost the worker stack")
	}
	if !strings.Contains(e.Detail, faultinject.PanicMessage) {
		t.Fatalf("Detail = %q does not identify the injected panic", e.Detail)
	}

	faultinject.Reset()
	a2 := randMat[float64](78, 64, 64)
	res, err := la.GESVD(a2)
	if err != nil {
		t.Fatalf("post-fault GESVD failed: %v", err)
	}
	for i, v := range res.S {
		if math.IsNaN(v) {
			t.Fatalf("post-fault singular value %d is NaN", i)
		}
	}
}
