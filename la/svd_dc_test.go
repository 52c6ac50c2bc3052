package la_test

import (
	"repro/internal/core"

	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/blas"
	"repro/internal/faultinject"
	"repro/internal/lapack"
	"repro/la"
)

// TestGESVDKillSwitch: the D&C path GESVD takes must agree with the
// QR-iteration routine lapack.Gesvd (f77.GESVD's route) to factorization
// accuracy. (The name is from when an option selected that routine.)
func TestGESVDKillSwitch(t *testing.T) {
	for _, dims := range [][2]int{{24, 24}, {60, 13}, {13, 60}} {
		m, n := dims[0], dims[1]
		mn := min(m, n)
		a0 := randMat[float64](31, m, n)

		// Reference: the computational core's QR-iteration driver.
		aref := a0.Clone()
		sref := make([]float64, mn)
		uref := make([]float64, m*mn)
		vtref := make([]float64, mn*n)
		if info := lapack.Gesvd(core.Default(), lapack.SVDSome, lapack.SVDSome, m, n, aref.Data, aref.Stride, sref, uref, m, vtref, mn); info != 0 {
			t.Fatalf("gesvd info=%d", info)
		}

		// Default D&C path: same spectrum to factorization accuracy.
		adc := a0.Clone()
		resd, err := la.GESVD(adc)
		if err != nil {
			t.Fatalf("GESVD: %v", err)
		}
		for i := range sref {
			if math.Abs(resd.S[i]-sref[i]) > 1e-11*(1+sref[0]) {
				t.Fatalf("D&C S[%d]=%v vs QR %v", i, resd.S[i], sref[i])
			}
		}
	}
}

// TestGELSDDriver: the D&C least squares driver solves the problem like
// the QR-iteration routine lapack.Gelss.
func TestGELSDDriver(t *testing.T) {
	m, n := 14, 9
	a0 := randMat[float64](37, m, n)
	b0 := randMat[float64](38, m, 1)

	asd, bsd := a0.Clone(), b0.Clone()
	rankD, sD, err := la.GELSD(asd, bsd)
	if err != nil {
		t.Fatalf("GELSD: %v", err)
	}
	ass, bss := a0.Clone(), b0.Clone()
	sS := make([]float64, n)
	rankS, info := lapack.Gelss(core.Default(), m, n, 1, ass.Data, ass.Stride, bss.Data, bss.Stride, sS, -1)
	if info != 0 {
		t.Fatalf("Gelss info=%d", info)
	}
	if rankD != rankS {
		t.Fatalf("rank %d vs %d", rankD, rankS)
	}
	for i := range sD {
		if math.Abs(sD[i]-sS[i]) > 1e-11*(1+sS[0]) {
			t.Fatalf("s[%d]: %v vs %v", i, sD[i], sS[i])
		}
	}
	for i := 0; i < n; i++ {
		if math.Abs(bsd.At(i, 0)-bss.At(i, 0)) > 1e-9 {
			t.Fatalf("solution differs at %d: %v vs %v", i, bsd.At(i, 0), bss.At(i, 0))
		}
	}
}

// TestBatchGesddBitIdentical: the batched SVD must produce bit-identical
// results at every worker count, equal to a serial loop over GESVD.
func TestBatchGesddBitIdentical(t *testing.T) {
	shapes := [][2]int{{12, 12}, {30, 7}, {7, 30}, {20, 20}, {25, 9}, {1, 1}}
	mats := func() []*la.Matrix[float64] {
		as := make([]*la.Matrix[float64], len(shapes))
		for i, s := range shapes {
			as[i] = randMat[float64](100+i, s[0], s[1])
		}
		return as
	}

	// Serial reference through the single-call driver.
	refIn := mats()
	refs := make([]*la.SVDResult[float64], len(refIn))
	for i, a := range refIn {
		r, err := la.GESVD(a)
		if err != nil {
			t.Fatalf("GESVD ref %d: %v", i, err)
		}
		refs[i] = r
	}

	for _, workers := range []int{1, 2, 4, 8} {
		old := blas.SetThreads(workers)
		res, errs, err := la.BatchGesdd(mats())
		blas.SetThreads(old)
		if err != nil {
			t.Fatalf("BatchGesdd workers=%d: %v", workers, err)
		}
		for i := range res {
			if errs[i] != nil {
				t.Fatalf("workers=%d item %d: %v", workers, i, errs[i])
			}
			for k := range refs[i].S {
				if res[i].S[k] != refs[i].S[k] {
					t.Fatalf("workers=%d item %d S[%d] differs", workers, i, k)
				}
			}
			for k := range refs[i].U.Data {
				if res[i].U.Data[k] != refs[i].U.Data[k] {
					t.Fatalf("workers=%d item %d U differs at %d", workers, i, k)
				}
			}
			for k := range refs[i].VT.Data {
				if res[i].VT.Data[k] != refs[i].VT.Data[k] {
					t.Fatalf("workers=%d item %d VT differs at %d", workers, i, k)
				}
			}
		}
	}
}

// TestBatchGelsdBitIdentical: batched least squares, bit-identical across
// worker counts, with a malformed item reported in errs without disturbing
// its neighbours.
func TestBatchGelsdBitIdentical(t *testing.T) {
	shapes := [][2]int{{10, 4}, {4, 10}, {8, 8}, {18, 5}}
	build := func() (as, bs []*la.Matrix[float64]) {
		for i, s := range shapes {
			as = append(as, randMat[float64](200+i, s[0], s[1]))
			bs = append(bs, randMat[float64](300+i, max(s[0], s[1]), 2))
		}
		// Malformed item: B has the wrong number of rows.
		as = append(as, randMat[float64](400, 6, 6))
		bs = append(bs, randMat[float64](401, 3, 2))
		return as, bs
	}

	refA, refB := build()
	refRanks := make([]int, len(shapes))
	refS := make([][]float64, len(shapes))
	for i := 0; i < len(shapes); i++ {
		rank, s, err := la.GELSD(refA[i], refB[i])
		if err != nil {
			t.Fatalf("GELSD ref %d: %v", i, err)
		}
		refRanks[i], refS[i] = rank, s
	}

	for _, workers := range []int{1, 2, 4, 8} {
		as, bs := build()
		old := blas.SetThreads(workers)
		ranks, ss, errs, err := la.BatchGelsd(as, bs)
		blas.SetThreads(old)
		if err != nil {
			t.Fatalf("BatchGelsd workers=%d: %v", workers, err)
		}
		bad := len(shapes)
		if errs[bad] == nil {
			t.Fatalf("workers=%d: malformed item not reported", workers)
		}
		var e *la.Error
		if !errors.As(errs[bad], &e) || e.Info != -2 {
			t.Fatalf("workers=%d: malformed item error = %v", workers, errs[bad])
		}
		for i := 0; i < len(shapes); i++ {
			if errs[i] != nil {
				t.Fatalf("workers=%d item %d: %v", workers, i, errs[i])
			}
			if ranks[i] != refRanks[i] {
				t.Fatalf("workers=%d item %d rank %d vs %d", workers, i, ranks[i], refRanks[i])
			}
			for k := range refS[i] {
				if ss[i][k] != refS[i][k] {
					t.Fatalf("workers=%d item %d s[%d] differs", workers, i, k)
				}
			}
			for k := range refB[i].Data {
				if bs[i].Data[k] != refB[i].Data[k] {
					t.Fatalf("workers=%d item %d solution differs at %d", workers, i, k)
				}
			}
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
