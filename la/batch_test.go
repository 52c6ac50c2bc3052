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

// newGen returns an n×n diagonally dominant but nonsymmetric matrix whose
// entries vary with a seed, so different batch items factor different data.
func newGen(n, seed int) *la.Matrix[float64] {
	a := la.NewMatrix[float64](n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			v := 1.0/float64(1+((3*i+5*j+seed)%23)) - 1.0/float64(2+((i+2*j)%7))
			if i == j {
				v += float64(n) + float64(seed%5)
			}
			a.Set(i, j, v)
		}
	}
	return a
}

func cloneBatch(ms []*la.Matrix[float64]) []*la.Matrix[float64] {
	out := make([]*la.Matrix[float64], len(ms))
	for i, m := range ms {
		if m != nil {
			out[i] = m.Clone()
		}
	}
	return out
}

// TestBatchGesvBitIdentical is the batched determinism pin: BatchGesv over
// mixed problem sizes must produce byte-for-byte the factors, solutions and
// pivots of a serial loop over la.GESV, at every worker count.
func TestBatchGesvBitIdentical(t *testing.T) {
	var as0, bs0 []*la.Matrix[float64]
	for i, n := range []int{1, 3, 4, 7, 8, 16, 17, 31, 32, 33, 48, 64, 65, 96} {
		as0 = append(as0, newGen(n, i))
		bs0 = append(bs0, newRHS(n, 1+i%3))
	}
	batchGesvMatchesLooped(t, as0, bs0)
}

// TestBatchGesvMatchesLooped is the same pin on the other three element
// types: under the small-matrix crossover float64 factors on the vector step
// kernel and they on the generic step, and a batch must give the loop's bits
// there too, on either side of the crossover and on every order class under
// it (ragged block only, full blocks only, ragged block first).
func TestBatchGesvMatchesLooped(t *testing.T) {
	t.Run("float32", randomBatchGesvMatchesLooped[float32])
	t.Run("complex128", randomBatchGesvMatchesLooped[complex128])
	t.Run("complex64", randomBatchGesvMatchesLooped[complex64])
}

func randomBatchGesvMatchesLooped[T la.Scalar](t *testing.T) {
	var as0, bs0 []*la.Matrix[T]
	for i, n := range []int{1, 2, 4, 5, 8, 12, 16, 33, 48, 63, 64, 65, 96} {
		as0 = append(as0, randMat[T](200+i, n, n))
		bs0 = append(bs0, randMat[T](300+i, n, 1+i%3))
	}
	batchGesvMatchesLooped(t, as0, bs0)
}

func batchGesvMatchesLooped[T la.Scalar](t *testing.T, as0, bs0 []*la.Matrix[T]) {
	clone := func(ms []*la.Matrix[T]) []*la.Matrix[T] {
		out := make([]*la.Matrix[T], len(ms))
		for i, m := range ms {
			out[i] = m.Clone()
		}
		return out
	}
	// Serial reference: the single-call driver, looped.
	asRef, bsRef := clone(as0), clone(bs0)
	ipivRef := make([][]int, len(as0))
	for i := range asRef {
		ipiv, err := la.GESV(asRef[i], bsRef[i])
		if err != nil {
			t.Fatalf("reference GESV[%d]: %v", i, err)
		}
		ipivRef[i] = ipiv
	}
	for _, threads := range []int{1, 2, 4, 8} {
		func() {
			defer blas.SetThreads(blas.SetThreads(threads))
			as, bs := clone(as0), clone(bs0)
			ipivs, errs, err := la.BatchGesv(as, bs)
			if err != nil {
				t.Fatalf("threads=%d: batch error: %v", threads, err)
			}
			for i := range as {
				if errs[i] != nil {
					t.Fatalf("threads=%d: item %d: %v", threads, i, errs[i])
				}
				for k, p := range ipivs[i] {
					if p != ipivRef[i][k] {
						t.Fatalf("threads=%d: item %d: ipiv[%d] = %d, want %d", threads, i, k, p, ipivRef[i][k])
					}
				}
				for k, v := range as[i].Data {
					if v != asRef[i].Data[k] {
						t.Fatalf("threads=%d: item %d: factor byte-diff at %d: %v vs %v",
							threads, i, k, v, asRef[i].Data[k])
					}
				}
				for k, v := range bs[i].Data {
					if v != bsRef[i].Data[k] {
						t.Fatalf("threads=%d: item %d: solution byte-diff at %d: %v vs %v",
							threads, i, k, v, bsRef[i].Data[k])
					}
				}
			}
		}()
	}
}

// TestBatchGesvPerItemErrors checks the two-level error contract: invalid
// items report their own argument error while the rest of the batch solves,
// and only a malformed batch (length mismatch) fails the call itself.
func TestBatchGesvPerItemErrors(t *testing.T) {
	as := []*la.Matrix[float64]{newGen(8, 0), la.NewMatrix[float64](4, 6), newGen(5, 2), nil}
	bs := []*la.Matrix[float64]{newRHS(8, 1), newRHS(4, 1), newRHS(3, 1), newRHS(2, 1)}
	ipivs, errs, err := la.BatchGesv(as, bs)
	if err != nil {
		t.Fatalf("batch error: %v", err)
	}
	if errs[0] != nil {
		t.Errorf("item 0 (valid): %v", errs[0])
	}
	if len(ipivs[0]) != 8 {
		t.Errorf("item 0: ipiv length %d, want 8", len(ipivs[0]))
	}
	for _, i := range []int{1, 2, 3} {
		var e *la.Error
		if !errors.As(errs[i], &e) || e.Info >= 0 {
			t.Errorf("item %d: want argument *la.Error, got %v", i, errs[i])
		}
	}
	if _, _, err := la.BatchGesv(as, bs[:2]); err == nil {
		t.Error("length mismatch did not fail the batch")
	}
}

// TestBatchItemErrorsAreSingleCallErrors: errs[i] of BatchGesv/BatchPosv on a
// singular / not positive definite item is the error GESV/POSV returns for
// that item — same sentinel under errors.Is, same text.
func TestBatchItemErrorsAreSingleCallErrors(t *testing.T) {
	sing := newGen(5, 1)
	for j := 0; j < 5; j++ {
		sing.Set(2, j, 0)
	}
	notPD := newGen(5, 2)
	notPD.Set(3, 3, -1)
	for _, c := range []struct {
		name     string
		bad      *la.Matrix[float64]
		sentinel error
		single   func(a, b *la.Matrix[float64]) error
		batch    func(as, bs []*la.Matrix[float64]) []error
	}{
		{"GESV", sing, la.ErrSingular,
			func(a, b *la.Matrix[float64]) error { _, err := la.GESV(a, b); return err },
			func(as, bs []*la.Matrix[float64]) []error { _, errs, _ := la.BatchGesv(as, bs); return errs }},
		{"POSV", notPD, la.ErrNotPositiveDefinite,
			func(a, b *la.Matrix[float64]) error { return la.POSV(a, b) },
			func(as, bs []*la.Matrix[float64]) []error { errs, _ := la.BatchPosv(as, bs); return errs }},
	} {
		want := c.single(c.bad.Clone(), newRHS(5, 1))
		errs := c.batch([]*la.Matrix[float64]{newGen(5, 0), c.bad.Clone()}, []*la.Matrix[float64]{newRHS(5, 1), newRHS(5, 1)})
		if errs[0] != nil {
			t.Errorf("Batch%s item 0 (valid): %v", c.name, errs[0])
		}
		if !errors.Is(want, c.sentinel) {
			t.Fatalf("%s: %v is not %v", c.name, want, c.sentinel)
		}
		if !errors.Is(errs[1], c.sentinel) {
			t.Errorf("Batch%s: errors.Is(%v, %v) is false", c.name, errs[1], c.sentinel)
		}
		if errs[1] == nil || errs[1].Error() != want.Error() {
			t.Errorf("Batch%s item error %q, %s returns %q", c.name, errs[1], c.name, want)
		}
	}
}

// TestBatchPosvMatchesLooped pins BatchPosv against looped la.POSV on both
// triangles — factor and solution, byte for byte, at every worker count —
// over orders on both sides of the small-matrix crossover.
func TestBatchPosvMatchesLooped(t *testing.T) {
	for _, uplo := range []la.UpLo{la.Upper, la.Lower} {
		var as0, bs0 []*la.Matrix[float64]
		for i, n := range []int{1, 2, 4, 5, 8, 12, 16, 33, 48, 63, 64, 65, 96} {
			as0 = append(as0, newSPD(n))
			bs0 = append(bs0, newRHS(n, 1+i%2))
		}
		asRef, bsRef := cloneBatch(as0), cloneBatch(bs0)
		for i := range asRef {
			if err := la.POSV(asRef[i], bsRef[i], la.WithUpLo(uplo)); err != nil {
				t.Fatalf("reference POSV[%d]: %v", i, err)
			}
		}
		for _, threads := range []int{1, 2, 4, 8} {
			func() {
				defer blas.SetThreads(blas.SetThreads(threads))
				as, bs := cloneBatch(as0), cloneBatch(bs0)
				errs, err := la.BatchPosv(as, bs, la.WithUpLo(uplo))
				if err != nil {
					t.Fatalf("batch error: %v", err)
				}
				for i := range as {
					if errs[i] != nil {
						t.Fatalf("item %d: %v", i, errs[i])
					}
					for k, v := range as[i].Data {
						if v != asRef[i].Data[k] {
							t.Fatalf("uplo=%v threads=%d item %d: factor byte-diff at %d", uplo, threads, i, k)
						}
					}
					for k, v := range bs[i].Data {
						if v != bsRef[i].Data[k] {
							t.Fatalf("uplo=%v threads=%d item %d: solution byte-diff at %d", uplo, threads, i, k)
						}
					}
				}
			}()
		}
	}
}

// TestBatchSyevMatchesLooped pins BatchSyev (with vectors) against looped
// la.SYEV.
func TestBatchSyevMatchesLooped(t *testing.T) {
	defer blas.SetThreads(blas.SetThreads(4))
	var as0 []*la.Matrix[float64]
	for _, n := range []int{1, 4, 9, 16, 25} {
		as0 = append(as0, newSPD(n))
	}
	asRef := cloneBatch(as0)
	wRef := make([][]float64, len(asRef))
	for i := range asRef {
		w, err := la.SYEV(asRef[i], la.WithVectors())
		if err != nil {
			t.Fatalf("reference SYEV[%d]: %v", i, err)
		}
		wRef[i] = w
	}
	ws, errs, err := la.BatchSyev(as0, la.WithVectors())
	if err != nil {
		t.Fatalf("batch error: %v", err)
	}
	for i := range as0 {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		for k, v := range ws[i] {
			if v != wRef[i][k] {
				t.Fatalf("item %d: eigenvalue byte-diff at %d: %v vs %v", i, k, v, wRef[i][k])
			}
		}
		for k, v := range as0[i].Data {
			if v != asRef[i].Data[k] {
				t.Fatalf("item %d: eigenvector byte-diff at %d", i, k)
			}
		}
	}
}

// TestBatchGemm checks the batched product against a scalar oracle across
// the four trans combinations, plus per-item conformance errors.
func TestBatchGemm(t *testing.T) {
	defer blas.SetThreads(blas.SetThreads(4))
	mk := func(r, c, seed int) *la.Matrix[float64] {
		m := la.NewMatrix[float64](r, c)
		for j := 0; j < c; j++ {
			for i := 0; i < r; i++ {
				m.Set(i, j, float64((i*7+j*3+seed)%11)-5)
			}
		}
		return m
	}
	const m, n, k = 9, 6, 4
	for _, tc := range []struct{ ta, tb la.Op }{
		{la.None, la.None}, {la.Trans, la.None}, {la.None, la.Trans}, {la.Trans, la.Trans},
	} {
		ar, ac := m, k
		if tc.ta != la.None {
			ar, ac = k, m
		}
		br, bc := k, n
		if tc.tb != la.None {
			br, bc = n, k
		}
		as := []*la.Matrix[float64]{mk(ar, ac, 1), mk(ar, ac, 2)}
		bs := []*la.Matrix[float64]{mk(br, bc, 3), mk(br, bc, 4)}
		cs := []*la.Matrix[float64]{mk(m, n, 5), mk(m, n, 6)}
		want := cloneBatch(cs)
		for i := range want {
			for jj := 0; jj < n; jj++ {
				for ii := 0; ii < m; ii++ {
					sum := 1.5 * want[i].At(ii, jj) // beta
					for p := 0; p < k; p++ {
						var av, bv float64
						if tc.ta != la.None {
							av = as[i].At(p, ii)
						} else {
							av = as[i].At(ii, p)
						}
						if tc.tb != la.None {
							bv = bs[i].At(jj, p)
						} else {
							bv = bs[i].At(p, jj)
						}
						sum += 2 * av * bv // alpha
					}
					want[i].Set(ii, jj, sum)
				}
			}
		}
		errs, err := la.BatchGemm(2.0, as, bs, 1.5, cs,
			la.WithTrans(tc.ta), la.WithTransB(tc.tb))
		if err != nil {
			t.Fatalf("ta=%v tb=%v: batch error: %v", tc.ta, tc.tb, err)
		}
		for i := range cs {
			if errs[i] != nil {
				t.Fatalf("ta=%v tb=%v item %d: %v", tc.ta, tc.tb, i, errs[i])
			}
			for p, v := range cs[i].Data {
				if math.Abs(v-want[i].Data[p]) > 1e-10 {
					t.Fatalf("ta=%v tb=%v item %d: C[%d] = %v, want %v",
						tc.ta, tc.tb, i, p, v, want[i].Data[p])
				}
			}
		}
	}
	// Non-conforming item fails alone.
	as := []*la.Matrix[float64]{mk(3, 4, 0), mk(3, 4, 1)}
	bs := []*la.Matrix[float64]{mk(4, 2, 2), mk(5, 2, 3)}
	cs := []*la.Matrix[float64]{mk(3, 2, 4), mk(3, 2, 5)}
	errs, err := la.BatchGemm(1.0, as, bs, 0.0, cs)
	if err != nil {
		t.Fatalf("batch error: %v", err)
	}
	if errs[0] != nil || errs[1] == nil {
		t.Errorf("conformance errors misplaced: %v, %v", errs[0], errs[1])
	}
}

// TestBatchWorkerPanicContained is the batched fault-containment pin: with
// an armed worker fault, exactly one item of the batch reports a contained
// *la.Error (InfoPanic, worker stack, injected message) while every sibling
// still solves its system correctly — and the process survives.
func TestBatchWorkerPanicContained(t *testing.T) {
	defer blas.SetThreads(blas.SetThreads(4))
	defer faultinject.Reset()

	const n, batch = 16, 32
	as := make([]*la.Matrix[float64], batch)
	bs := make([]*la.Matrix[float64], batch)
	for i := range as {
		as[i] = newGen(n, i)
		bs[i] = newRHS(n, 1)
	}
	asRef, bsRef := cloneBatch(as), cloneBatch(bs)
	for i := range asRef {
		if _, err := la.GESV(asRef[i], bsRef[i]); err != nil {
			t.Fatalf("reference GESV[%d]: %v", i, err)
		}
	}

	faultinject.ArmWorkerPanics(1)
	_, errs, err := la.BatchGesv(as, bs)
	if err != nil {
		t.Fatalf("batch error: %v", err)
	}
	faulted := -1
	for i, e := range errs {
		if e == nil {
			continue
		}
		if faulted != -1 {
			t.Fatalf("more than one faulted item: %d and %d", faulted, i)
		}
		faulted = i
		var le *la.Error
		if !errors.As(e, &le) {
			t.Fatalf("item %d error is %T, want *la.Error", i, e)
		}
		if le.Info != la.InfoPanic {
			t.Errorf("item %d: Info = %d, want InfoPanic", i, le.Info)
		}
		if len(le.Stack) == 0 {
			t.Errorf("item %d: no worker stack attached", i)
		}
		if !strings.Contains(le.Detail, faultinject.PanicMessage) {
			t.Errorf("item %d: detail %q does not mention the injected fault", i, le.Detail)
		}
	}
	if faulted == -1 {
		t.Fatal("armed worker fault did not surface in any item")
	}
	for i := range as {
		if i == faulted {
			continue
		}
		for k, v := range bs[i].Data {
			if v != bsRef[i].Data[k] {
				t.Fatalf("sibling %d corrupted at %d", i, k)
			}
		}
	}

	// The pool is fully usable afterwards: re-solving the faulted item works.
	as2, bs2 := newGen(n, faulted), newRHS(n, 1)
	if _, err := la.GESV(as2, bs2); err != nil {
		t.Fatalf("post-fault solve: %v", err)
	}
}

// TestBatchGesvLowAlloc pins the workspace-recycling claim: beyond the
// returned pivot arrays and the two result slices, a batch solve must not
// allocate per item (the small-matrix path runs entirely out of stack and
// per-worker scratch).
func TestBatchGesvLowAlloc(t *testing.T) {
	defer blas.SetThreads(blas.SetThreads(1))
	const n, batch = 16, 64
	as := make([]*la.Matrix[float64], batch)
	bs := make([]*la.Matrix[float64], batch)
	pristineA := make([]*la.Matrix[float64], batch)
	pristineB := make([]*la.Matrix[float64], batch)
	for i := range as {
		as[i] = newGen(n, i)
		bs[i] = newRHS(n, 1)
		pristineA[i] = as[i].Clone()
		pristineB[i] = bs[i].Clone()
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := range as {
			copy(as[i].Data, pristineA[i].Data)
			copy(bs[i].Data, pristineB[i].Data)
		}
		_, errs, err := la.BatchGesv(as, bs)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range errs {
			if e != nil {
				t.Fatalf("item %d: %v", i, e)
			}
		}
	})
	// errs + ipivs + flat backing + a handful of closure headers — but
	// nothing proportional to the batch.
	if allocs > 10 {
		t.Errorf("BatchGesv allocates %v objects per batch of %d, want <= 10", allocs, batch)
	}
}
