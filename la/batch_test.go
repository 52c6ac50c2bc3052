package la_test

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/blas"
	"repro/internal/faultinject"
	"repro/internal/testutil/diff"
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

func cloneBatch[T la.Scalar](ms []*la.Matrix[T]) []*la.Matrix[T] {
	out := make([]*la.Matrix[T], len(ms))
	for i, m := range ms {
		if m != nil {
			out[i] = m.Clone()
		}
	}
	return out
}

// A batchPin is a batched driver with the single-call driver it must
// reproduce: run hashes every output of every item, and the item's error,
// from a serial loop over the single-call driver or from one batched call.
type batchPin struct {
	name string
	run  func(t *testing.T, h *diff.Hash, batch bool)
}

// TestBatchMatchesLoop: every batched driver, over items of mixed sizes, gives
// the bits of a serial loop over its single-call driver — factors, solutions,
// pivots, singular values, bounds, EQUED, per-item errors — at every count of
// diff.Threads. BatchGesv runs on all four types (float64 factors on the
// vector step kernel under the small-matrix crossover, the others on the
// generic step) on both sides of the crossover and every order class under it.
func TestBatchMatchesLoop(t *testing.T) {
	for _, p := range batchPins() {
		t.Run(p.name, func(t *testing.T) { matchesLoop(t, p) })
	}
}

// matchesLoop checks one pin at every count of diff.Threads.
func matchesLoop(t *testing.T, p batchPin) {
	defer blas.SetThreads(blas.Threads())
	loop := diff.NewHash()
	p.run(t, loop, false)
	for _, n := range diff.Threads {
		blas.SetThreads(n)
		h := diff.NewHash()
		if p.run(t, h, true); h.Sum64() != loop.Sum64() {
			t.Errorf("%s, %d threads: the batch differs bitwise from the loop", p.name, n)
		}
	}
}

func batchPins() []batchPin {
	var gesvA, gesvB, gesvxA, gesvxB, posvxA, posvxB []*la.Matrix[float64]
	for i, n := range []int{1, 3, 4, 7, 8, 16, 17, 31, 32, 33, 48, 64, 65, 96} {
		gesvA, gesvB = append(gesvA, newGen(n, i)), append(gesvB, newRHS(n, 1+i%3))
	}
	for i, n := range []int{1, 3, 7, 13, 16, 24, 33, 48} {
		a := intMat[float64](i, n)
		if i%3 == 1 { // grade some items so equilibration actually fires
			for r := 0; r < n && n > 1; r++ {
				d := math.Ldexp(1, -100+200*r/(n-1))
				for c := 0; c < n; c++ {
					a.Set(r, c, d*a.At(r, c))
				}
			}
		}
		gesvxA, gesvxB = append(gesvxA, a), append(gesvxB, newRHS(n, 1+i%3))
	}
	for i, n := range []int{2, 5, 9, 17, 32, 41} {
		posvxA, posvxB = append(posvxA, intSym[float64](i, n)), append(posvxB, newRHS(n, 1+i%2))
	}
	return []batchPin{
		gesvPin(gesvA, gesvB), randomGesvPin[float32](), randomGesvPin[complex128](), randomGesvPin[complex64](),
		expertPin("GESVX", gesvxA, gesvxB, true, la.GESVX[float64], la.BatchGesvx[float64]),
		expertPin("POSVX", posvxA, posvxB, false, la.POSVX[float64], la.BatchPosvx[float64]),
		{"GESDD", func(t *testing.T, h *diff.Hash, batch bool) {
			var as []*la.Matrix[float64]
			for i, s := range [][2]int{{12, 12}, {30, 7}, {7, 30}, {20, 20}, {25, 9}, {1, 1}} {
				as = append(as, randMat[float64](100+i, s[0], s[1]))
			}
			res, errs := make([]*la.SVDResult[float64], len(as)), make([]error, len(as))
			if batch {
				var err error
				if res, errs, err = la.BatchGesdd(as); err != nil {
					t.Fatalf("BatchGesdd: %v", err)
				}
			} else {
				for i, a := range as {
					res[i], errs[i] = la.GESVD(a)
				}
			}
			for i, r := range res {
				if errs[i] != nil {
					t.Fatalf("item %d: %v", i, errs[i])
				}
				diff.Add(h, r.S, r.U.Data, r.VT.Data)
			}
		}},
		{"GELSD", func(t *testing.T, h *diff.Hash, batch bool) {
			var as, bs []*la.Matrix[float64]
			shapes := [][2]int{{10, 4}, {4, 10}, {8, 8}, {18, 5}, {6, 6}}
			for i, s := range shapes {
				as = append(as, randMat[float64](200+i, s[0], s[1]))
				bs = append(bs, randMat[float64](300+i, max(s[0], s[1]), 2))
			}
			bad := len(shapes) - 1
			bs[bad] = randMat[float64](401, 3, 2) // malformed: B has the wrong number of rows
			ranks, ss, errs := make([]int, len(as)), make([][]float64, len(as)), make([]error, len(as))
			if batch {
				var err error
				if ranks, ss, errs, err = la.BatchGelsd(as, bs); err != nil {
					t.Fatalf("BatchGelsd: %v", err)
				}
			} else {
				for i := range as {
					ranks[i], ss[i], errs[i] = la.GELSD(as[i], bs[i])
				}
			}
			for i := range as {
				var e *la.Error
				if i == bad && !(errors.As(errs[i], &e) && e.Info == -2) || i != bad && errs[i] != nil {
					t.Fatalf("batch=%v item %d: error %v", batch, i, errs[i])
				}
				h.Int(ranks[i])
				diff.Add(h, ss[i], bs[i].Data)
			}
		}},
	}
}

func randomGesvPin[T la.Scalar]() batchPin {
	var as, bs []*la.Matrix[T]
	for i, n := range []int{1, 2, 4, 5, 8, 12, 16, 33, 48, 63, 64, 65, 96} {
		as, bs = append(as, randMat[T](200+i, n, n)), append(bs, randMat[T](300+i, n, 1+i%3))
	}
	return gesvPin(as, bs)
}

func gesvPin[T la.Scalar](as0, bs0 []*la.Matrix[T]) batchPin {
	return batchPin{fmt.Sprintf("GESV/%T", *new(T)), func(t *testing.T, h *diff.Hash, batch bool) {
		as, bs := cloneBatch(as0), cloneBatch(bs0)
		ipivs, errs := make([][]int, len(as)), make([]error, len(as))
		if batch {
			var err error
			if ipivs, errs, err = la.BatchGesv(as, bs); err != nil {
				t.Fatalf("BatchGesv: %v", err)
			}
		} else {
			for i := range as {
				ipivs[i], errs[i] = la.GESV(as[i], bs[i])
			}
		}
		for i := range as {
			if errs[i] != nil {
				t.Fatalf("batch=%v item %d: %v", batch, i, errs[i])
			}
			diff.Add(h, as[i].Data, bs[i].Data)
			h.Int(ipivs[i]...)
		}
	}}
}

// expertPin pins a batched expert driver, equilibration on; errorsOK lets an
// item fail (the same way in the loop and the batch).
func expertPin(name string, as0, bs0 []*la.Matrix[float64], errorsOK bool,
	single func(a, b *la.Matrix[float64], opts ...la.Opt) (*la.ExpertResult[float64], error),
	batched func(as, bs []*la.Matrix[float64], opts ...la.Opt) ([]*la.ExpertResult[float64], []error, error)) batchPin {
	return batchPin{name, func(t *testing.T, h *diff.Hash, batch bool) {
		as, bs := cloneBatch(as0), cloneBatch(bs0)
		res, errs := make([]*la.ExpertResult[float64], len(as)), make([]error, len(as))
		if batch {
			var err error
			if res, errs, err = batched(as, bs, la.WithEquilibration()); err != nil {
				t.Fatalf("batch: %v", err)
			}
		} else {
			for i := range as {
				res[i], errs[i] = single(as[i], bs[i], la.WithEquilibration())
			}
		}
		for i, r := range res {
			var e *la.Error
			switch {
			case errors.As(errs[i], &e) && errorsOK:
				h.Int(e.Info, int(e.Diag))
			case errs[i] != nil:
				t.Fatalf("batch=%v item %d: %v", batch, i, errs[i])
			}
			diff.Add(h, r.X.Data)
			h.Float(slices.Concat([]float64{r.RCond, r.RPvGrw}, r.Ferr, r.Berr)...)
			h.Int(int(r.Equed))
			h.Int(r.IPiv...)
		}
	}}
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

// TestBatchItemErrorsAreSingleCallErrors: errs[i] of every Batch driver is
// the error its single-call driver returns for problem i — same Info, same
// Diag, same text — for every input class: nil, non-square, B with the wrong
// rows, Stride < Rows, short Data and a numerical failure (singular, not
// positive definite, NaN in an eigen/SVD iteration). BatchGemm, which has no
// single-call twin, is held to the stored-matrix rule's INFO instead. Item
// 0 of every batch is well formed and must solve.
func TestBatchItemErrorsAreSingleCallErrors(t *testing.T) {
	type M = *la.Matrix[float64]
	stride, short := strideBelowRows, shortData
	sing, notPD, nan := newGen(5, 1), newGen(5, 2), newSPD(5)
	for j := 0; j < 5; j++ {
		sing.Set(2, j, 0)
	}
	notPD.Set(3, 3, -1)
	nan.Set(1, 1, math.NaN())
	classes := []struct {
		name string
		a, b M
	}{
		{"nil", nil, newRHS(5, 1)},
		{"non-square", la.NewMatrix[float64](4, 6), newRHS(4, 1)},
		{"B rows", newGen(5, 3), newRHS(3, 1)},
		{"A stride", stride(newGen(5, 4)), newRHS(5, 1)},
		{"B stride", newGen(5, 4), stride(newRHS(5, 2))},
		{"A short", short(newGen(5, 5)), newRHS(5, 1)},
		{"B short", newGen(5, 5), short(newRHS(5, 2))},
		{"singular", sing, newRHS(5, 1)},
		{"not PD", notPD, newRHS(5, 1)},
		{"NaN", nan, newRHS(5, 1)},
	}
	sentinel := map[string]error{"GESV singular": la.ErrSingular, "GESVX singular": la.ErrSingular,
		"POSV not PD": la.ErrNotPositiveDefinite, "POSVX not PD": la.ErrNotPositiveDefinite,
		"SYEV NaN": la.ErrNotConverged, "GESDD NaN": la.ErrNotConverged, "GELSD NaN": la.ErrNotConverged}
	for _, d := range []struct {
		name   string
		single func(a, b M) error
		batch  func(as, bs []M) ([]error, error)
	}{
		{"GESV", func(a, b M) error { _, err := la.GESV(a, b); return err },
			func(as, bs []M) ([]error, error) { _, errs, err := la.BatchGesv(as, bs); return errs, err }},
		{"POSV", func(a, b M) error { return la.POSV(a, b) }, func(as, bs []M) ([]error, error) { return la.BatchPosv(as, bs) }},
		{"SYEV", func(a, _ M) error { _, err := la.SYEV(a); return err },
			func(as, _ []M) ([]error, error) { _, errs, err := la.BatchSyev(as); return errs, err }},
		{"GESVX", func(a, b M) error { _, err := la.GESVX(a, b); return err },
			func(as, bs []M) ([]error, error) { _, errs, err := la.BatchGesvx(as, bs); return errs, err }},
		{"POSVX", func(a, b M) error { _, err := la.POSVX(a, b); return err },
			func(as, bs []M) ([]error, error) { _, errs, err := la.BatchPosvx(as, bs); return errs, err }},
		{"GESDD", func(a, _ M) error { _, err := la.GESVD(a); return err },
			func(as, _ []M) ([]error, error) { _, errs, err := la.BatchGesdd(as); return errs, err }},
		{"GELSD", func(a, b M) error { _, _, err := la.GELSD(a, b); return err },
			func(as, bs []M) ([]error, error) { _, _, errs, err := la.BatchGelsd(as, bs); return errs, err }},
		{"GEMM", func(a, b M) error { // the rule's INFO: A is argument 2, B 3
			switch {
			case a == nil || a.Stride < a.Rows || len(a.Data) < a.Rows*a.Cols:
				return &la.Error{Info: -2}
			case b.Stride < b.Rows || len(b.Data) < b.Rows*b.Cols || b.Rows != a.Cols:
				return &la.Error{Info: -3}
			}
			return nil
		}, func(as, bs []M) ([]error, error) { return la.BatchGemm(1, as, bs, 0, []M{newRHS(5, 1), newRHS(5, 1)}) }},
	} {
		for _, c := range classes {
			clone := func(m M) M {
				if m == nil {
					return nil
				}
				return &la.Matrix[float64]{Rows: m.Rows, Cols: m.Cols, Stride: m.Stride, Data: slices.Clone(m.Data)}
			}
			want := d.single(clone(c.a), clone(c.b))
			errs, err := d.batch([]M{newGen(5, 0), clone(c.a)}, []M{newRHS(5, 1), clone(c.b)})
			if err != nil || errs[0] != nil {
				t.Fatalf("%s %s: batch error %v, item 0 error %v", d.name, c.name, err, errs[0])
			}
			var we, ge *la.Error
			if (want == nil) != (errs[1] == nil) || want != nil && (!errors.As(want, &we) || !errors.As(errs[1], &ge) ||
				we.Info != ge.Info || we.Diag != ge.Diag || d.name != "GEMM" && we.Error() != ge.Error()) {
				t.Errorf("%s %s: Batch item error %v, single call %v", d.name, c.name, errs[1], want)
			}
			if s, ok := sentinel[d.name+" "+c.name]; ok && !errors.Is(errs[1], s) {
				t.Errorf("%s %s: errors.Is(%v, %v) is false", d.name, c.name, errs[1], s)
			}
		}
	}
}

// TestBatchPosvMatchesLooped pins BatchPosv against looped la.POSV on both
// triangles — factor and solution — over orders on both sides of the
// small-matrix crossover, as TestBatchMatchesLoop pins the other drivers.
func TestBatchPosvMatchesLooped(t *testing.T) {
	for _, uplo := range []la.UpLo{la.Upper, la.Lower} {
		matchesLoop(t, batchPin{fmt.Sprintf("uplo=%v", uplo), func(t *testing.T, h *diff.Hash, batch bool) {
			var as, bs []*la.Matrix[float64]
			for i, n := range []int{1, 2, 4, 5, 8, 12, 16, 33, 48, 63, 64, 65, 96} {
				as, bs = append(as, newSPD(n)), append(bs, newRHS(n, 1+i%2))
			}
			errs := make([]error, len(as))
			if batch {
				var err error
				if errs, err = la.BatchPosv(as, bs, la.WithUpLo(uplo)); err != nil {
					t.Fatalf("BatchPosv: %v", err)
				}
			} else {
				for i := range as {
					errs[i] = la.POSV(as[i], bs[i], la.WithUpLo(uplo))
				}
			}
			for i := range as {
				if errs[i] != nil {
					t.Fatalf("uplo=%v batch=%v item %d: %v", uplo, batch, i, errs[i])
				}
				diff.Add(h, as[i].Data, bs[i].Data)
			}
		}})
	}
}

// TestBatchSyevMatchesLooped pins BatchSyev (with vectors) against looped
// la.SYEV the same way.
func TestBatchSyevMatchesLooped(t *testing.T) {
	matchesLoop(t, batchPin{"SYEV", func(t *testing.T, h *diff.Hash, batch bool) {
		var as []*la.Matrix[float64]
		for _, n := range []int{1, 4, 9, 16, 25} {
			as = append(as, newSPD(n))
		}
		ws, errs := make([][]float64, len(as)), make([]error, len(as))
		if batch {
			var err error
			if ws, errs, err = la.BatchSyev(as, la.WithVectors()); err != nil {
				t.Fatalf("BatchSyev: %v", err)
			}
		} else {
			for i, a := range as {
				ws[i], errs[i] = la.SYEV(a, la.WithVectors())
			}
		}
		for i := range as {
			if errs[i] != nil {
				t.Fatalf("batch=%v item %d: %v", batch, i, errs[i])
			}
			diff.Add(h, ws[i], as[i].Data)
		}
	}})
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
