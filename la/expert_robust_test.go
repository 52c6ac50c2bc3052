package la_test

// Conditioning and error-bound tests for the expert drivers: FERR must
// bound the true forward error (checked against systems whose exact
// solution is known in integer arithmetic, so the bound is tested against
// the truth, not against another float computation); equilibration must
// rescue systems whose rows span hundreds of orders of magnitude; a matrix
// that is singular to working precision must come back as the typed
// ErrSingularToWorkingPrecision with the condition estimate attached; and
// the batched expert drivers must be bit-identical to a serial loop of the
// single-call drivers at every worker count.

import (
	"errors"
	"math"
	"testing"

	"repro/internal/blas"
	"repro/la"
)

// intMat builds an n×n diagonally dominant matrix with small integer
// entries (integer real/imaginary parts for complex T), so that A·x with an
// integer x is exact in every scalar type.
func intMat[T la.Scalar](seed, n int) *la.Matrix[T] {
	a := la.NewMatrix[T](n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			re := float64((3*i+5*j+seed)%9 - 4)
			im := float64((i + 2*j + seed) % 5)
			if i == j {
				re += float64(9 * n)
				im = 0
			}
			a.Set(i, j, fromC[T](complex(re, im)))
		}
	}
	return a
}

// intSym symmetrizes intMat into a Hermitian diagonally dominant (hence
// positive definite) matrix, still with integer parts.
func intSym[T la.Scalar](seed, n int) *la.Matrix[T] {
	a := intMat[T](seed, n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			a.Set(j, i, fromC[T](conjOf(a.At(i, j))))
		}
		a.Set(j, j, fromC[T](complex(real(toC(a.At(j, j))), 0)))
	}
	return a
}

// exactRHS returns x with small integer entries and b = A·x computed in
// integer (complex128) arithmetic — exact, so x is the true solution of the
// stored system in every type.
func exactRHS[T la.Scalar](a *la.Matrix[T], nrhs int) (x, b *la.Matrix[T]) {
	n := a.Rows
	x = la.NewMatrix[T](n, nrhs)
	b = la.NewMatrix[T](n, nrhs)
	for j := 0; j < nrhs; j++ {
		for i := 0; i < n; i++ {
			x.Set(i, j, fromC[T](complex(float64((2*i+3*j)%7-3), float64((i+j)%3))))
		}
		for i := 0; i < n; i++ {
			var s complex128
			for k := 0; k < n; k++ {
				s += toC(a.At(i, k)) * toC(x.At(k, j))
			}
			b.Set(i, j, fromC[T](s))
		}
	}
	return x, b
}

// forwardErr returns max_j ‖xc_j − xt_j‖∞ / ‖xc_j‖∞, the quantity FERR
// bounds.
func forwardErr[T la.Scalar](xc, xt *la.Matrix[T]) float64 {
	worst := 0.0
	for j := 0; j < xc.Cols; j++ {
		diff, nrm := 0.0, 0.0
		for i := 0; i < xc.Rows; i++ {
			c, tv := toC(xc.At(i, j)), toC(xt.At(i, j))
			diff = math.Max(diff, math.Abs(real(c-tv))+math.Abs(imag(c-tv)))
			nrm = math.Max(nrm, math.Abs(real(c))+math.Abs(imag(c)))
		}
		if nrm > 0 {
			worst = math.Max(worst, diff/nrm)
		}
	}
	return worst
}

func testFerrBounds[T la.Scalar](t *testing.T, seed, n, nrhs int) {
	t.Helper()
	a := intMat[T](seed, n)
	xt, b := exactRHS(a, nrhs)
	res, err := la.GESVX(a.Clone(), b.Clone())
	if err != nil {
		t.Fatalf("GESVX: %v", err)
	}
	if got := forwardErr(res.X, xt); len(res.Ferr) != nrhs || got > res.Ferr[0]+res.Ferr[nrhs-1] {
		for j := 0; j < nrhs; j++ {
			if got > res.Ferr[j] {
				t.Fatalf("GESVX true error %.3e exceeds FERR[%d] = %.3e", got, j, res.Ferr[j])
			}
		}
	}
	if res.RCond <= 0 || res.RCond > 1 {
		t.Fatalf("GESVX RCond = %v out of (0,1]", res.RCond)
	}
	for j, be := range res.Berr {
		if be < 0 || math.IsNaN(be) {
			t.Fatalf("GESVX Berr[%d] = %v", j, be)
		}
	}
	s := intSym[T](seed+1, n)
	xts, bs := exactRHS(s, nrhs)
	resS, err := la.POSVX(s.Clone(), bs.Clone())
	if err != nil {
		t.Fatalf("POSVX: %v", err)
	}
	got := forwardErr(resS.X, xts)
	for j := 0; j < nrhs; j++ {
		if got > resS.Ferr[j] {
			t.Fatalf("POSVX true error %.3e exceeds FERR[%d] = %.3e", got, j, resS.Ferr[j])
		}
	}
}

// TestFerrBoundsTrueError: the guaranteed-bound property, all four scalar
// types, through both the LU and the Cholesky expert pipelines.
func TestFerrBoundsTrueError(t *testing.T) {
	for _, nr := range [][2]int{{7, 1}, {16, 2}, {33, 3}} {
		testFerrBounds[float32](t, 2, nr[0], nr[1])
		testFerrBounds[float64](t, 3, nr[0], nr[1])
		testFerrBounds[complex64](t, 4, nr[0], nr[1])
		testFerrBounds[complex128](t, 5, nr[0], nr[1])
	}
}

// TestGesvxEquilibrationRescue is the acceptance scenario: rows scaled by
// exact powers of two spanning 2^±500 (≈ 1e±150), which drives the
// condition number to ~1e300. The plain path cannot certify anything there
// — the expert driver without equilibration must report
// singular-to-working-precision (RCOND ~ 2^-1000), and the simple GESV
// solution visibly degrades (row grading distorts the pivot order). With
// equilibration the driver must detect the row scaling, recover a healthy
// RCOND, solve accurately, and return a FERR that truly bounds the error.
// The power-of-two scaling keeps the integer system exact, so every
// comparison is against the genuine solution.
func TestGesvxEquilibrationRescue(t *testing.T) {
	n := 24
	m := intMat[float64](6, n)
	xt, y := exactRHS(m, 2)
	a := la.NewMatrix[float64](n, n)
	b := la.NewMatrix[float64](n, 2)
	for i := 0; i < n; i++ {
		d := math.Ldexp(1, -500+1000*i/(n-1)) // 2^-500 .. 2^500, exact
		for j := 0; j < n; j++ {
			a.Set(i, j, d*m.At(i, j))
		}
		for j := 0; j < 2; j++ {
			b.Set(i, j, d*y.At(i, j))
		}
	}

	// Plain GESV on the graded system.
	bPlain := b.Clone()
	if _, err := la.GESV(a.Clone(), bPlain); err != nil {
		t.Logf("plain GESV failed outright: %v", err)
	}
	plainErr := forwardErr(bPlain, xt)

	// Expert driver without equilibration: it must refuse to certify the
	// graded system — RCOND ~ 2^-1000 is far below machine epsilon.
	if _, err := la.GESVX(a.Clone(), b.Clone()); !errors.Is(err, la.ErrSingularToWorkingPrecision) {
		t.Fatalf("unequilibrated GESVX on graded rows: err = %v, want ErrSingularToWorkingPrecision", err)
	}

	// Expert driver with equilibration.
	res, err := la.GESVX(a.Clone(), b.Clone(), la.WithEquilibration())
	if err != nil {
		t.Fatalf("GESVX(equilibrate): %v", err)
	}
	if res.Equed != 'R' && res.Equed != 'B' {
		t.Fatalf("Equed = %q, want row scaling applied", res.Equed)
	}
	expErr := forwardErr(res.X, xt)
	if expErr > 1e-12 {
		t.Fatalf("equilibrated solve error %.3e, want ≈ machine precision", expErr)
	}
	for j, fe := range res.Ferr {
		if expErr > fe {
			t.Fatalf("true error %.3e exceeds FERR[%d] = %.3e", expErr, j, fe)
		}
		if fe > 1e-10 {
			t.Fatalf("FERR[%d] = %.3e: bound is not small on the equilibrated system", j, fe)
		}
	}
	if plainErr < 10*expErr {
		t.Fatalf("plain GESV error %.3e vs equilibrated %.3e: scenario does not discriminate", plainErr, expErr)
	}
	if res.RCond <= 0x1p-52 {
		t.Fatalf("equilibrated RCond = %v, want a healthy estimate above machine epsilon", res.RCond)
	}
}

// hilbert returns the n×n Hilbert matrix, the canonical
// singular-to-working-precision input (cond(H13) ≈ 10^18).
func hilbert(n int) *la.Matrix[float64] {
	h := la.NewMatrix[float64](n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			h.Set(i, j, 1/float64(i+j+1))
		}
	}
	return h
}

// TestGesvxSingularToWorkingPrecision: RCOND below eps must surface as the
// typed sentinel, with the estimate and the solution still delivered.
func TestGesvxSingularToWorkingPrecision(t *testing.T) {
	n := 13
	h := hilbert(n)
	b := newRHS(n, 1)
	res, err := la.GESVX(h, b)
	if err == nil {
		t.Fatal("Hilbert(13) did not report ill-conditioning")
	}
	if !errors.Is(err, la.ErrSingularToWorkingPrecision) {
		t.Fatalf("errors.Is(err, ErrSingularToWorkingPrecision) = false; err = %v", err)
	}
	if errors.Is(err, la.ErrSingular) {
		t.Fatalf("working-precision singularity must not match exact ErrSingular: %v", err)
	}
	var e *la.Error
	if !errors.As(err, &e) {
		t.Fatalf("err is not *la.Error: %T", err)
	}
	if e.Info != n+1 {
		t.Fatalf("Info = %d, want %d (the n+1 convention)", e.Info, n+1)
	}
	if e.RCond <= 0 || e.RCond >= 0x1p-52 {
		t.Fatalf("diagnosed RCond = %v, want a positive value below machine epsilon", e.RCond)
	}
	if e.Diag != la.DiagSingularToWorkingPrecision {
		t.Fatalf("Diag = %v", e.Diag)
	}
	if res == nil || res.X == nil {
		t.Fatal("solution and bounds must still be delivered alongside the diagnosis")
	}
	for _, v := range res.X.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("delivered solution contains %v", v)
		}
	}
	if res.RCond != e.RCond {
		t.Fatalf("result RCond %v != error RCond %v", res.RCond, e.RCond)
	}
}

// TestGesvxGradedChaos pushes graded and near-singular matrices through the
// expert driver under input screening: every case must return either a
// finite solution with coherent bounds or a typed *la.Error — never a
// panic, never silent garbage bounds.
func TestGesvxGradedChaos(t *testing.T) {
	n := 16
	cases := map[string]*la.Matrix[float64]{}
	g := intMat[float64](8, n)
	for i := 0; i < n; i++ { // graded both ways
		d := math.Ldexp(1, -400+800*((i*7)%n)/(n-1))
		for j := 0; j < n; j++ {
			g.Set(i, j, d*g.At(i, j))
		}
	}
	cases["graded-rows"] = g
	cases["hilbert"] = hilbert(n)
	r1 := intMat[float64](9, n)
	for j := 0; j < n; j++ { // rank deficient: duplicate column
		r1.Set(j, 3, r1.At(j, 5))
	}
	cases["dup-column"] = r1
	tiny := intMat[float64](10, n)
	for i := range tiny.Data {
		tiny.Data[i] *= 1e-300
	}
	cases["uniform-tiny"] = tiny
	for name, a := range cases {
		for _, equil := range []bool{false, true} {
			opts := []la.Opt{la.WithCheck()}
			if equil {
				opts = append(opts, la.WithEquilibration())
			}
			res, err := la.GESVX(a.Clone(), newRHS(n, 1), opts...)
			if err != nil {
				var e *la.Error
				if !errors.As(err, &e) {
					t.Fatalf("%s equil=%v: untyped error %T: %v", name, equil, err, err)
				}
				continue
			}
			if res.RCond < 0 || res.RCond > 1 || math.IsNaN(res.RCond) {
				t.Fatalf("%s equil=%v: RCond = %v", name, equil, res.RCond)
			}
			for j, be := range res.Berr {
				if math.IsNaN(be) {
					t.Fatalf("%s equil=%v: Berr[%d] = NaN", name, equil, j)
				}
			}
		}
	}
}

// TestBatchGesvxBitIdentical: the batched expert driver must reproduce a
// serial loop of GESVX — solution bits, RCOND, FERR, BERR, EQUED and the
// per-item errors — at every worker count, equilibration on.
func TestBatchGesvxBitIdentical(t *testing.T) {
	sizes := []int{1, 3, 7, 13, 16, 24, 33, 48}
	var as0, bs0 []*la.Matrix[float64]
	for i, n := range sizes {
		a := intMat[float64](i, n)
		if i%3 == 1 { // grade some items so equilibration actually fires
			for r := 0; r < n && n > 1; r++ {
				d := math.Ldexp(1, -100+200*r/(n-1))
				for c := 0; c < n; c++ {
					a.Set(r, c, d*a.At(r, c))
				}
			}
		}
		as0 = append(as0, a)
		bs0 = append(bs0, newRHS(n, 1+i%3))
	}
	// Serial reference.
	type ref struct {
		res *la.ExpertResult[float64]
		err error
	}
	refs := make([]ref, len(sizes))
	for i := range as0 {
		r, err := la.GESVX(as0[i].Clone(), bs0[i].Clone(), la.WithEquilibration())
		refs[i] = ref{r, err}
	}
	for _, threads := range []int{1, 2, 4, 8} {
		func() {
			defer blas.SetThreads(blas.SetThreads(threads))
			as, bs := cloneBatch(as0), cloneBatch(bs0)
			results, errs, err := la.BatchGesvx(as, bs, la.WithEquilibration())
			if err != nil {
				t.Fatalf("threads=%d: %v", threads, err)
			}
			for i := range results {
				if (errs[i] == nil) != (refs[i].err == nil) {
					t.Fatalf("threads=%d item %d: err %v, serial %v", threads, i, errs[i], refs[i].err)
				}
				got, want := results[i], refs[i].res
				if got.RCond != want.RCond || got.Equed != want.Equed || got.RPvGrw != want.RPvGrw {
					t.Fatalf("threads=%d item %d: (rcond,equed,rpvgrw) = (%v,%c,%v), serial (%v,%c,%v)",
						threads, i, got.RCond, got.Equed, got.RPvGrw, want.RCond, want.Equed, want.RPvGrw)
				}
				for k := range got.X.Data {
					if got.X.Data[k] != want.X.Data[k] {
						t.Fatalf("threads=%d item %d: X byte-diff at %d", threads, i, k)
					}
				}
				for j := range got.Ferr {
					if got.Ferr[j] != want.Ferr[j] || got.Berr[j] != want.Berr[j] {
						t.Fatalf("threads=%d item %d: bounds differ at rhs %d", threads, i, j)
					}
				}
				for k := range got.IPiv {
					if got.IPiv[k] != want.IPiv[k] {
						t.Fatalf("threads=%d item %d: pivot %d differs", threads, i, k)
					}
				}
			}
		}()
	}
}

// TestBatchPosvxBitIdentical is the Cholesky-route twin.
func TestBatchPosvxBitIdentical(t *testing.T) {
	sizes := []int{2, 5, 9, 17, 32, 41}
	var as0, bs0 []*la.Matrix[float64]
	for i, n := range sizes {
		as0 = append(as0, intSym[float64](i, n))
		bs0 = append(bs0, newRHS(n, 1+i%2))
	}
	refs := make([]*la.ExpertResult[float64], len(sizes))
	for i := range as0 {
		r, err := la.POSVX(as0[i].Clone(), bs0[i].Clone(), la.WithEquilibration())
		if err != nil {
			t.Fatalf("serial POSVX[%d]: %v", i, err)
		}
		refs[i] = r
	}
	for _, threads := range []int{1, 2, 4, 8} {
		func() {
			defer blas.SetThreads(blas.SetThreads(threads))
			as, bs := cloneBatch(as0), cloneBatch(bs0)
			results, errs, err := la.BatchPosvx(as, bs, la.WithEquilibration())
			if err != nil {
				t.Fatalf("threads=%d: %v", threads, err)
			}
			for i := range results {
				if errs[i] != nil {
					t.Fatalf("threads=%d item %d: %v", threads, i, errs[i])
				}
				got, want := results[i], refs[i]
				if got.RCond != want.RCond || got.Equed != want.Equed {
					t.Fatalf("threads=%d item %d: (rcond,equed) differ", threads, i)
				}
				for k := range got.X.Data {
					if got.X.Data[k] != want.X.Data[k] {
						t.Fatalf("threads=%d item %d: X byte-diff at %d", threads, i, k)
					}
				}
				for j := range got.Ferr {
					if got.Ferr[j] != want.Ferr[j] || got.Berr[j] != want.Berr[j] {
						t.Fatalf("threads=%d item %d: bounds differ at rhs %d", threads, i, j)
					}
				}
			}
		}()
	}
}

// TestBatchGesvxItemIsolation: one malformed, one non-finite, one
// ill-conditioned item — each reports its own typed error; healthy
// neighbours still solve with full bounds.
func TestBatchGesvxItemIsolation(t *testing.T) {
	defer blas.SetThreads(blas.SetThreads(4))
	n := 12
	poisoned := intMat[float64](11, n)
	poisoned.Set(3, 4, math.NaN())
	as := []*la.Matrix[float64]{
		intMat[float64](1, n),
		la.NewMatrix[float64](4, 6), // non-square
		poisoned,
		hilbert(13),
		intMat[float64](2, n),
	}
	bs := []*la.Matrix[float64]{
		newRHS(n, 2), newRHS(4, 1), newRHS(n, 1), newRHS(13, 1), newRHS(n, 1),
	}
	results, errs, err := la.BatchGesvx(as, bs, la.WithCheck())
	if err != nil {
		t.Fatalf("batch error: %v", err)
	}
	for _, i := range []int{0, 4} {
		if errs[i] != nil {
			t.Errorf("healthy item %d: %v", i, errs[i])
		}
		if results[i] == nil || len(results[i].Ferr) != bs[i].Cols {
			t.Errorf("healthy item %d: missing result/bounds", i)
		}
	}
	for _, i := range []int{1, 2} {
		var e *la.Error
		if errs[i] == nil || !errors.As(errs[i], &e) {
			t.Errorf("item %d: want typed error, got %v", i, errs[i])
		}
	}
	if !errors.Is(errs[3], la.ErrSingularToWorkingPrecision) {
		t.Errorf("Hilbert item: %v, want ErrSingularToWorkingPrecision", errs[3])
	}
	if results[3] == nil {
		t.Error("Hilbert item: bounds must still be delivered")
	}
}

// expertStorages hands the same Hermitian matrix to POSVX, PPSVX and PBSVX
// (full bandwidth) and, as a general matrix, to GESVX and GBSVX, each on its
// own copy of a and b, and returns the results in that order.
func expertStorages[T la.Scalar](t *testing.T, a, b *la.Matrix[T], general bool) (names []string, results []*la.ExpertResult[T], stored [][]T) {
	t.Helper()
	n := a.Rows
	run := func(name string, storage []T, call func(bw *la.Matrix[T]) (*la.ExpertResult[T], error)) {
		res, err := call(b.Clone())
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		names, results, stored = append(names, name), append(results, res), append(stored, storage)
	}
	if general {
		ge, gb := a.Clone(), expertBand(a, n-1, n-1)
		run("GESVX", ge.Data, func(bw *la.Matrix[T]) (*la.ExpertResult[T], error) {
			return la.GESVX(ge, bw, la.WithEquilibration())
		})
		run("GBSVX", gb.Data, func(bw *la.Matrix[T]) (*la.ExpertResult[T], error) {
			return la.GBSVX(gb, bw, la.WithEquilibration())
		})
		return
	}
	po, pp, pb := a.Clone(), expertPacked(a, la.Upper), expertBand(a, 0, n-1)
	run("POSVX", po.Data, func(bw *la.Matrix[T]) (*la.ExpertResult[T], error) {
		return la.POSVX(po, bw, la.WithEquilibration())
	})
	run("PPSVX", pp, func(bw *la.Matrix[T]) (*la.ExpertResult[T], error) {
		return la.PPSVX(pp, bw, la.WithEquilibration())
	})
	run("PBSVX", pb.Data, func(bw *la.Matrix[T]) (*la.ExpertResult[T], error) {
		return la.PBSVX(pb, bw, la.WithEquilibration())
	})
	return
}

// testEquilibrationOneRule: the equilibration decision (xLAQGE/xLAQSY's
// scond/rowcnd/colcnd and amax thresholds) and the scaling (one factor at a
// time: S(i)·S(j) or R(i)·C(j) can overflow) exist once, so the same matrix
// is equilibrated, solved and conditioned identically in every storage
// format. Before PR 20 the packed and band drivers lacked the amax test and
// multiplied by the pre-combined product.
func testEquilibrationOneRule[T la.Scalar](t *testing.T) {
	mat := func(rows [][]complex128, scale float64) *la.Matrix[T] {
		a := la.NewMatrix[T](len(rows), len(rows))
		for i, r := range rows {
			for j, v := range r {
				a.Set(i, j, fromC[T](v*complex(scale, 0)))
			}
		}
		return a
	}
	off := complex(1, 0)
	if expertIsComplex[T]() {
		off = complex(1, 1)
	}
	cases := []struct {
		name    string
		general bool
		a       *la.Matrix[T]
		equed   byte
	}{
		{"tiny amax", false, mat([][]complex128{{4, off}, {cmplxConj(off), 3}}, 0x1p-1000), 'B'},
		{"overflowing S(i)S(j)", false, mat([][]complex128{{0x1p-1060, 0, 0}, {0, 0x1p-1060, 0}, {0, 0, 1}}, 1), 'B'},
		{"overflowing R(i)C(j)", true, mat([][]complex128{{0x1p-600, 0}, {1, 0x1p-600}}, 1), 'B'},
	}
	for _, c := range cases {
		n := c.a.Rows
		b := la.NewMatrix[T](n, 1)
		for i := 0; i < n; i++ { // b = A·[1 … 1]ᵀ, exact
			var s complex128
			for j := 0; j < n; j++ {
				s += toC(c.a.At(i, j))
			}
			b.Set(i, 0, fromC[T](s))
		}
		names, results, stored := expertStorages(t, c.a, b, c.general)
		ref := results[0]
		for k, res := range results {
			if res == nil {
				continue
			}
			for _, v := range stored[k] {
				if z := toC(v); math.IsNaN(real(z)+imag(z)) || math.IsInf(real(z)+imag(z), 0) {
					t.Errorf("%s, %s: non-finite entry %v left in the matrix storage", c.name, names[k], v)
					break
				}
			}
			if res.Equed != c.equed {
				t.Errorf("%s, %s: Equed = %q, want %q", c.name, names[k], res.Equed, c.equed)
			}
			if math.Abs(res.RCond-ref.RCond) > 1e-12*ref.RCond {
				t.Errorf("%s: %s RCond = %v, %s %v", c.name, names[k], res.RCond, names[0], ref.RCond)
			}
			for i := 0; i < n; i++ {
				x, xr := toC(res.X.At(i, 0)), toC(ref.X.At(i, 0))
				if d := x - xr; math.Hypot(real(d), imag(d)) > 4*0x1p-52*math.Hypot(real(xr), imag(xr)) {
					t.Errorf("%s: %s X[%d] = %v, %s %v", c.name, names[k], i, x, names[0], xr)
				}
				// The last case's b(1) = 1 + 2⁻⁶⁰⁰ rounds to 1: its x is [1 0].
				want := complex(1, 0)
				if c.general && i == 1 {
					want = 0
				}
				if d := x - want; math.Hypot(real(d), imag(d)) > 1e-12 {
					t.Errorf("%s, %s: X[%d] = %v, want %v", c.name, names[k], i, x, want)
				}
			}
		}
	}
}

func cmplxConj(v complex128) complex128 { return complex(real(v), -imag(v)) }

func TestEquilibrationOneRule(t *testing.T) {
	t.Run("float64", testEquilibrationOneRule[float64])
	t.Run("complex128", testEquilibrationOneRule[complex128])
}

// TestPtsvxComplexNorm: the 1-norm behind PTSVX's RCond is the same norm
// every other format's is taken in (moduli, xLANHT), so a Hermitian
// tridiagonal matrix has the RCond POSVX gives it as a dense one. Before
// PR 20 PTSVX summed |re|+|im| of the off-diagonals.
func TestPtsvxComplexNorm(t *testing.T) {
	n := 6
	d, e := make([]float64, n), make([]complex128, n-1)
	a := la.NewMatrix[complex128](n, n)
	for i := 0; i < n; i++ {
		d[i] = 4 + float64(i%3)
		a.Set(i, i, complex(d[i], 0))
		if i < n-1 {
			e[i] = complex(1+float64(i%2), 1+float64(i%2))
			a.Set(i+1, i, e[i])
			a.Set(i, i+1, cmplxConj(e[i]))
		}
	}
	b := la.NewMatrix[complex128](n, 1)
	for i := 0; i < n; i++ {
		b.Set(i, 0, complex(float64(i+1), -1))
	}
	pt, err := la.PTSVX(d, e, b.Clone())
	if err != nil {
		t.Fatal(err)
	}
	po, err := la.POSVX(a, b.Clone(), la.WithUpLo(la.Lower))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pt.RCond-po.RCond) > 1e-10*po.RCond {
		t.Fatalf("PTSVX RCond = %v, POSVX on the same matrix %v", pt.RCond, po.RCond)
	}
}
