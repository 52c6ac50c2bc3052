package lapack_test

import (
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/testutil"
)

const thresh = 30.0 // residual-ratio threshold, as in the paper's tests

func testGetrf[T core.Scalar](t *testing.T, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{1, 2, 3, int(n)})
	lda := n + 1
	a := testutil.RandGeneral[T](rng, n, n, lda)
	af := make([]T, lda*n)
	lapack.Lacpy('A', n, n, a, lda, af, lda)
	ipiv := make([]int, n)
	if info := lapack.Getrf(tcfg(), n, n, af, lda, ipiv); info != 0 {
		t.Fatalf("getrf info = %d", info)
	}
	if r := testutil.LUResidual(n, n, a, lda, af, lda, ipiv); r > thresh {
		t.Fatalf("LU residual %v > %v", r, thresh)
	}
	// The blocked result must choose the unblocked oracle's pivots and match
	// its factors to rounding: the trailing updates run as GEMM and recursive
	// Trsm instead of rank-1 sweeps, which reorders every sum, so the entries
	// agree to n·ε relative to the largest one, not bit for bit.
	af2 := make([]T, lda*n)
	lapack.Lacpy('A', n, n, a, lda, af2, lda)
	ipiv2 := make([]int, n)
	lapack.Getf2(n, n, af2, lda, ipiv2)
	for i := range ipiv {
		if ipiv[i] != ipiv2[i] {
			t.Fatalf("blocked/unblocked pivots differ at %d: %d vs %d", i, ipiv[i], ipiv2[i])
		}
	}
	luMax := lapack.Lange(lapack.MaxAbs, n, n, af2, lda)
	if d := testutil.MaxDiff(af, af2); d > float64(n)*core.Eps[T]()*luMax {
		t.Fatalf("blocked vs unblocked factors differ by %v (max |LU| = %v)", d, luMax)
	}
}

func TestGetrf(t *testing.T) {
	for _, n := range []int{1, 2, 5, 17, 64, 65, 130} {
		t.Run("float64", func(t *testing.T) { testGetrf[float64](t, n) })
		t.Run("complex128", func(t *testing.T) { testGetrf[complex128](t, n) })
	}
	t.Run("float32", func(t *testing.T) { testGetrf[float32](t, 40) })
	t.Run("complex64", func(t *testing.T) { testGetrf[complex64](t, 40) })
}

func TestGetrfRectangular(t *testing.T) {
	for _, mn := range [][2]int{{7, 4}, {4, 7}, {1, 5}, {5, 1}} {
		m, n := mn[0], mn[1]
		rng := lapack.NewRng([4]int{m, n, 1, 1})
		a := testutil.RandGeneral[float64](rng, m, n, m)
		af := append([]float64(nil), a...)
		ipiv := make([]int, min(m, n))
		lapack.Getrf(tcfg(), m, n, af, m, ipiv)
		if r := testutil.LUResidual(m, n, a, m, af, m, ipiv); r > thresh {
			t.Fatalf("LU residual %v for %dx%d", r, m, n)
		}
	}
}

func TestGetrfSingular(t *testing.T) {
	// A matrix with a zero column must report info > 0.
	n := 5
	a := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if j != 2 {
				a[i+j*n] = float64(i + j + 1)
			}
		}
	}
	ipiv := make([]int, n)
	if info := lapack.Getrf(tcfg(), n, n, a, n, ipiv); info <= 0 {
		t.Fatalf("expected positive info for singular matrix, got %d", info)
	}
}

func testGesv[T core.Scalar](t *testing.T, n, nrhs int) {
	t.Helper()
	rng := lapack.NewRng([4]int{9, 8, 7, n})
	lda, ldb := n+2, n+1
	a := testutil.RandGeneral[T](rng, n, n, lda)
	x := testutil.RandGeneral[T](rng, n, nrhs, ldb)
	b := make([]T, ldb*nrhs)
	one := core.FromFloat[T](1)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, nrhs, n, one, a, lda, x, ldb, core.FromFloat[T](0), b, ldb)

	af := make([]T, lda*n)
	lapack.Lacpy('A', n, n, a, lda, af, lda)
	sol := make([]T, ldb*nrhs)
	lapack.Lacpy('A', n, nrhs, b, ldb, sol, ldb)
	ipiv := make([]int, n)
	if info := lapack.Gesv(tcfg(), n, nrhs, af, lda, ipiv, sol, ldb); info != 0 {
		t.Fatalf("gesv info = %d", info)
	}
	if r := testutil.SolveResidual(n, nrhs, a, lda, sol, ldb, b, ldb); r > thresh {
		t.Fatalf("solve residual %v > %v", r, thresh)
	}
}

func TestGesv(t *testing.T) {
	for _, n := range []int{1, 3, 10, 50} {
		for _, nrhs := range []int{1, 2, 7} {
			t.Run("float64", func(t *testing.T) { testGesv[float64](t, n, nrhs) })
			t.Run("complex128", func(t *testing.T) { testGesv[complex128](t, n, nrhs) })
			t.Run("float32", func(t *testing.T) { testGesv[float32](t, n, nrhs) })
			t.Run("complex64", func(t *testing.T) { testGesv[complex64](t, n, nrhs) })
		}
	}
}

func TestGetrsTrans(t *testing.T) {
	n, nrhs := 12, 3
	rng := lapack.NewRng([4]int{4, 4, 4, 4})
	a := testutil.RandGeneral[complex128](rng, n, n, n)
	af := append([]complex128(nil), a...)
	ipiv := make([]int, n)
	if info := lapack.Getrf(tcfg(), n, n, af, n, ipiv); info != 0 {
		t.Fatalf("getrf info=%d", info)
	}
	for _, tr := range []lapack.Trans{lapack.TransT, lapack.ConjTrans} {
		x := testutil.RandGeneral[complex128](rng, n, nrhs, n)
		b := make([]complex128, n*nrhs)
		// b = op(A)·x
		blas.Gemm(tcfg(), blas.Trans(tr), blas.NoTrans, n, nrhs, n, 1, a, n, x, n, 0, b, n)
		sol := append([]complex128(nil), b...)
		lapack.Getrs(tcfg(), tr, n, nrhs, af, n, ipiv, sol, n)
		if d := testutil.MaxDiff(sol, x); d > 1e-10 {
			t.Fatalf("trans solve %v: max diff %v", tr, d)
		}
	}
}

func testGetri[T core.Scalar](t *testing.T, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{2, 2, 2, n})
	a := testutil.RandGeneral[T](rng, n, n, n)
	inv := append([]T(nil), a...)
	ipiv := make([]int, n)
	if info := lapack.Getrf(tcfg(), n, n, inv, n, ipiv); info != 0 {
		t.Fatalf("getrf info=%d", info)
	}
	work := make([]T, n)
	if info := lapack.Getri(tcfg(), n, inv, n, ipiv, work); info != 0 {
		t.Fatalf("getri info=%d", info)
	}
	// A·A⁻¹ must be the identity.
	p := make([]T, n*n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, n, n, core.FromFloat[T](1), a, n, inv, n, core.FromFloat[T](0), p, n)
	for i := 0; i < n; i++ {
		p[i+i*n] -= core.FromFloat[T](1)
	}
	if r := lapack.Lange(lapack.OneNorm, n, n, p, n) / (float64(n) * core.Eps[T]()); r > 10*thresh {
		t.Fatalf("inverse residual %v", r)
	}
}

func TestGetri(t *testing.T) {
	for _, n := range []int{1, 2, 9, 33} {
		t.Run("float64", func(t *testing.T) { testGetri[float64](t, n) })
		t.Run("complex128", func(t *testing.T) { testGetri[complex128](t, n) })
	}
}

func TestGecon(t *testing.T) {
	// For an orthogonal-ish well conditioned matrix rcond should be large;
	// for a nearly singular one it should be tiny. Use diag(1..k) with a
	// known condition number: cond_1(D) = max/min.
	n := 20
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i+i*n] = float64(i + 1)
	}
	anorm := lapack.Lange(lapack.OneNorm, n, n, a, n)
	ipiv := make([]int, n)
	lapack.Getrf(tcfg(), n, n, a, n, ipiv)
	rcond := lapack.Gecon(tcfg(), lapack.OneNorm, n, a, n, ipiv, anorm)
	want := 1.0 / float64(n) // cond = n for this diagonal matrix
	if rcond < want/3 || rcond > want*3 {
		t.Fatalf("rcond = %v, want about %v", rcond, want)
	}

	// InfNorm variant on a random matrix: rcond must be in (0, 1].
	rng := lapack.NewRng([4]int{5, 6, 7, 8})
	b := testutil.RandGeneral[float64](rng, n, n, n)
	bnorm := lapack.Lange(lapack.InfNorm, n, n, b, n)
	lapack.Getrf(tcfg(), n, n, b, n, ipiv)
	rc := lapack.Gecon(tcfg(), lapack.InfNorm, n, b, n, ipiv, bnorm)
	if rc <= 0 || rc > 1.000001 {
		t.Fatalf("inf-norm rcond out of range: %v", rc)
	}
}

func TestGerfs(t *testing.T) {
	n, nrhs := 30, 2
	rng := lapack.NewRng([4]int{3, 1, 4, 1})
	a := testutil.RandGeneral[float64](rng, n, n, n)
	xTrue := testutil.RandGeneral[float64](rng, n, nrhs, n)
	b := make([]float64, n*nrhs)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, nrhs, n, 1, a, n, xTrue, n, 0, b, n)
	af := append([]float64(nil), a...)
	ipiv := make([]int, n)
	lapack.Getrf(tcfg(), n, n, af, n, ipiv)
	x := append([]float64(nil), b...)
	lapack.Getrs(tcfg(), lapack.NoTrans, n, nrhs, af, n, ipiv, x, n)
	ferr := make([]float64, nrhs)
	berr := make([]float64, nrhs)
	lapack.Gerfs(tcfg(), lapack.NoTrans, n, nrhs, a, n, af, n, ipiv, b, n, x, n, ferr, berr)
	for j := 0; j < nrhs; j++ {
		if berr[j] > 10*core.Eps[float64]() {
			t.Fatalf("backward error %v too large", berr[j])
		}
		// The true forward error must be below the bound.
		errj := 0.0
		nrm := 0.0
		for i := 0; i < n; i++ {
			errj = math.Max(errj, math.Abs(x[i+j*n]-xTrue[i+j*n]))
			nrm = math.Max(nrm, math.Abs(xTrue[i+j*n]))
		}
		if errj/nrm > ferr[j]*10 {
			t.Fatalf("true error %v exceeds bound %v", errj/nrm, ferr[j])
		}
	}
}

func TestGeequ(t *testing.T) {
	n := 6
	a := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			a[i+j*n] = math.Pow(10, float64(i-j))
		}
	}
	r := make([]float64, n)
	c := make([]float64, n)
	rowcnd, colcnd, amax, info := lapack.Geequ(n, n, a, n, r, c)
	if info != 0 {
		t.Fatalf("geequ info=%d", info)
	}
	if amax != 1e5 {
		t.Fatalf("amax = %v", amax)
	}
	// After scaling every row max should be 1.
	for i := 0; i < n; i++ {
		rowmax := 0.0
		for j := 0; j < n; j++ {
			rowmax = math.Max(rowmax, math.Abs(a[i+j*n])*r[i])
		}
		if math.Abs(rowmax-1) > 1e-12 {
			t.Fatalf("row %d scaled max = %v", i, rowmax)
		}
	}
	if rowcnd <= 0 || rowcnd > 1 || colcnd <= 0 || colcnd > 1 {
		t.Fatalf("cnd out of range: %v %v", rowcnd, colcnd)
	}
	// Zero row must be detected.
	az := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if i != 3 {
				az[i+j*n] = 1
			}
		}
	}
	if _, _, _, info := lapack.Geequ(n, n, az, n, r, c); info != 4 {
		t.Fatalf("zero-row info = %d, want 4", info)
	}
}

func testGesvx[T core.Scalar](t *testing.T, fact lapack.Fact, trans lapack.Trans) {
	t.Helper()
	n, nrhs := 25, 3
	rng := lapack.NewRng([4]int{6, 6, 6, int(fact)})
	lda := n
	a := testutil.RandGeneral[T](rng, n, n, lda)
	// Make it badly row-scaled so equilibration kicks in.
	if fact == lapack.FactEquilibrate {
		for i := 0; i < n; i++ {
			s := core.FromFloat[T](math.Pow(10, float64(i%7)-3))
			blas.Scal(n, s, a[i:], lda)
		}
	}
	xTrue := testutil.RandGeneral[T](rng, n, nrhs, n)
	b := make([]T, n*nrhs)
	blas.Gemm(tcfg(), blas.Trans(trans), blas.NoTrans, n, nrhs, n, core.FromFloat[T](1), a, lda, xTrue, n, core.FromFloat[T](0), b, n)

	acopy := append([]T(nil), a...)
	af := make([]T, lda*n)
	ipiv := make([]int, n)
	if fact == lapack.FactFact {
		lapack.Lacpy('A', n, n, a, lda, af, lda)
		lapack.Getrf(tcfg(), n, n, af, lda, ipiv)
	}
	x := make([]T, n*nrhs)
	res := lapack.Gesvx(tcfg(), fact, trans, n, nrhs, acopy, lda, af, lda, ipiv, b, n, x, n)
	if res.Info != 0 {
		t.Fatalf("gesvx info = %d", res.Info)
	}
	if d := testutil.MaxDiff(x, xTrue); d > 1e-6 {
		t.Fatalf("gesvx fact=%c trans=%v: solution error %v", fact, trans, d)
	}
	if res.RCond <= 0 || res.RCond > 1.000001 {
		t.Fatalf("rcond = %v", res.RCond)
	}
	for j := 0; j < nrhs; j++ {
		if res.Berr[j] > 100*core.Eps[T]() {
			t.Fatalf("berr[%d] = %v", j, res.Berr[j])
		}
	}
}

func TestGesvx(t *testing.T) {
	for _, fact := range []lapack.Fact{lapack.FactNone, lapack.FactEquilibrate, lapack.FactFact} {
		for _, tr := range []lapack.Trans{lapack.NoTrans, lapack.TransT} {
			t.Run("float64", func(t *testing.T) { testGesvx[float64](t, fact, tr) })
		}
	}
	t.Run("complex128", func(t *testing.T) { testGesvx[complex128](t, lapack.FactNone, lapack.NoTrans) })
	t.Run("complex128-conj", func(t *testing.T) { testGesvx[complex128](t, lapack.FactNone, lapack.ConjTrans) })
}

func TestLaswpRoundTrip(t *testing.T) {
	n := 8
	rng := lapack.NewRng([4]int{1, 1, 1, 1})
	a := testutil.RandGeneral[float64](rng, n, n, n)
	orig := append([]float64(nil), a...)
	ipiv := []int{3, 1, 5, 3, 7, 5, 6, 7}
	lapack.Laswp(n, a, n, 0, n, ipiv)
	lapack.LaswpInv(n, a, n, 0, n, ipiv)
	if d := testutil.MaxDiff(a, orig); d != 0 {
		t.Fatalf("laswp roundtrip diff %v", d)
	}
}
