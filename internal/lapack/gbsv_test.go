package lapack_test

import (
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/testutil"
)

// denseToLUBand packs a dense matrix's band into LU band storage (with kl
// fill rows on top).
func denseToLUBand[T core.Scalar](n, kl, ku int, a []T, lda, ldab int) []T {
	ab := make([]T, ldab*n)
	for j := 0; j < n; j++ {
		for i := max(0, j-ku); i <= min(n-1, j+kl); i++ {
			ab[kl+ku+i-j+j*ldab] = a[i+j*lda]
		}
	}
	return ab
}

func randBandDense[T core.Scalar](rng *lapack.Rng, n, kl, ku int) []T {
	a := make([]T, n*n)
	col := make([]T, n)
	for j := 0; j < n; j++ {
		lapack.Larnv(2, rng, n, col)
		for i := max(0, j-ku); i <= min(n-1, j+kl); i++ {
			a[i+j*n] = col[i]
		}
		a[j+j*n] += core.FromFloat[T](3) // keep it comfortably nonsingular
	}
	return a
}

func testGbsv[T core.Scalar](t *testing.T, n, kl, ku, nrhs int) {
	t.Helper()
	rng := lapack.NewRng([4]int{n, kl, ku, nrhs})
	a := randBandDense[T](rng, n, kl, ku)
	ldab := 2*kl + ku + 1
	ab := denseToLUBand(n, kl, ku, a, n, ldab)
	xTrue := testutil.RandGeneral[T](rng, n, nrhs, n)
	b := make([]T, n*nrhs)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, nrhs, n, core.FromFloat[T](1), a, n, xTrue, n, core.FromFloat[T](0), b, n)
	ipiv := make([]int, n)
	sol := append([]T(nil), b...)
	if info := lapack.Gbsv(n, kl, ku, nrhs, ab, ldab, ipiv, sol, n); info != 0 {
		t.Fatalf("gbsv info=%d", info)
	}
	if r := testutil.SolveResidual(n, nrhs, a, n, sol, n, b, n); r > thresh {
		t.Fatalf("gbsv residual %v", r)
	}
	// Transposed solves through the same factorization.
	for _, tr := range []lapack.Trans{lapack.TransT, lapack.ConjTrans} {
		bt := make([]T, n)
		xt := make([]T, n)
		lapack.Larnv(2, rng, n, xt)
		blas.Gemv(tcfg(), blas.Trans(tr), n, n, core.FromFloat[T](1), a, n, xt, 1, core.FromFloat[T](0), bt, 1)
		lapack.Gbtrs(tr, n, kl, ku, 1, ab, ldab, ipiv, bt, n)
		if d := testutil.MaxDiff(bt, xt); d > 1e6*core.Eps[T]() {
			t.Fatalf("gbtrs %v error %v", tr, d)
		}
	}
}

func TestGbsv(t *testing.T) {
	cases := [][4]int{{1, 0, 0, 1}, {5, 1, 1, 2}, {12, 2, 3, 2}, {30, 4, 1, 3}, {50, 7, 7, 2}, {20, 19, 19, 1}}
	for _, c := range cases {
		t.Run("float64", func(t *testing.T) { testGbsv[float64](t, c[0], c[1], c[2], c[3]) })
		t.Run("complex128", func(t *testing.T) { testGbsv[complex128](t, c[0], c[1], c[2], c[3]) })
	}
	t.Run("float32", func(t *testing.T) { testGbsv[float32](t, 12, 2, 2, 1) })
}

func TestGbconGbrfs(t *testing.T) {
	n, kl, ku, nrhs := 25, 2, 3, 2
	rng := lapack.NewRng([4]int{5, 5, 1, 2})
	a := randBandDense[float64](rng, n, kl, ku)
	ldabPlain := kl + ku + 1
	abPlain := make([]float64, ldabPlain*n)
	for j := 0; j < n; j++ {
		for i := max(0, j-ku); i <= min(n-1, j+kl); i++ {
			abPlain[ku+i-j+j*ldabPlain] = a[i+j*n]
		}
	}
	ldab := 2*kl + ku + 1
	afb := denseToLUBand(n, kl, ku, a, n, ldab)
	ipiv := make([]int, n)
	if info := lapack.Gbtrf(n, n, kl, ku, afb, ldab, ipiv); info != 0 {
		t.Fatalf("gbtrf info=%d", info)
	}
	xTrue := testutil.RandGeneral[float64](rng, n, nrhs, n)
	b := make([]float64, n*nrhs)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, nrhs, n, 1, a, n, xTrue, n, 0, b, n)
	// Condition estimate and refinement off the supplied factorization
	// (FACT = 'F'), through the shared con and rfs of the expert pipeline.
	x := make([]float64, n*nrhs)
	res := lapack.Gbsvx(lapack.FactFact, lapack.NoTrans, n, kl, ku, nrhs, abPlain, ldabPlain, afb, ldab, ipiv, b, n, x, n)
	if res.Info != 0 || res.RCond <= 0 || res.RCond > 1.000001 {
		t.Fatalf("gbcon info=%d rcond=%v", res.Info, res.RCond)
	}
	for j := 0; j < nrhs; j++ {
		if res.Berr[j] > 100*core.Eps[float64]() {
			t.Fatalf("gbrfs berr=%v", res.Berr[j])
		}
	}
	if d := testutil.MaxDiff(x, xTrue); d > 1e-9 {
		t.Fatalf("refined solution error %v", d)
	}
}

func TestGbsvx(t *testing.T) {
	n, kl, ku, nrhs := 18, 2, 2, 2
	rng := lapack.NewRng([4]int{2, 7, 1, 8})
	a := randBandDense[float64](rng, n, kl, ku)
	ldabPlain := kl + ku + 1
	abPlain := make([]float64, ldabPlain*n)
	for j := 0; j < n; j++ {
		for i := max(0, j-ku); i <= min(n-1, j+kl); i++ {
			abPlain[ku+i-j+j*ldabPlain] = a[i+j*n]
		}
	}
	xTrue := testutil.RandGeneral[float64](rng, n, nrhs, n)
	b := make([]float64, n*nrhs)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, nrhs, n, 1, a, n, xTrue, n, 0, b, n)
	ldafb := 2*kl + ku + 1
	afb := make([]float64, ldafb*n)
	ipiv := make([]int, n)
	x := make([]float64, n*nrhs)
	res := lapack.Gbsvx(lapack.FactNone, lapack.NoTrans, n, kl, ku, nrhs, abPlain, ldabPlain, afb, ldafb, ipiv, b, n, x, n)
	if res.Info != 0 {
		t.Fatalf("gbsvx info=%d", res.Info)
	}
	if d := testutil.MaxDiff(x, xTrue); d > 1e-9 {
		t.Fatalf("gbsvx error %v", d)
	}
	if res.RCond <= 0 || res.RCond > 1.000001 {
		t.Fatalf("gbsvx rcond=%v", res.RCond)
	}
}

func TestGbsvSingular(t *testing.T) {
	// Zero matrix: info must be 1.
	n, kl, ku := 4, 1, 1
	ldab := 2*kl + ku + 1
	ab := make([]float64, ldab*n)
	ipiv := make([]int, n)
	b := make([]float64, n)
	if info := lapack.Gbsv(n, kl, ku, 1, ab, ldab, ipiv, b, n); info != 1 {
		t.Fatalf("gbsv singular info=%d", info)
	}
}

// ---------- general tridiagonal ----------

func testGtsv[T core.Scalar](t *testing.T, n, nrhs int) {
	t.Helper()
	rng := lapack.NewRng([4]int{n, nrhs, 3, 3})
	dl := make([]T, max(0, n-1))
	d := make([]T, n)
	du := make([]T, max(0, n-1))
	lapack.Larnv(2, rng, n-1, dl)
	lapack.Larnv(2, rng, n-1, du)
	lapack.Larnv(2, rng, n, d)
	for i := range d {
		d[i] += core.FromFloat[T](4)
	}
	// Dense copy.
	a := make([]T, n*n)
	for i := 0; i < n; i++ {
		a[i+i*n] = d[i]
		if i < n-1 {
			a[i+1+i*n] = dl[i]
			a[i+(i+1)*n] = du[i]
		}
	}
	xTrue := testutil.RandGeneral[T](rng, n, nrhs, n)
	b := make([]T, n*nrhs)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, nrhs, n, core.FromFloat[T](1), a, n, xTrue, n, core.FromFloat[T](0), b, n)
	dlf := append([]T(nil), dl...)
	df := append([]T(nil), d...)
	duf := append([]T(nil), du...)
	sol := append([]T(nil), b...)
	if info := lapack.Gtsv(n, nrhs, dlf, df, duf, sol, n); info != 0 {
		t.Fatalf("gtsv info=%d", info)
	}
	if r := testutil.SolveResidual(n, nrhs, a, n, sol, n, b, n); r > thresh {
		t.Fatalf("gtsv residual %v", r)
	}
	// Full factorization path with transposed solves.
	dlf = append(dlf[:0:0], dl...)
	df = append(df[:0:0], d...)
	duf = append(duf[:0:0], du...)
	du2 := make([]T, max(0, n-2))
	ipiv := make([]int, n)
	if info := lapack.Gttrf(n, dlf, df, duf, du2, ipiv); info != 0 {
		t.Fatalf("gttrf info=%d", info)
	}
	for _, tr := range []lapack.Trans{lapack.TransT, lapack.ConjTrans} {
		xt := make([]T, n)
		lapack.Larnv(2, rng, n, xt)
		bt := make([]T, n)
		blas.Gemv(tcfg(), blas.Trans(tr), n, n, core.FromFloat[T](1), a, n, xt, 1, core.FromFloat[T](0), bt, 1)
		lapack.Gttrs(tr, n, 1, dlf, df, duf, du2, ipiv, bt, n)
		if dd := testutil.MaxDiff(bt, xt); dd > 1e6*core.Eps[T]() {
			t.Fatalf("gttrs %v error %v", tr, dd)
		}
	}
	// Condition number and refinement off the same factorization.
	x := make([]T, n*nrhs)
	res := lapack.Gtsvx(lapack.FactFact, lapack.NoTrans, n, nrhs, dl, d, du, dlf, df, duf, du2, ipiv, b, n, x, n)
	if res.Info != 0 || res.RCond <= 0 || res.RCond > 1.000001 {
		t.Fatalf("gtcon info=%d rcond=%v", res.Info, res.RCond)
	}
	if dd := testutil.MaxDiff(x, sol); dd > 1e6*core.Eps[T]() {
		t.Fatalf("gtsvx vs gtsv %v", dd)
	}
}

func TestGtsv(t *testing.T) {
	for _, n := range []int{2, 3, 10, 100} {
		t.Run("float64", func(t *testing.T) { testGtsv[float64](t, n, 2) })
		t.Run("complex128", func(t *testing.T) { testGtsv[complex128](t, n, 2) })
	}
}

func TestGtsvPivoting(t *testing.T) {
	// A matrix that requires row interchanges: tiny diagonal, large
	// sub-diagonal.
	n := 6
	dl := make([]float64, n-1)
	d := make([]float64, n)
	du := make([]float64, n-1)
	for i := range dl {
		dl[i] = 10
		du[i] = 1
	}
	for i := range d {
		d[i] = 1e-12
	}
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i+i*n] = d[i]
		if i < n-1 {
			a[i+1+i*n] = dl[i]
			a[i+(i+1)*n] = du[i]
		}
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = float64(i + 1)
	}
	b := make([]float64, n)
	blas.Gemv(tcfg(), blas.NoTrans, n, n, 1, a, n, xTrue, 1, 0, b, 1)
	if info := lapack.Gtsv(n, 1, dl, d, du, b, n); info != 0 {
		t.Fatalf("gtsv info=%d", info)
	}
	if d := testutil.MaxDiff(b, xTrue); d > 1e-6 {
		t.Fatalf("pivoted gtsv error %v", d)
	}
}

func TestGtsvx(t *testing.T) {
	n, nrhs := 15, 2
	rng := lapack.NewRng([4]int{1, 2, 1, 2})
	dl := make([]float64, n-1)
	d := make([]float64, n)
	du := make([]float64, n-1)
	lapack.Larnv(2, rng, n-1, dl)
	lapack.Larnv(2, rng, n-1, du)
	lapack.Larnv(2, rng, n, d)
	for i := range d {
		d[i] += 4
	}
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i+i*n] = d[i]
		if i < n-1 {
			a[i+1+i*n] = dl[i]
			a[i+(i+1)*n] = du[i]
		}
	}
	xTrue := testutil.RandGeneral[float64](rng, n, nrhs, n)
	b := make([]float64, n*nrhs)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, nrhs, n, 1, a, n, xTrue, n, 0, b, n)
	dlf := make([]float64, n-1)
	df := make([]float64, n)
	duf := make([]float64, n-1)
	du2 := make([]float64, n-2)
	ipiv := make([]int, n)
	x := make([]float64, n*nrhs)
	res := lapack.Gtsvx(lapack.FactNone, lapack.NoTrans, n, nrhs, dl, d, du, dlf, df, duf, du2, ipiv, b, n, x, n)
	if res.Info != 0 {
		t.Fatalf("gtsvx info=%d", res.Info)
	}
	if dd := testutil.MaxDiff(x, xTrue); dd > 1e-9 {
		t.Fatalf("gtsvx error %v", dd)
	}
}
