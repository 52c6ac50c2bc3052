package lapack_test

import (
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/testutil"
	"repro/internal/testutil/diff"
)

// checkSVD verifies the standard SVD properties for a (possibly economy)
// factorization of the m×n matrix a: descending non-negative values, U/V
// orthogonality, and reconstruction, entrywise and as svdResidual.
func checkSVD[T core.Scalar](t *testing.T, m, n int, a []T, s []float64, u []T, ldu int, vt []T, ldvt int) {
	t.Helper()
	mn := min(m, n)
	for i := 0; i < mn; i++ {
		if s[i] < 0 {
			t.Fatalf("negative singular value %v", s[i])
		}
		if i > 0 && s[i] > s[i-1]*(1+1e-12) {
			t.Fatalf("singular values not descending at %d", i)
		}
	}
	if r := testutil.OrthoResidual(m, mn, u, ldu); r > thresh {
		t.Fatalf("U orthogonality %v", r)
	}
	v := make([]T, n*mn)
	blas.ConjTransposeTo(mn, n, vt, ldvt, v, n)
	if r := testutil.OrthoResidual(n, mn, v, n); r > thresh {
		t.Fatalf("V orthogonality %v", r)
	}
	us := make([]T, m*mn)
	for j := 0; j < mn; j++ {
		sj := core.FromFloat[T](s[j])
		for i := 0; i < m; i++ {
			us[i+j*m] = u[i+j*ldu] * sj
		}
	}
	rec := make([]T, m*n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, m, n, mn, core.FromFloat[T](1), us, m, vt, ldvt, core.FromFloat[T](0), rec, m)
	if d := diff.MaxDiff(rec, a); d > 1e4*float64(max(m, n))*core.Eps[T]()*math.Max(1, s[0]) {
		t.Fatalf("SVD reconstruction diff %v", d)
	}
	if r := svdResidual(m, n, a, rec); r > 100 {
		t.Fatalf("SVD residual %v", r)
	}
}

// svdResidual returns ‖A − rec‖₁ / (‖A‖₁·max(m, n)·ε) for the m×n matrix a
// and its reconstruction rec = U·Σ·Vᴴ, both with leading dimension m.
func svdResidual[T core.Scalar](m, n int, a, rec []T) float64 {
	r := make([]T, m*n)
	for i := range r {
		r[i] = a[i] - rec[i]
	}
	anrm := lapack.Lange(lapack.OneNorm, m, n, a, m)
	return lapack.Lange(lapack.OneNorm, m, n, r, m) / (anrm * float64(max(m, n)) * core.Eps[T]())
}

// testGesdd drives Gesdd on a random m×n matrix and cross-checks the
// spectrum against the QR-iteration Gesvd on the same input.
func testGesdd[T core.Scalar](t *testing.T, m, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{m, n, 91, 92})
	a := testutil.RandGeneral[T](rng, m, n, m)
	mn := min(m, n)
	sref := make([]float64, mn)
	aref := append([]T(nil), a...)
	if info := lapack.Gesvd[T](tcfg(), lapack.SVDNone, lapack.SVDNone, m, n, aref, m, sref, nil, 0, nil, 0); info != 0 {
		t.Fatalf("gesvd info=%d", info)
	}
	ac := append([]T(nil), a...)
	s := make([]float64, mn)
	u := make([]T, m*mn)
	vt := make([]T, mn*n)
	if info := lapack.Gesdd(tcfg(), lapack.SVDSome, lapack.SVDSome, m, n, ac, m, s, u, m, vt, mn); info != 0 {
		t.Fatalf("gesdd info=%d", info)
	}
	tol := 100 * float64(max(m, n)) * core.Eps[T]() * math.Max(1, sref[0])
	for i := 0; i < mn; i++ {
		if math.Abs(s[i]-sref[i]) > tol {
			t.Fatalf("s[%d]: dc=%v qr=%v", i, s[i], sref[i])
		}
	}
	checkSVD(t, m, n, a, s, u, m, vt, mn)
}

func TestGesdd(t *testing.T) {
	// Shapes covering the square path, the m ≥ 5n/3 QR-first path, the wide
	// LQ-mirror path, and moderately tall blocks below the crossover; the last
	// two hold D&C to the residual bar at benchmark size, square and 16:1.
	for _, mn := range [][2]int{{1, 1}, {2, 2}, {5, 5}, {12, 7}, {7, 12}, {30, 30}, {40, 10}, {10, 40}, {64, 64}, {100, 24}, {256, 256}, {1024, 64}} {
		t.Run("float64", func(t *testing.T) { testGesdd[float64](t, mn[0], mn[1]) })
		t.Run("complex128", func(t *testing.T) { testGesdd[complex128](t, mn[0], mn[1]) })
	}
	t.Run("float32", func(t *testing.T) { testGesdd[float32](t, 9, 6) })
	t.Run("float32tall", func(t *testing.T) { testGesdd[float32](t, 33, 8) })
	t.Run("complex64", func(t *testing.T) { testGesdd[complex64](t, 6, 9) })
}

func testGesddFull[T core.Scalar](t *testing.T, m, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{m, n, 19, 23})
	a := testutil.RandGeneral[T](rng, m, n, m)
	ac := append([]T(nil), a...)
	s := make([]float64, min(m, n))
	u := make([]T, m*m)
	vt := make([]T, n*n)
	if info := lapack.Gesdd(tcfg(), lapack.SVDAll, lapack.SVDAll, m, n, ac, m, s, u, m, vt, n); info != 0 {
		t.Fatalf("gesdd info=%d", info)
	}
	if r := testutil.OrthoResidual(m, m, u, m); r > thresh {
		t.Fatalf("full U orthogonality %v", r)
	}
	if r := testutil.OrthoResidual(n, n, vt, n); r > thresh {
		t.Fatalf("full VT orthogonality %v", r)
	}
	checkSVD(t, m, n, a, s, u, m, vt, n)
}

func TestGesddFull(t *testing.T) {
	for _, mn := range [][2]int{{8, 5}, {5, 8}, {40, 12}, {12, 40}, {16, 16}} {
		t.Run("float64", func(t *testing.T) { testGesddFull[float64](t, mn[0], mn[1]) })
		t.Run("complex128", func(t *testing.T) { testGesddFull[complex128](t, mn[0], mn[1]) })
	}
}

func TestGesddGraded(t *testing.T) {
	// Wide dynamic range: σ spanning ~15 decades must survive the squared
	// secular solve with relative accuracy in the dominant values.
	n := 40
	a := make([]float64, n*n)
	rng := lapack.NewRng([4]int{40, 1, 2, 3})
	q := testutil.RandGeneral[float64](rng, n, n, n)
	tauq := make([]float64, n)
	lapack.Geqrf(tcfg(), n, n, q, n, tauq)
	lapack.Orgqr(tcfg(), n, n, n, q, n, tauq)
	for j := 0; j < n; j++ {
		sj := math.Pow(10, -float64(j)*15/float64(n-1))
		for i := 0; i < n; i++ {
			a[i+j*n] = q[i+j*n] * sj
		}
	}
	ac := append([]float64(nil), a...)
	s := make([]float64, n)
	u := make([]float64, n*n)
	vt := make([]float64, n*n)
	if info := lapack.Gesdd(tcfg(), lapack.SVDSome, lapack.SVDSome, n, n, ac, n, s, u, n, vt, n); info != 0 {
		t.Fatalf("info=%d", info)
	}
	checkSVD(t, n, n, a, s, u, n, vt, n)
	for j := 0; j < n/2; j++ {
		want := math.Pow(10, -float64(j)*15/float64(n-1))
		if math.Abs(s[j]-want) > 1e-10*want+1e-14 {
			t.Fatalf("s[%d]=%v want %v", j, s[j], want)
		}
	}
}

func TestGesddRankDeficient(t *testing.T) {
	// Rank-3 tall matrix through the QR-first path: trailing σ must be ~0
	// and the factorization must still reconstruct.
	m, n, r := 50, 12, 3
	rng := lapack.NewRng([4]int{50, 12, 3, 1})
	uu := testutil.RandGeneral[float64](rng, m, r, m)
	vv := testutil.RandGeneral[float64](rng, r, n, r)
	a := make([]float64, m*n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, m, n, r, 1, uu, m, vv, r, 0, a, m)
	ac := append([]float64(nil), a...)
	s := make([]float64, n)
	u := make([]float64, m*n)
	vt := make([]float64, n*n)
	if info := lapack.Gesdd(tcfg(), lapack.SVDSome, lapack.SVDSome, m, n, ac, m, s, u, m, vt, n); info != 0 {
		t.Fatalf("info=%d", info)
	}
	for i := r; i < n; i++ {
		if s[i] > 1e-10*s[0] {
			t.Fatalf("trailing s[%d]=%v not negligible (s0=%v)", i, s[i], s[0])
		}
	}
	checkSVD(t, m, n, a, s, u, m, vt, n)
}

func TestGesddClustered(t *testing.T) {
	// Deflation-heavy: tightly clustered singular values.
	n := 48
	rng := lapack.NewRng([4]int{48, 7, 7, 7})
	q := testutil.RandGeneral[float64](rng, n, n, n)
	tauq := make([]float64, n)
	lapack.Geqrf(tcfg(), n, n, q, n, tauq)
	lapack.Orgqr(tcfg(), n, n, n, q, n, tauq)
	a := make([]float64, n*n)
	for j := 0; j < n; j++ {
		sj := 2 + 1e-13*float64(j%3)
		for i := 0; i < n; i++ {
			a[i+j*n] = q[i+j*n] * sj
		}
	}
	ac := append([]float64(nil), a...)
	s := make([]float64, n)
	u := make([]float64, n*n)
	vt := make([]float64, n*n)
	if info := lapack.Gesdd(tcfg(), lapack.SVDSome, lapack.SVDSome, n, n, ac, n, s, u, n, vt, n); info != 0 {
		t.Fatalf("info=%d", info)
	}
	checkSVD(t, n, n, a, s, u, n, vt, n)
}

func testGelsd[T core.Scalar](t *testing.T, m, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{m, n, 77, 78})
	nrhs := 3
	a := testutil.RandGeneral[T](rng, m, n, m)
	ldb := max(m, n)
	b := make([]T, ldb*nrhs)
	for j := 0; j < nrhs; j++ {
		lapack.Larnv(2, rng, m, b[j*ldb:])
	}
	b0 := append([]T(nil), b...)
	ac := append([]T(nil), a...)
	s := make([]float64, min(m, n))
	rank, info := lapack.Gelsd(tcfg(), m, n, nrhs, ac, m, b, ldb, s, -1)
	if info != 0 {
		t.Fatalf("gelsd info=%d", info)
	}
	if rank != min(m, n) {
		t.Fatalf("rank=%d", rank)
	}
	one := core.FromFloat[T](1)
	for j := 0; j < nrhs; j++ {
		res := make([]T, m)
		copy(res, b0[j*ldb:j*ldb+m])
		blas.Gemv(tcfg(), blas.NoTrans, m, n, -one, a, m, b[j*ldb:], 1, one, res, 1)
		g := make([]T, n)
		blas.Gemv(tcfg(), blas.ConjTrans, m, n, one, a, m, res, 1, core.FromFloat[T](0), g, 1)
		if nrm := blas.Nrm2(n, g, 1); nrm > 2e5*core.Eps[T]() {
			t.Fatalf("gelsd normal equations %v", nrm)
		}
	}
}

func TestGelsd(t *testing.T) {
	for _, mn := range [][2]int{{10, 4}, {4, 10}, {8, 8}, {60, 9}} {
		t.Run("float64", func(t *testing.T) { testGelsd[float64](t, mn[0], mn[1]) })
		t.Run("complex128", func(t *testing.T) { testGelsd[complex128](t, mn[0], mn[1]) })
	}
	t.Run("float32", func(t *testing.T) { testGelsd[float32](t, 11, 5) })
	t.Run("complex64", func(t *testing.T) { testGelsd[complex64](t, 5, 11) })
}

func TestGelsdRankDeficient(t *testing.T) {
	// Rank-2 problem: Gelsd must agree with the pivoted-QR Gelsx solution.
	m, n, r := 9, 6, 2
	rng := lapack.NewRng([4]int{2, 9, 2, 9})
	uu := testutil.RandGeneral[float64](rng, m, r, m)
	vv := testutil.RandGeneral[float64](rng, r, n, r)
	a := make([]float64, m*n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, m, n, r, 1, uu, m, vv, r, 0, a, m)
	b := make([]float64, max(m, n))
	lapack.Larnv(2, rng, m, b)

	ac := append([]float64(nil), a...)
	bsd := append([]float64(nil), b...)
	s := make([]float64, n)
	rank, info := lapack.Gelsd(tcfg(), m, n, 1, ac, m, bsd, max(m, n), s, 1e-8)
	if info != 0 || rank != r {
		t.Fatalf("gelsd rank=%d info=%d", rank, info)
	}
	ac2 := append([]float64(nil), a...)
	bsx := append([]float64(nil), b...)
	jpvt := make([]int, n)
	if rank2 := lapack.Gelsx(tcfg(), m, n, 1, ac2, m, jpvt, 1e-8, bsx, max(m, n)); rank2 != r {
		t.Fatalf("gelsx rank=%d", rank2)
	}
	for i := 0; i < n; i++ {
		if math.Abs(bsd[i]-bsx[i]) > 1e-8 {
			t.Fatalf("gelsd vs gelsx differ at %d: %v vs %v", i, bsd[i], bsx[i])
		}
	}
}
