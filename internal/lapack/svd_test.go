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

func testGesvd[T core.Scalar](t *testing.T, m, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{m, n, 91, 92})
	a := testutil.RandGeneral[T](rng, m, n, m)
	mn := min(m, n)
	ac := append([]T(nil), a...)
	s := make([]float64, mn)
	u := make([]T, m*mn)
	vt := make([]T, mn*n)
	if info := lapack.Gesvd(tcfg(), lapack.SVDSome, lapack.SVDSome, m, n, ac, m, s, u, m, vt, mn); info != 0 {
		t.Fatalf("gesvd info=%d", info)
	}
	// Descending, non-negative singular values.
	for i := 0; i < mn; i++ {
		if s[i] < 0 {
			t.Fatalf("negative singular value %v", s[i])
		}
		if i > 0 && s[i] > s[i-1]*(1+1e-12) {
			t.Fatalf("singular values not descending at %d", i)
		}
	}
	// Orthogonality of U and V.
	if r := testutil.OrthoResidual(m, mn, u, m); r > thresh {
		t.Fatalf("U orthogonality %v", r)
	}
	v := make([]T, n*mn)
	for i := 0; i < mn; i++ {
		for j := 0; j < n; j++ {
			v[j+i*n] = core.Conj(vt[i+j*mn])
		}
	}
	if r := testutil.OrthoResidual(n, mn, v, n); r > thresh {
		t.Fatalf("V orthogonality %v", r)
	}
	// Reconstruction A = U·Σ·Vᴴ.
	us := make([]T, m*mn)
	for j := 0; j < mn; j++ {
		sj := core.FromFloat[T](s[j])
		for i := 0; i < m; i++ {
			us[i+j*m] = u[i+j*m] * sj
		}
	}
	rec := make([]T, m*n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, m, n, mn, core.FromFloat[T](1), us, m, vt, mn, core.FromFloat[T](0), rec, m)
	if d := diff.MaxDiff(rec, a); d > 1e4*float64(max(m, n))*core.Eps[T]() {
		t.Fatalf("SVD reconstruction diff %v", d)
	}
	if r := svdResidual(m, n, a, rec); r > 100 {
		t.Fatalf("SVD residual %v", r)
	}
	// Frobenius norm invariant: ‖A‖F² = Σσᵢ².
	fro := lapack.Lange(lapack.FrobeniusNorm, m, n, a, m)
	ss := 0.0
	for _, v := range s {
		ss += v * v
	}
	if math.Abs(fro*fro-ss) > 1e-8*(1+fro*fro) {
		scale := core.Eps[T]() / core.EpsDouble
		if math.Abs(fro*fro-ss) > 1e-8*scale*(1+fro*fro) {
			t.Fatalf("Frobenius invariant: %v vs %v", fro*fro, ss)
		}
	}
}

func TestGesvd(t *testing.T) {
	for _, mn := range [][2]int{{1, 1}, {2, 2}, {5, 5}, {12, 7}, {7, 12}, {30, 30}, {40, 10}, {10, 40}, {256, 256}, {1024, 64}} {
		t.Run("float64", func(t *testing.T) { testGesvd[float64](t, mn[0], mn[1]) })
		t.Run("complex128", func(t *testing.T) { testGesvd[complex128](t, mn[0], mn[1]) })
	}
	t.Run("float32", func(t *testing.T) { testGesvd[float32](t, 9, 6) })
	t.Run("complex64", func(t *testing.T) { testGesvd[complex64](t, 6, 9) })
}

func TestGesvdKnownValues(t *testing.T) {
	// diag(3, 2, 1) padded: singular values are 3, 2, 1.
	m, n := 5, 3
	a := make([]float64, m*n)
	a[0], a[1+m], a[2+2*m] = 3, -2, 1
	s := make([]float64, n)
	if info := lapack.Gesvd(tcfg(), lapack.SVDNone, lapack.SVDNone, m, n, a, m, s, nil, 0, nil, 0); info != 0 {
		t.Fatalf("info=%d", info)
	}
	want := []float64{3, 2, 1}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-12 {
			t.Fatalf("s[%d] = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestGesvdFullU(t *testing.T) {
	m, n := 8, 5
	rng := lapack.NewRng([4]int{3, 3, 9, 9})
	a := testutil.RandGeneral[float64](rng, m, n, m)
	ac := append([]float64(nil), a...)
	s := make([]float64, n)
	u := make([]float64, m*m)
	vt := make([]float64, n*n)
	if info := lapack.Gesvd(tcfg(), lapack.SVDAll, lapack.SVDAll, m, n, ac, m, s, u, m, vt, n); info != 0 {
		t.Fatalf("info=%d", info)
	}
	if r := testutil.OrthoResidual(m, m, u, m); r > thresh {
		t.Fatalf("full U orthogonality %v", r)
	}
	if r := testutil.OrthoResidual(n, n, vt, n); r > thresh {
		t.Fatalf("full VT orthogonality %v", r)
	}
}

func TestBdsqrDiagonal(t *testing.T) {
	// Already-diagonal input: values must just be sorted descending.
	n := 4
	d := []float64{1, 3, 2, 5}
	e := []float64{0, 0, 0}
	if info := lapack.Bdsqr[float64](tcfg(), n, d, e, nil, 0, 0, nil, 0, 0); info != 0 {
		t.Fatalf("info=%d", info)
	}
	want := []float64{5, 3, 2, 1}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-14 {
			t.Fatalf("d = %v", d)
		}
	}
}

func testGelss[T core.Scalar](t *testing.T, m, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{m, n, 77, 78})
	nrhs := 2
	a := testutil.RandGeneral[T](rng, m, n, m)
	ldb := max(m, n)
	b := make([]T, ldb*nrhs)
	lapack.Larnv(2, rng, m, b)
	lapack.Larnv(2, rng, m, b[ldb:])
	b0 := append([]T(nil), b...)
	ac := append([]T(nil), a...)
	s := make([]float64, min(m, n))
	rank, info := lapack.Gelss(tcfg(), m, n, nrhs, ac, m, b, ldb, s, -1)
	if info != 0 {
		t.Fatalf("gelss info=%d", info)
	}
	if rank != min(m, n) {
		t.Fatalf("rank=%d", rank)
	}
	// Normal equations: Aᴴ(b − A·x) = 0.
	one := core.FromFloat[T](1)
	for j := 0; j < nrhs; j++ {
		res := make([]T, m)
		copy(res, b0[j*ldb:j*ldb+m])
		blas.Gemv(tcfg(), blas.NoTrans, m, n, -one, a, m, b[j*ldb:], 1, one, res, 1)
		g := make([]T, n)
		blas.Gemv(tcfg(), blas.ConjTrans, m, n, one, a, m, res, 1, core.FromFloat[T](0), g, 1)
		if nrm := blas.Nrm2(n, g, 1); nrm > 2e5*core.Eps[T]() {
			t.Fatalf("gelss normal equations %v", nrm)
		}
	}
}

func TestGelss(t *testing.T) {
	for _, mn := range [][2]int{{10, 4}, {4, 10}, {8, 8}} {
		t.Run("float64", func(t *testing.T) { testGelss[float64](t, mn[0], mn[1]) })
		t.Run("complex128", func(t *testing.T) { testGelss[complex128](t, mn[0], mn[1]) })
	}
}

func TestGelssRankDeficient(t *testing.T) {
	// Rank-2 matrix; gelss must report rank 2 and produce the minimum-norm
	// solution identical to gelsx.
	m, n, r := 9, 6, 2
	rng := lapack.NewRng([4]int{2, 9, 2, 9})
	uu := testutil.RandGeneral[float64](rng, m, r, m)
	vv := testutil.RandGeneral[float64](rng, r, n, r)
	a := make([]float64, m*n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, m, n, r, 1, uu, m, vv, r, 0, a, m)
	b := make([]float64, max(m, n))
	lapack.Larnv(2, rng, m, b)

	ac := append([]float64(nil), a...)
	bss := append([]float64(nil), b...)
	s := make([]float64, n)
	rank, info := lapack.Gelss(tcfg(), m, n, 1, ac, m, bss, max(m, n), s, 1e-8)
	if info != 0 || rank != r {
		t.Fatalf("gelss rank=%d info=%d", rank, info)
	}
	ac2 := append([]float64(nil), a...)
	bsx := append([]float64(nil), b...)
	jpvt := make([]int, n)
	rank2 := lapack.Gelsx(tcfg(), m, n, 1, ac2, m, jpvt, 1e-8, bsx, max(m, n))
	if rank2 != r {
		t.Fatalf("gelsx rank=%d", rank2)
	}
	for i := 0; i < n; i++ {
		if math.Abs(bss[i]-bsx[i]) > 1e-8 {
			t.Fatalf("gelss vs gelsx solution differ at %d: %v vs %v", i, bss[i], bsx[i])
		}
	}
}
