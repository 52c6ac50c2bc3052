package lapack_test

// Property tests for the blocked condensed-form reductions (this PR): the
// Latrd/Labrd/Lahr2 panels under blocked Sytrd/Gebrd/Gehrd must agree with
// their unblocked oracles on random, badly scaled, and rank-deficient
// matrices for all four scalar types. Agreement is checked through
// invariants — spectra and reconstruction residuals — rather than raw
// reflector entries, which are sensitive to sign choices near zero. All
// matrices use a padded lda so leading-dimension bugs cannot hide, and the
// sizes straddle the Ilaenv crossover (128) so both paths run.

import (
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/testutil"
	"repro/internal/testutil/diff"
)

type matKind int

const (
	kindRandom matKind = iota
	kindScaled
	kindRankDef
)

var kindNames = map[matKind]string{
	kindRandom: "random", kindScaled: "scaled", kindRankDef: "rankdef",
}

// typeScale returns an extreme but representable scaling for the type.
func typeScale[T core.Scalar]() T {
	if core.Eps[T]() > 1e-10 {
		return core.FromFloat[T](1e-8)
	}
	return core.FromFloat[T](1e-20)
}

// buildGen returns an m×n matrix of the requested kind.
func buildGen[T core.Scalar](rng *lapack.Rng, m, n, lda int, kind matKind) []T {
	switch kind {
	case kindScaled:
		a := testutil.RandGeneral[T](rng, m, n, lda)
		sc := typeScale[T]()
		for j := 0; j < n; j++ {
			blas.Scal(m, sc, a[j*lda:], 1)
		}
		return a
	case kindRankDef:
		r := max(1, n/4)
		g := testutil.RandGeneral[T](rng, m, r, m)
		h := testutil.RandGeneral[T](rng, r, n, r)
		a := make([]T, lda*n)
		blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, m, n, r, core.FromFloat[T](1),
			g, m, h, r, core.FromFloat[T](0), a, lda)
		return a
	default:
		return testutil.RandGeneral[T](rng, m, n, lda)
	}
}

// buildSym returns a symmetric/Hermitian n×n matrix of the requested kind
// (full storage, real diagonal).
func buildSym[T core.Scalar](rng *lapack.Rng, n, lda int, kind matKind) []T {
	var a []T
	if kind == kindRankDef {
		r := max(1, n/4)
		g := testutil.RandGeneral[T](rng, n, r, n)
		a = make([]T, lda*n)
		blas.Gemm(tcfg(), blas.NoTrans, blas.ConjTrans, n, n, r, core.FromFloat[T](1),
			g, n, g, n, core.FromFloat[T](0), a, lda)
	} else {
		g := buildGen[T](rng, n, n, lda, kind)
		a = make([]T, lda*n)
		half := core.FromFloat[T](0.5)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				a[i+j*lda] = half * (g[i+j*lda] + core.Conj(g[j+i*lda]))
			}
		}
	}
	for i := 0; i < n; i++ {
		a[i+i*lda] = core.FromFloat[T](core.Re(a[i+i*lda]))
	}
	return a
}

// maxAbsF returns max |v_i|.
func maxAbsF(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

// testSytrdProp factors A both ways and checks that (a) the tridiagonal
// spectra agree to a tight tolerance and (b) the blocked factorization
// reconstructs A: Steqr applied to (d, e, Q=Orgtr(...)) must give a valid
// eigendecomposition of the original matrix.
func testSytrdProp[T core.Scalar](t *testing.T, n int, uplo lapack.Uplo, kind matKind) {
	t.Helper()
	rng := lapack.NewRng([4]int{n, int(uplo), int(kind) + 1, 91})
	lda := n + 3
	a := buildSym[T](rng, n, lda, kind)

	ab := make([]T, lda*n)
	lapack.Lacpy('A', n, n, a, lda, ab, lda)
	d1 := make([]float64, n)
	e1 := make([]float64, max(0, n-1))
	tau1 := make([]T, max(0, n-1))
	lapack.Sytrd(tcfg(), uplo, n, ab, lda, d1, e1, tau1)

	au := make([]T, lda*n)
	lapack.Lacpy('A', n, n, a, lda, au, lda)
	d2 := make([]float64, n)
	e2 := make([]float64, max(0, n-1))
	tau2 := make([]T, max(0, n-1))
	lapack.Sytd2(uplo, n, au, lda, d2, e2, tau2)

	// Spectra of the two tridiagonal matrices.
	w1 := append([]float64(nil), d1...)
	f1 := append([]float64(nil), e1...)
	if info := lapack.Sterf(tcfg(), n, w1, f1); info != 0 {
		t.Fatalf("Sterf(tcfg(), blocked) info=%d", info)
	}
	w2 := append([]float64(nil), d2...)
	f2 := append([]float64(nil), e2...)
	if info := lapack.Sterf(tcfg(), n, w2, f2); info != 0 {
		t.Fatalf("Sterf(tcfg(), unblocked) info=%d", info)
	}
	scale := math.Max(maxAbsF(w1), maxAbsF(w2))
	tol := 50 * float64(n) * core.Eps[T]() * scale
	for i := range w1 {
		if math.Abs(w1[i]-w2[i]) > tol {
			t.Fatalf("eig %d: blocked %v vs unblocked %v (tol %v)", i, w1[i], w2[i], tol)
		}
	}

	// Full eigendecomposition from the blocked factorization.
	q := make([]T, lda*n)
	lapack.Lacpy('A', n, n, ab, lda, q, lda)
	lapack.Orgtr(tcfg(), uplo, n, q, lda, tau1)
	if r := testutil.OrthoResidual(n, n, q, lda); r > thresh {
		t.Fatalf("Orgtr ortho residual %v > %v", r, thresh)
	}
	wz := append([]float64(nil), d1...)
	fz := append([]float64(nil), e1...)
	if info := lapack.Steqr(tcfg(), n, wz, fz, q, lda); info != 0 {
		t.Fatalf("Steqr info=%d", info)
	}
	if r := testutil.EigResidual(n, a, lda, wz, q, lda); r > thresh {
		t.Fatalf("blocked Sytrd reconstruction residual %v > %v", r, thresh)
	}
}

func TestSytrdBlockedVsUnblocked(t *testing.T) {
	for _, n := range []int{40, 200} {
		for _, uplo := range []lapack.Uplo{lapack.Lower, lapack.Upper} {
			for kind, kname := range kindNames {
				name := string(byte(uplo)) + "/" + kname
				t.Run("float64/"+name, func(t *testing.T) { testSytrdProp[float64](t, n, uplo, kind) })
				t.Run("float32/"+name, func(t *testing.T) { testSytrdProp[float32](t, n, uplo, kind) })
				t.Run("complex128/"+name, func(t *testing.T) { testSytrdProp[complex128](t, n, uplo, kind) })
				t.Run("complex64/"+name, func(t *testing.T) { testSytrdProp[complex64](t, n, uplo, kind) })
			}
		}
	}
}

// testGebrdProp factors A both ways and checks that the bidiagonal spectra
// (singular values) agree, and that the blocked factorization reconstructs
// A through Qᴴ·A·P = B with orthonormal Q and P.
func testGebrdProp[T core.Scalar](t *testing.T, m, n int, kind matKind) {
	t.Helper()
	rng := lapack.NewRng([4]int{m, n, int(kind) + 3, 77})
	lda := m + 2
	a := buildGen[T](rng, m, n, lda, kind)

	ab := make([]T, lda*n)
	lapack.Lacpy('A', m, n, a, lda, ab, lda)
	d1 := make([]float64, n)
	e1 := make([]float64, max(0, n-1))
	tq1 := make([]T, n)
	tp1 := make([]T, n)
	lapack.Gebrd(tcfg(), m, n, ab, lda, d1, e1, tq1, tp1)

	au := make([]T, lda*n)
	lapack.Lacpy('A', m, n, a, lda, au, lda)
	d2 := make([]float64, n)
	e2 := make([]float64, max(0, n-1))
	tq2 := make([]T, n)
	tp2 := make([]T, n)
	lapack.Gebd2(tcfg(), m, n, au, lda, d2, e2, tq2, tp2)

	s1 := append([]float64(nil), d1...)
	f1 := append([]float64(nil), e1...)
	if info := lapack.Bdsqr[T](tcfg(), n, s1, f1, nil, 1, 0, nil, 1, 0); info != 0 {
		t.Fatalf("Bdsqr(tcfg(), blocked) info=%d", info)
	}
	s2 := append([]float64(nil), d2...)
	f2 := append([]float64(nil), e2...)
	if info := lapack.Bdsqr[T](tcfg(), n, s2, f2, nil, 1, 0, nil, 1, 0); info != 0 {
		t.Fatalf("Bdsqr(tcfg(), unblocked) info=%d", info)
	}
	scale := math.Max(maxAbsF(s1), maxAbsF(s2))
	tol := 50 * float64(max(m, n)) * core.Eps[T]() * scale
	for i := range s1 {
		if math.Abs(s1[i]-s2[i]) > tol {
			t.Fatalf("sv %d: blocked %v vs unblocked %v (tol %v)", i, s1[i], s2[i], tol)
		}
	}

	// Reconstruction: R = Qᴴ·A·P − B must vanish relative to ‖A‖.
	q := make([]T, lda*n)
	lapack.Lacpy('A', m, n, ab, lda, q, lda)
	lapack.Orgbr(tcfg(), 'Q', m, n, n, q, lda, tq1)
	if r := testutil.OrthoResidual(m, n, q, lda); r > thresh {
		t.Fatalf("Orgbr(tcfg(), Q) ortho residual %v > %v", r, thresh)
	}
	pt := make([]T, n*n)
	lapack.Lacpy('A', n, n, ab, lda, pt, n)
	lapack.Orgbr(tcfg(), 'P', n, n, n, pt, n, tp1)
	if r := testutil.OrthoResidual(n, n, pt, n); r > thresh {
		t.Fatalf("Orgbr(tcfg(), P) ortho residual %v > %v", r, thresh)
	}
	one := core.FromFloat[T](1)
	zero := core.FromFloat[T](0)
	t1 := make([]T, n*n)
	blas.Gemm(tcfg(), blas.ConjTrans, blas.NoTrans, n, n, m, one, q, lda, a, lda, zero, t1, n)
	r2 := make([]T, n*n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.ConjTrans, n, n, n, one, t1, n, pt, n, zero, r2, n)
	for i := 0; i < n; i++ {
		r2[i+i*n] -= core.FromFloat[T](d1[i])
		if i+1 < n {
			r2[i+(i+1)*n] -= core.FromFloat[T](e1[i])
		}
	}
	anorm := lapack.Lange(lapack.OneNorm, m, n, a, lda)
	if anorm == 0 {
		anorm = 1
	}
	rnorm := lapack.Lange(lapack.OneNorm, n, n, r2, n)
	if r := rnorm / anorm / (float64(max(m, n)) * core.Eps[T]()); r > thresh {
		t.Fatalf("blocked Gebrd reconstruction residual %v > %v", r, thresh)
	}
}

func TestGebrdBlockedVsUnblocked(t *testing.T) {
	for _, sz := range [][2]int{{40, 30}, {250, 200}} {
		m, n := sz[0], sz[1]
		for kind, kname := range kindNames {
			t.Run("float64/"+kname, func(t *testing.T) { testGebrdProp[float64](t, m, n, kind) })
			t.Run("float32/"+kname, func(t *testing.T) { testGebrdProp[float32](t, m, n, kind) })
			t.Run("complex128/"+kname, func(t *testing.T) { testGebrdProp[complex128](t, m, n, kind) })
			t.Run("complex64/"+kname, func(t *testing.T) { testGebrdProp[complex64](t, m, n, kind) })
		}
	}
}

// testGehrdProp reduces A both ways and checks the blocked result through
// the similarity residual A·Q − Q·H plus Q's orthogonality; for random
// matrices (no near-zero reflector heads, so sign choices are stable) the
// Hessenberg entries are also compared directly.
func testGehrdProp[T core.Scalar](t *testing.T, n int, kind matKind) {
	t.Helper()
	rng := lapack.NewRng([4]int{n, 17, int(kind) + 5, 63})
	lda := n + 1
	a := buildGen[T](rng, n, n, lda, kind)

	ab := make([]T, lda*n)
	lapack.Lacpy('A', n, n, a, lda, ab, lda)
	tau1 := make([]T, max(0, n-1))
	lapack.Gehrd(tcfg(), n, 0, n-1, ab, lda, tau1)

	au := make([]T, lda*n)
	lapack.Lacpy('A', n, n, a, lda, au, lda)
	tau2 := make([]T, max(0, n-1))
	lapack.Gehd2(tcfg(), n, 0, n-1, au, lda, tau2)

	if kind == kindRandom {
		maxh := 0.0
		for j := 0; j < n; j++ {
			for i := 0; i <= min(j+1, n-1); i++ {
				maxh = math.Max(maxh, core.Abs(ab[i+j*lda]-au[i+j*lda]))
			}
		}
		anorm := lapack.Lange(lapack.MaxAbs, n, n, a, lda)
		if maxh > 1e3*float64(n)*core.Eps[T]()*math.Max(anorm, 1) {
			t.Fatalf("blocked vs unblocked Hessenberg differ by %v", maxh)
		}
	}

	// Similarity residual of the blocked reduction.
	q := make([]T, lda*n)
	lapack.Lacpy('A', n, n, ab, lda, q, lda)
	lapack.Orghr(tcfg(), n, 0, n-1, q, lda, tau1)
	if r := testutil.OrthoResidual(n, n, q, lda); r > thresh {
		t.Fatalf("Orghr ortho residual %v > %v", r, thresh)
	}
	one := core.FromFloat[T](1)
	zero := core.FromFloat[T](0)
	aq := make([]T, n*n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, n, n, one, a, lda, q, lda, zero, aq, n)
	// aq −= Q·H, with H the Hessenberg part of the factored matrix.
	h := make([]T, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i <= min(j+1, n-1); i++ {
			h[i+j*n] = ab[i+j*lda]
		}
	}
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, n, n, -one, q, lda, h, n, one, aq, n)
	anorm := lapack.Lange(lapack.OneNorm, n, n, a, lda)
	if anorm == 0 {
		anorm = 1
	}
	rnorm := lapack.Lange(lapack.OneNorm, n, n, aq, n)
	if r := rnorm / anorm / (float64(n) * core.Eps[T]()); r > thresh {
		t.Fatalf("blocked Gehrd similarity residual %v > %v", r, thresh)
	}
}

func TestGehrdBlockedVsUnblocked(t *testing.T) {
	for _, n := range []int{40, 200} {
		for kind, kname := range kindNames {
			t.Run("float64/"+kname, func(t *testing.T) { testGehrdProp[float64](t, n, kind) })
			t.Run("float32/"+kname, func(t *testing.T) { testGehrdProp[float32](t, n, kind) })
			t.Run("complex128/"+kname, func(t *testing.T) { testGehrdProp[complex128](t, n, kind) })
			t.Run("complex64/"+kname, func(t *testing.T) { testGehrdProp[complex64](t, n, kind) })
		}
	}
}

// TestSyevThreadedBitIdentical pins the determinism contract of the blocked
// reduction: at a size where the Her2k trailing update crosses the parallel
// engine's volume threshold, Syev must produce bit-identical eigenvalues at
// every worker count, because every engine tile has a worker-count-independent
// floating-point schedule. (Run under -race by make ci, this also exercises
// the threaded rank-2k for data races.)
func TestSyevThreadedBitIdentical(t *testing.T) {
	const n = 700 // n²·nb/2 comfortably above the engine's parallel threshold
	a := buildSym[float64](lapack.NewRng([4]int{n, 2, 3, 5}), n, n, kindRandom)
	diff.AcrossThreads(t, "Syev eigenvalues", func(threads int) []float64 {
		defer blas.SetThreads(blas.SetThreads(threads))
		w := make([]float64, n)
		if info := lapack.Syev(tcfg(), false, lapack.Lower, n, append([]float64(nil), a...), n, w); info != 0 {
			t.Fatalf("Syev threads=%d: info=%d", threads, info)
		}
		return w
	})
}
