package lapack_test

import (
	"math"
	"math/big"
	"sort"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/testutil"
	"repro/internal/testutil/diff"
)

func testSytrd[T core.Scalar](t *testing.T, uplo lapack.Uplo, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{int(uplo), n, 51, 52})
	a := randHerm[T](rng, n, n)
	af := append([]T(nil), a...)
	d := make([]float64, n)
	e := make([]float64, max(0, n-1))
	tau := make([]T, max(0, n-1))
	lapack.Sytrd(tcfg(), uplo, n, af, n, d, e, tau)
	// Build Q and check Qᴴ·A·Q = T.
	q := append([]T(nil), af...)
	lapack.Orgtr(tcfg(), uplo, n, q, n, tau)
	if r := testutil.OrthoResidual(n, n, q, n); r > thresh {
		t.Fatalf("orgtr orthogonality %v", r)
	}
	one := core.FromFloat[T](1)
	zero := core.FromFloat[T](0)
	tmp := make([]T, n*n)
	tmat := make([]T, n*n)
	blas.Gemm(tcfg(), blas.ConjTrans, blas.NoTrans, n, n, n, one, q, n, a, n, zero, tmp, n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, n, n, one, tmp, n, q, n, zero, tmat, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			var want float64
			switch {
			case i == j:
				want = d[i]
			case i == j+1 || j == i+1:
				want = e[min(i, j)]
			}
			if core.Abs(tmat[i+j*n]-core.FromFloat[T](want)) > 1e3*float64(n)*core.Eps[T]() {
				t.Fatalf("QᴴAQ(%d,%d) = %v, want %v", i, j, tmat[i+j*n], want)
			}
		}
	}
}

func TestSytrd(t *testing.T) {
	for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
		for _, n := range []int{1, 2, 3, 7, 20} {
			t.Run("float64", func(t *testing.T) { testSytrd[float64](t, uplo, n) })
			t.Run("complex128", func(t *testing.T) { testSytrd[complex128](t, uplo, n) })
		}
	}
}

func testSyev[T core.Scalar](t *testing.T, uplo lapack.Uplo, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{int(uplo), n, 61, 62})
	a := randHerm[T](rng, n, n)
	z := append([]T(nil), a...)
	w := make([]float64, n)
	if info := lapack.Syev[T](tcfg(), true, uplo, n, z, n, w); info != 0 {
		t.Fatalf("syev info=%d", info)
	}
	// Ascending eigenvalues.
	if !sort.Float64sAreSorted(w) {
		t.Fatal("eigenvalues not ascending")
	}
	// Residual ‖A·Z − Z·Λ‖ and orthogonality.
	full := symFull(uplo, n, a, n)
	if r := testutil.EigResidual(n, full, n, w, z, n); r > thresh {
		t.Fatalf("eig residual %v", r)
	}
	if r := testutil.OrthoResidual(n, n, z, n); r > thresh {
		t.Fatalf("eigvec orthogonality %v", r)
	}
	// Eigenvalues-only path must agree.
	a2 := symFull(uplo, n, a, n)
	w2 := make([]float64, n)
	if info := lapack.Syev[T](tcfg(), false, lapack.Upper, n, a2, n, w2); info != 0 {
		t.Fatalf("syev(N) info=%d", info)
	}
	for i := range w {
		if math.Abs(w[i]-w2[i]) > 1e-10*(1+math.Abs(w[i]))*float64(n) {
			scale := core.Eps[T]() / core.EpsDouble
			if math.Abs(w[i]-w2[i]) > 1e-10*scale*(1+math.Abs(w[i]))*float64(n) {
				t.Fatalf("jobz N/V eigenvalue mismatch at %d: %v vs %v", i, w[i], w2[i])
			}
		}
	}
	// Trace and Frobenius norm invariants.
	tr := 0.0
	for i := 0; i < n; i++ {
		tr += core.Re(a[i+i*n])
	}
	sumw := 0.0
	for _, v := range w {
		sumw += v
	}
	if math.Abs(tr-sumw) > 1e4*float64(n)*core.Eps[T]()*(1+math.Abs(tr)) {
		t.Fatalf("trace %v != sum of eigenvalues %v", tr, sumw)
	}
}

func TestSyev(t *testing.T) {
	for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
		for _, n := range []int{1, 2, 3, 5, 10, 30, 64} {
			t.Run("float64", func(t *testing.T) { testSyev[float64](t, uplo, n) })
			t.Run("complex128", func(t *testing.T) { testSyev[complex128](t, uplo, n) })
		}
		t.Run("float32", func(t *testing.T) { testSyev[float32](t, uplo, 16) })
		t.Run("complex64", func(t *testing.T) { testSyev[complex64](t, uplo, 16) })
	}
}

func TestSyevDiagonal(t *testing.T) {
	// Known spectrum: diag(5, -3, 1).
	n := 3
	a := []float64{5, 0, 0, 0, -3, 0, 0, 0, 1}
	w := make([]float64, n)
	if info := lapack.Syev[float64](tcfg(), true, lapack.Upper, n, a, n, w); info != 0 {
		t.Fatalf("info=%d", info)
	}
	want := []float64{-3, 1, 5}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-14 {
			t.Fatalf("w[%d] = %v, want %v", i, w[i], want[i])
		}
	}
}

func TestSyevKnown2x2(t *testing.T) {
	// [[2 1],[1 2]] has eigenvalues 1 and 3 with vectors (1,∓1)/√2.
	a := []float64{2, 1, 1, 2}
	w := make([]float64, 2)
	if info := lapack.Syev[float64](tcfg(), true, lapack.Upper, 2, a, 2, w); info != 0 {
		t.Fatalf("info=%d", info)
	}
	if math.Abs(w[0]-1) > 1e-14 || math.Abs(w[1]-3) > 1e-14 {
		t.Fatalf("eigenvalues %v", w)
	}
	s := 1 / math.Sqrt2
	if math.Abs(math.Abs(a[0])-s) > 1e-14 || math.Abs(math.Abs(a[1])-s) > 1e-14 {
		t.Fatalf("eigenvector %v", a[:2])
	}
}

func TestStev(t *testing.T) {
	n := 25
	rng := lapack.NewRng([4]int{71, 72, 73, 74})
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = rng.Uniform11() * 3
	}
	for i := range e {
		e[i] = rng.Uniform11()
	}
	// Dense copy for the residual.
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i+i*n] = d[i]
		if i < n-1 {
			a[i+1+i*n] = e[i]
			a[i+(i+1)*n] = e[i]
		}
	}
	z := make([]float64, n*n)
	dd := append([]float64(nil), d...)
	ee := append([]float64(nil), e...)
	if info := lapack.Stev(tcfg(), n, dd, ee, z, n); info != 0 {
		t.Fatalf("stev info=%d", info)
	}
	if r := testutil.EigResidual(n, a, n, dd, z, n); r > thresh {
		t.Fatalf("stev residual %v", r)
	}
	if r := testutil.OrthoResidual(n, n, z, n); r > thresh {
		t.Fatalf("stev orthogonality %v", r)
	}
}

func TestStebzSturm(t *testing.T) {
	// Matrix with known eigenvalues: tridiag(-1, 2, -1) of order n has
	// eigenvalues 2 - 2*cos(k*pi/(n+1)).
	n := 12
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2
	}
	for i := range e {
		e[i] = -1
	}
	w, m := lapack.Stebz(lapack.RangeAll, n, 0, 0, 0, 0, 0, d, e)
	if m != n {
		t.Fatalf("m=%d", m)
	}
	for k := 0; k < n; k++ {
		want := 2 - 2*math.Cos(float64(k+1)*math.Pi/float64(n+1))
		if math.Abs(w[k]-want) > 1e-10 {
			t.Fatalf("w[%d] = %v, want %v", k, w[k], want)
		}
	}
	// Index range: the three smallest.
	w3, m3 := lapack.Stebz(lapack.RangeIndex, n, 0, 0, 1, 3, 0, d, e)
	if m3 != 3 {
		t.Fatalf("m3=%d", m3)
	}
	for k := 0; k < 3; k++ {
		if math.Abs(w3[k]-w[k]) > 1e-10 {
			t.Fatalf("index-range w[%d] mismatch", k)
		}
	}
	// Value range around the middle.
	wv, mv := lapack.Stebz(lapack.RangeValue, n, 1.0, 3.0, 0, 0, 0, d, e)
	wantCount := 0
	for _, v := range w {
		if v > 1.0 && v <= 3.0 {
			wantCount++
		}
	}
	if mv != wantCount {
		t.Fatalf("value-range count %d, want %d", mv, wantCount)
	}
	_ = wv
}

func testSyevx[T core.Scalar](t *testing.T, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{81, 82, n, 84})
	a := randHerm[T](rng, n, n)
	full := symFull(lapack.Upper, n, a, n)
	// Reference: full spectrum via Syev.
	ref := append([]T(nil), full...)
	wref := make([]float64, n)
	lapack.Syev[T](tcfg(), false, lapack.Upper, n, ref, n, wref)
	// Syevx with an index range.
	il, iu := 2, min(n, 5)
	ac := append([]T(nil), a...)
	z := make([]T, n*(iu-il+1))
	res := lapack.Syevx(tcfg(), true, lapack.RangeIndex, lapack.Upper, n, ac, n, 0, 0, il, iu, 0, z, n)
	if res.M != iu-il+1 {
		t.Fatalf("m=%d want %d", res.M, iu-il+1)
	}
	for k := 0; k < res.M; k++ {
		if math.Abs(res.W[k]-wref[il-1+k]) > 1e-8*(1+math.Abs(wref[il-1+k])) {
			t.Fatalf("syevx w[%d]=%v want %v", k, res.W[k], wref[il-1+k])
		}
	}
	// Eigenvector residual for the selected pairs.
	for k := 0; k < res.M; k++ {
		r := make([]T, n)
		one := core.FromFloat[T](1)
		blas.Gemv(tcfg(), blas.NoTrans, n, n, one, full, n, z[k*n:], 1, core.FromFloat[T](0), r, 1)
		blas.Axpy(n, core.FromFloat[T](-res.W[k]), z[k*n:], 1, r, 1)
		if nrm := blas.Nrm2(n, r, 1); nrm > 1e-6 {
			t.Fatalf("syevx residual for pair %d: %v", k, nrm)
		}
	}
}

func TestSyevx(t *testing.T) {
	for _, n := range []int{5, 12, 30} {
		t.Run("float64", func(t *testing.T) { testSyevx[float64](t, n) })
		t.Run("complex128", func(t *testing.T) { testSyevx[complex128](t, n) })
	}
}

func TestSyevClusteredEigenvalues(t *testing.T) {
	// Matrix with a tight cluster: diag(1, 1+1e-13, 1+2e-13, 5) rotated.
	n := 4
	rng := lapack.NewRng([4]int{1, 9, 9, 5})
	vals := []float64{1, 1 + 1e-13, 1 + 2e-13, 5}
	// Random orthogonal Q via QR of a random matrix.
	g := testutil.RandGeneral[float64](rng, n, n, n)
	tau := make([]float64, n)
	lapack.Geqrf(tcfg(), n, n, g, n, tau)
	q := append([]float64(nil), g...)
	lapack.Orgqr(tcfg(), n, n, n, q, n, tau)
	a := make([]float64, n*n)
	for k := 0; k < n; k++ {
		blas.Ger(n, n, vals[k], q[k*n:], 1, q[k*n:], 1, a, n)
	}
	w := make([]float64, n)
	z := append([]float64(nil), a...)
	if info := lapack.Syev[float64](tcfg(), true, lapack.Upper, n, z, n, w); info != 0 {
		t.Fatalf("info=%d", info)
	}
	if math.Abs(w[3]-5) > 1e-12 || math.Abs(w[0]-1) > 1e-12 {
		t.Fatalf("clustered eigenvalues %v", w)
	}
	if r := testutil.OrthoResidual(n, n, z, n); r > thresh {
		t.Fatalf("cluster orthogonality %v", r)
	}
}

// lartgHypot is Lartg with the norm always from math.Hypot, the form it had
// before the safe-range shortcut.
func lartgHypot(f, g float64) (c, s, r float64) {
	switch {
	case g == 0:
		return 1, 0, f
	case f == 0:
		return 0, 1, g
	}
	r = math.Hypot(f, g)
	c, s = f/r, g/r
	if math.Abs(f) > math.Abs(g) && c < 0 {
		c, s, r = -c, -s, -r
	}
	return c, s, r
}

// TestLartgRanges: inside the safe range Lartg takes sqrt(f²+g²) directly,
// outside it the scaled norm. Against the exact rotation (200-bit
// arithmetic) r is within one ulp and c, s within two (the rounded quotients
// f/r, g/r inherit r's error); against the always-scaled form, whose
// math.Hypot is itself an ulp or two off, everything agrees to three ulps.
// Zeros keep their exact special cases, and NaN and Inf arguments give the
// same class of result as before.
func TestLartgRanges(t *testing.T) {
	within := func(got, want float64, ulps float64) bool {
		if math.IsNaN(want) || math.IsInf(want, 0) || want == 0 {
			return math.IsNaN(got) == math.IsNaN(want) && (math.IsNaN(want) || got == want)
		}
		ulp := math.Nextafter(math.Abs(want), math.Inf(1)) - math.Abs(want)
		return math.Abs(got-want) <= ulps*ulp
	}
	exact := func(f, g float64) (c, s, r float64) {
		bf, bg := new(big.Float).SetPrec(200).SetFloat64(f), new(big.Float).SetPrec(200).SetFloat64(g)
		br := new(big.Float).SetPrec(200)
		br.Sqrt(br.Add(new(big.Float).Mul(bf, bf), new(big.Float).Mul(bg, bg)))
		if math.Abs(f) > math.Abs(g) && f < 0 {
			br.Neg(br)
		}
		c, _ = new(big.Float).Quo(bf, br).Float64()
		s, _ = new(big.Float).Quo(bg, br).Float64()
		r, _ = br.Float64()
		return c, s, r
	}
	check := func(f, g float64) {
		t.Helper()
		c, s, r := lapack.Lartg(f, g)
		wc, ws, wr := lartgHypot(f, g)
		if !within(c, wc, 3) || !within(s, ws, 3) || !within(r, wr, 3) {
			t.Errorf("Lartg(%v, %v) = (%v, %v, %v), scaled form gives (%v, %v, %v)", f, g, c, s, r, wc, ws, wr)
		}
		safe := func(v float64) bool { return math.Abs(v) > 0x1p-511 && math.Abs(v) < 0x1p510 }
		if !safe(f) || !safe(g) {
			// Outside the safe range the scaled path is the only path.
			same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
			if !same(c, wc) || !same(s, ws) || !same(r, wr) {
				t.Errorf("Lartg(%v, %v) = (%v, %v, %v) left the scaled path, which gives (%v, %v, %v)", f, g, c, s, r, wc, ws, wr)
			}
			return
		}
		if ec, es, er := exact(f, g); !within(c, ec, 2) || !within(s, es, 2) || !within(r, er, 1) {
			t.Errorf("Lartg(%v, %v) = (%v, %v, %v), exactly (%v, %v, %v)", f, g, c, s, r, ec, es, er)
		}
	}
	rng := lapack.NewRng([4]int{3, 1, 4, 1})
	scales := []float64{1, 0x1p500, 0x1p-500, 0x1p-511, 0x1p510, 0x1p-1040, 0x1p1000}
	for _, sf := range scales {
		for _, sg := range scales {
			for n := 0; n < 200; n++ {
				check(sf*rng.Uniform11(), sg*rng.Uniform11())
			}
		}
	}
	specials := []float64{0, math.Copysign(0, -1), 1, -2, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64}
	for _, f := range specials {
		for _, g := range specials {
			check(f, g)
		}
	}
	// The rotation it returns is a rotation: c² + s² = 1 and −s·f + c·g = 0.
	for n := 0; n < 200; n++ {
		f, g := rng.Uniform11(), rng.Uniform11()
		c, s, r := lapack.Lartg(f, g)
		if math.Abs(c*c+s*s-1) > 4*core.EpsDouble || math.Abs(c*g-s*f) > 4*core.EpsDouble || math.Abs(c*f+s*g-r) > 4*core.EpsDouble {
			t.Errorf("Lartg(%v, %v) = (%v, %v, %v) is not the rotation onto r", f, g, c, s, r)
		}
	}
}

// testSteqrRoutes runs Steqr with vectors on every row of the kernel table —
// the asm kernels and the portable ones LA90_NO_ASM=1 selects: the spectra
// agree to n·ε·‖T‖ and each row passes the Appendix-F residual and orthogonality
// ratios on its own.
func testSteqrRoutes[T core.Scalar](t *testing.T, n int) {
	rng := lapack.NewRng([4]int{n, 61, 62, 63})
	d0, e0 := make([]float64, n), make([]float64, n-1)
	lapack.Larnv(2, rng, n, d0)
	lapack.Larnv(2, rng, n-1, e0)
	a := make([]T, n*n)
	for i := 0; i < n; i++ {
		a[i+i*n] = core.FromFloat[T](d0[i])
		if i+1 < n {
			a[i+1+i*n] = core.FromFloat[T](e0[i])
			a[i+(i+1)*n] = core.FromFloat[T](e0[i])
		}
	}
	var spectra [3][]float64
	diff.OnRows(t, func(r diff.Row) {
		d, e := append([]float64(nil), d0...), append([]float64(nil), e0...)
		z := make([]T, n*n)
		lapack.Laset('A', n, n, core.FromFloat[T](0), core.FromFloat[T](1), z, n)
		info := lapack.Steqr(tcfg(), n, d, e, z, n)
		if info != 0 {
			t.Fatalf("n=%d %v row: steqr info=%d", n, r, info)
		}
		if res := testutil.EigResidual(n, a, n, d, z, n); res > thresh {
			t.Errorf("n=%d %v row: residual ratio %v", n, r, res)
		}
		if res := testutil.OrthoResidual(n, n, z, n); res > thresh {
			t.Errorf("n=%d %v row: orthogonality ratio %v", n, r, res)
		}
		spectra[r] = d
	})
	tol := 4 * float64(n) * core.EpsDouble * 3 // ‖T‖₁ ≤ 3 for entries in (−1, 1)
	for r, w := range spectra[1:] {
		for i := range w {
			if math.Abs(spectra[0][i]-w[i]) > tol {
				t.Errorf("n=%d: λ[%d] = %v on the selected row, %v on the %v row", n, i, spectra[0][i], w[i], diff.Row(r+1))
			}
		}
	}
}

func TestSteqrRoutesAgree(t *testing.T) {
	for _, n := range []int{5, 33, 150} {
		testSteqrRoutes[float64](t, n)
		testSteqrRoutes[complex128](t, n)
	}
}
