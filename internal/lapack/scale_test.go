package lapack_test

// Tests for the overflow-safe scaling primitives (Lassq/Lapy2/Lapy3/Lascl)
// and for the norm helpers and Householder generation that ride on them:
// data with entries near math.MaxFloat64 (and near the underflow threshold)
// must produce finite, accurate norms, reflectors, factorizations and
// eigenvalues — the regression class behind the xLASSQ/xLAPY2 design.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
)

func TestLassqExtremeRange(t *testing.T) {
	// Entries spanning 1e-200..1e300: the naive sum of squares overflows on
	// the first large element and underflows the small ones to zero.
	x := []float64{1e300, 1e-200, -3e300, 4e150, 0, 1e300}
	scale, ssq := lapack.Lassq(len(x), x, 1, 0, 1)
	got := scale * math.Sqrt(ssq)
	// exact: sqrt(1 + 9 + 1) e600 + tiny terms = sqrt(11)·1e300.
	want := math.Sqrt(11) * 1e300
	if math.IsInf(got, 0) || math.Abs(got-want) > 1e-12*want {
		t.Fatalf("Lassq = %v, want %v", got, want)
	}
	// Accumulating in two chunks must agree with one pass.
	s2, q2 := lapack.Lassq(3, x, 1, 0, 1)
	s2, q2 = lapack.Lassq(3, x[3:], 1, s2, q2)
	if got2 := s2 * math.Sqrt(q2); math.Abs(got2-got) > 1e-12*want {
		t.Fatalf("chunked Lassq = %v, want %v", got2, got)
	}
	// Complex: modulus folds both parts.
	z := []complex128{complex(3e300, 4e300)}
	sc, sq := lapack.Lassq(1, z, 1, 0, 1)
	if gotc := sc * math.Sqrt(sq); math.Abs(gotc-5e300) > 1e-12*5e300 {
		t.Fatalf("complex Lassq = %v, want 5e300", gotc)
	}
}

func TestLapy2Lapy3(t *testing.T) {
	if got := lapack.Lapy2(3e300, 4e300); math.Abs(got-5e300) > 1e-12*5e300 {
		t.Fatalf("Lapy2 overflow-range = %v", got)
	}
	if got := lapack.Lapy2(3e-300, 4e-300); math.Abs(got-5e-300) > 1e-12*5e-300 {
		t.Fatalf("Lapy2 underflow-range = %v", got)
	}
	if got := lapack.Lapy2(0, 0); got != 0 {
		t.Fatalf("Lapy2(0,0) = %v", got)
	}
	if got := lapack.Lapy3(1e300, 2e300, 2e300); math.Abs(got-3e300) > 1e-12*3e300 {
		t.Fatalf("Lapy3 overflow-range = %v", got)
	}
}

func TestLasclGradedRoundTrip(t *testing.T) {
	// Scale by a factor whose direct quotient overflows (1e300/1e-300 =
	// Inf): Lascl must apply it in representable steps.
	n := 8
	rng := lapack.NewRng([4]int{7, 1, 2, 3})
	a := make([]float64, n*n)
	lapack.Larnv(2, rng, n*n, a)
	orig := append([]float64(nil), a...)
	if info := lapack.Lascl(lapack.MatGeneral, 1e-300, 1e2, n, n, a, n); info != 0 {
		t.Fatalf("Lascl up info=%d", info)
	}
	for i, v := range a {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("element %d went non-finite: %v", i, v)
		}
	}
	if info := lapack.Lascl(lapack.MatGeneral, 1e2, 1e-300, n, n, a, n); info != 0 {
		t.Fatalf("Lascl down info=%d", info)
	}
	for i := range a {
		if math.Abs(a[i]-orig[i]) > 1e-13*math.Abs(orig[i]) {
			t.Fatalf("round trip a[%d] = %v, want %v", i, a[i], orig[i])
		}
	}
	// Triangle selectivity: a MatLower scale must not touch the strict
	// upper triangle.
	b := append([]float64(nil), orig...)
	lapack.Lascl(lapack.MatLower, 1, 2, n, n, b, n)
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if b[i+j*n] != orig[i+j*n] {
				t.Fatalf("MatLower touched upper element (%d,%d)", i, j)
			}
		}
	}
	if lapack.Lascl(lapack.MatGeneral, 0, 1, n, n, b, n) != -2 {
		t.Fatal("cfrom=0 not rejected")
	}
	if lapack.Lascl(lapack.MatGeneral, 1, math.NaN(), n, n, b, n) != -3 {
		t.Fatal("cto=NaN not rejected")
	}
}

// TestNormsExtremeEntries: every norm helper must deliver a finite Frobenius
// norm on entries ~1e300 where squaring overflows (the band, packed and
// tridiagonal formats are covered by TestExpertFormats).
func TestNormsExtremeEntries(t *testing.T) {
	n := 6
	a := make([]float64, n*n)
	for i := range a {
		a[i] = 1e300 * float64(1+i%3)
	}
	checks := map[string]float64{
		"Lange": lapack.Lange(lapack.FrobeniusNorm, n, n, a, n),
		"Lansy": lapack.Lansy(lapack.FrobeniusNorm, lapack.Upper, n, a, n),
		"Lantr": lapack.Lantr(lapack.FrobeniusNorm, lapack.Upper, lapack.NonUnit, n, n, a, n),
	}
	for name, v := range checks {
		if math.IsInf(v, 0) || math.IsNaN(v) || v == 0 {
			t.Errorf("%s Frobenius norm on 1e300 entries = %v", name, v)
		}
	}
	// Spot-check a value: Lange on the 1e300/2e300/3e300 cycle.
	sum := 0.0
	for i := range a {
		x := float64(1 + i%3)
		sum += x * x
	}
	want := 1e300 * math.Sqrt(sum)
	if got := checks["Lange"]; math.Abs(got-want) > 1e-12*want {
		t.Errorf("Lange = %v, want %v", got, want)
	}
}

// TestHouseholderQRNearOverflow is the regression for Larfg/Nrm2 safety:
// QR on a matrix with entries ~1e300 must produce finite reflectors and an
// R whose Frobenius norm matches the input's (Q is orthogonal).
func TestHouseholderQRNearOverflow(t *testing.T) {
	m, n := 12, 8
	rng := lapack.NewRng([4]int{5, 17, 29, 3})
	a := make([]float64, m*n)
	lapack.Larnv(2, rng, m*n, a)
	for i := range a {
		a[i] *= 1e300
	}
	anrm := lapack.Lange(lapack.FrobeniusNorm, m, n, a, m)
	tau := make([]float64, n)
	lapack.Geqrf(tcfg(), m, n, a, m, tau)
	for i, v := range a {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("QR factor element %d non-finite: %v", i, v)
		}
	}
	for i, v := range tau {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("tau[%d] non-finite: %v", i, v)
		}
	}
	rnrm := lapack.Lantr(lapack.FrobeniusNorm, lapack.Upper, lapack.NonUnit, min(m, n), n, a, m)
	if math.Abs(rnrm-anrm) > 1e-12*anrm {
		t.Fatalf("‖R‖_F = %v, want ‖A‖_F = %v (orthogonal invariance)", rnrm, anrm)
	}
}

// TestLarfgSubnormalTail: the classic harmful-underflow case — a tail so
// small the norm denormalizes — must still produce a unit-normalizable
// reflector (the knt rescale loop + Lapy2/Lapy3).
func TestLarfgSubnormalTail(t *testing.T) {
	alpha := 1e-310 // subnormal
	x := []float64{3e-310, 4e-310}
	tau := lapack.Larfg(3, &alpha, x, 1)
	if math.IsNaN(tau) || math.IsInf(tau, 0) || math.IsNaN(alpha) {
		t.Fatalf("tau=%v alpha=%v", tau, alpha)
	}
	// beta = -sign(alpha)*sqrt(1+9+16)e-310; must be non-zero and finite.
	if alpha == 0 || math.IsInf(alpha, 0) {
		t.Fatalf("beta = %v, want finite non-zero", alpha)
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("v[%d] = %v", i, v)
		}
	}
}

// TestSyevExtremeScale: the scaling of the symmetric eigensolvers — xSYEV's
// anrm guard in the dense body, and under both bodies xSTEQR's block scaling
// and xSTEDC's normalization of T, which are xSTEV's tnrm guard — on every
// name of the family (symEigNames), either side of the route crossover. σ·A
// (σ·T for STEV) with σ = 1e300 (squares overflow), 1e-20 (below the unit
// scale the divide & conquer deflation assumes), 1e-290 or 1e-310 (subnormal
// entries, squares vanish) must give σ times the eigenvalues of A and
// orthonormal eigenvectors of A. Scaling by a power of two is exact, so the
// reference is the scaled input brought back to unit scale by one, and a
// subnormal eigenvalue may be off by its own rounding.
func TestSyevExtremeScale(t *testing.T) {
	for _, n := range []int{10, 60, 200} {
		rng := lapack.NewRng([4]int{3, 9, 27, n})
		dense := randHerm[float64](rng, n, n)
		d, e := make([]float64, n), make([]float64, n-1)
		lapack.Larnv(2, rng, n, d)
		lapack.Larnv(2, rng, n-1, e)
		tri := tridiagDense[float64](d, e)
		for _, sigma := range []float64{1e300, 1e-20, 1e-290, 1e-310} {
			exp := math.Ilogb(sigma)
			for _, nm := range symEigNames[float64]() {
				name := fmt.Sprintf("%s/n=%d/sigma=%g", nm.name, n, sigma)
				a0 := dense
				if nm.tridiag {
					a0 = tri
				}
				a, ref := make([]float64, n*n), make([]float64, n*n)
				for i := range a {
					a[i] = a0[i] * sigma
					ref[i] = math.Ldexp(a[i], -exp)
				}
				wref := make([]float64, n)
				if info := lapack.Syev(tcfg(), false, lapack.Upper, n, append([]float64(nil), ref...), n, wref); info != 0 {
					t.Fatalf("%s: reference info %d", name, info)
				}
				w, z := make([]float64, n), make([]float64, n*n)
				if info := nm.run(lapack.Upper, n, a, w, z); info != 0 {
					t.Fatalf("%s: info %d", name, info)
				}
				tol := 64*float64(n)*core.EpsDouble*lapack.Lange(lapack.MaxAbs, n, n, ref, n) +
					math.Ldexp(math.SmallestNonzeroFloat64, -exp)
				for i := range w {
					w[i] = math.Ldexp(w[i], -exp)
					if !(math.Abs(w[i]-wref[i]) <= tol) {
						t.Fatalf("%s: λ[%d]/σ = %v, want %v", name, i, w[i], wref[i])
					}
				}
				checkEig(t, name, n, ref, w, z)
			}
		}
	}
}

// TestNrm2ExtremeRange guards the Level-1 scaled accumulation itself.
func TestNrm2ExtremeRange(t *testing.T) {
	x := []float64{3e300, 4e300}
	if got := blas.Nrm2(2, x, 1); math.Abs(got-5e300) > 1e-12*5e300 {
		t.Fatalf("Nrm2 = %v, want 5e300", got)
	}
	y := []complex128{complex(3e-300, 0), complex(0, 4e-300)}
	if got := blas.Nrm2(2, y, 1); math.Abs(got-5e-300) > 1e-12*5e-300 {
		t.Fatalf("complex Nrm2 = %v, want 5e-300", got)
	}
}

// TestGetrfSubnormalPivot: LU on a rank-1 matrix of tiny entries drives the
// second pivot subnormal; the unguarded reciprocal 1/pivot overflows to Inf
// and used to leak Inf factors with info = 0 (found by FuzzGESVX). The
// SafeMin guard must keep every factor entry finite and report the exact
// singularity, through both the small-matrix kernel and the generic path.
func TestGetrfSubnormalPivot(t *testing.T) {
	check := func(name string, factor func(n int, a []float64, ipiv []int) int) {
		for _, n := range []int{3, 8} {
			a := make([]float64, n*n)
			for i := range a {
				a[i] = -1e-300
			}
			ipiv := make([]int, n)
			info := factor(n, a, ipiv)
			if info == 0 {
				t.Errorf("%s n=%d: rank-1 matrix reported nonsingular", name, n)
			}
			for i, v := range a {
				if math.IsInf(v, 0) || math.IsNaN(v) {
					t.Fatalf("%s n=%d: factor element %d = %v", name, n, i, v)
				}
			}
		}
	}
	check("Getrf", func(n int, a []float64, ipiv []int) int {
		return lapack.Getrf(tcfg(), n, n, a, n, ipiv)
	})
	check("Getf2", func(n int, a []float64, ipiv []int) int {
		return lapack.Getf2(n, n, a, n, ipiv)
	})
	// Complex route (generic small path + Getf2 both take the Abs1 guard).
	zc := make([]complex128, 9)
	for i := range zc {
		zc[i] = complex(-1e-300, 1e-300)
	}
	zpiv := make([]int, 3)
	if info := lapack.Getrf(tcfg(), 3, 3, zc, 3, zpiv); info == 0 {
		t.Error("complex rank-1 matrix reported nonsingular")
	}
	for i, v := range zc {
		if math.IsInf(real(v), 0) || math.IsInf(imag(v), 0) ||
			math.IsNaN(real(v)) || math.IsNaN(imag(v)) {
			t.Fatalf("complex factor element %d = %v", i, v)
		}
	}
}
