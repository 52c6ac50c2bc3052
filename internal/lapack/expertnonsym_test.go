package lapack_test

import (
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/testutil"
)

// testTrsyl solves op(A)·X − X·op(B) = C on both ops, A and B Schur forms
// (2×2 blocks for the real field), and checks the residual. A last row pins
// the one pivot rule of a 1×1 block: a divisor of modulus below SafeMin, zero
// or subnormal, becomes SafeMin on both fields.
func TestTrsylReal(t *testing.T)    { testTrsyl[float64](t) }
func TestTrsylComplex(t *testing.T) { testTrsyl[complex128](t) }

func testTrsyl[E float64 | complex128](t *testing.T) {
	for _, mn := range [][2]int{{4, 3}, {7, 6}, {10, 9}} {
		m, n := mn[0], mn[1]
		rng := lapack.NewRng([4]int{m, n, 5, 6})
		a := testutil.RandGeneral[E](rng, m, m, m)
		b := testutil.RandGeneral[E](rng, n, n, n)
		// Shift B's spectrum away from A's to keep the equation well posed.
		for i := 0; i < n; i++ {
			b[i+i*n] += 10
		}
		w := make([]complex128, max(m, n))
		lapack.Geesx(tcfg(), false, nil, m, a, m, w, nil, 1)
		lapack.Geesx(tcfg(), false, nil, n, b, n, w, nil, 1)
		c := testutil.RandGeneral[E](rng, m, n, m)
		for _, op := range []blas.Trans{blas.NoTrans, blas.ConjTrans} {
			x, r := append([]E(nil), c...), append([]E(nil), c...)
			lapack.Trsyl(tcfg(), op == blas.ConjTrans, -1, m, n, a, m, b, n, x, m)
			blas.Gemm(tcfg(), op, blas.NoTrans, m, n, m, 1, a, m, x, m, -1, r, m)
			blas.Gemm(tcfg(), blas.NoTrans, op, m, n, n, -1, x, m, b, n, 1, r, m)
			if res := lapack.Lange(lapack.MaxAbs, m, n, r, m); res > 1e-10 {
				t.Fatalf("%T m=%d n=%d op %v: residual %v", c[0], m, n, op, res)
			}
		}
	}
	safmin := core.SafeMin[float64]()
	for _, d := range []float64{0, 0x1p-1030} {
		a, b, x := []E{core.FromFloat[E](d)}, []E{0}, []E{1e-300}
		lapack.Trsyl(tcfg(), false, -1, 1, 1, a, 1, b, 1, x, 1)
		if x[0] != core.FromFloat[E](1e-300/safmin) {
			t.Fatalf("%T divisor %v: x = %v, want 1e-300/SafeMin", x[0], d, x[0])
		}
	}
}

func TestGeesxConditionNumbers(t *testing.T) {
	// Block diagonal matrix with well separated clusters: selecting one
	// cluster must give rconde near 1 and rcondv near the spectral gap.
	n := 8
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		if i < 4 {
			a[i+i*n] = 1 + 0.01*float64(i)
		} else {
			a[i+i*n] = 100 + float64(i)
		}
	}
	w := make([]complex128, n)
	vs := make([]float64, n*n)
	res := lapack.Geesx(tcfg(), true, func(re, im float64) bool { return re < 50 }, n, a, n, w, vs, n)
	if res.Info != 0 || res.SDim != 4 {
		t.Fatalf("geesx info=%d sdim=%d", res.Info, res.SDim)
	}
	if res.RCondE[0] < 0.9 || res.RCondE[0] > 1.000001 {
		t.Fatalf("rconde = %v, want near 1 for a normal matrix", res.RCondE[0])
	}
	// sep of two diagonal clusters = min |λᵢ − μⱼ| ≈ 96.97.
	if res.RCondV[0] < 50 || res.RCondV[0] > 110 {
		t.Fatalf("rcondv = %v, want about the 97 spectral gap", res.RCondV[0])
	}

	// A highly non-normal 2×2: rconde must be far below 1.
	b := []float64{1, 0, 1e6, 1.0001}
	res2 := lapack.Geesx(tcfg(), true, func(re, im float64) bool { return re < 1.00005 }, 2, b, 2, w, nil, 1)
	if res2.Info != 0 {
		t.Fatalf("geesx info=%d", res2.Info)
	}
	if res2.RCondE[0] > 1e-3 {
		t.Fatalf("rconde = %v, want tiny for the defective-ish pair", res2.RCondE[0])
	}
}

func TestGeesxComplex(t *testing.T) {
	n := 6
	rng := lapack.NewRng([4]int{n, 3, 1, 4})
	a := testutil.RandGeneral[complex128](rng, n, n, n)
	w := make([]complex128, n)
	vs := make([]complex128, n*n)
	res := lapack.Geesx(tcfg(), true, func(re, im float64) bool { return re > 0 }, n, a, n, w, vs, n)
	if res.Info != 0 {
		t.Fatalf("geesxc info=%d", res.Info)
	}
	if res.RCondE[0] <= 0 || res.RCondE[0] > 1.000001 || res.RCondV[0] < 0 {
		t.Fatalf("conditions: rconde=%v rcondv=%v", res.RCondE[0], res.RCondV[0])
	}
	for i := 0; i < res.SDim; i++ {
		if real(w[i]) <= 0 {
			t.Fatalf("selected eigenvalue %d not positive", i)
		}
	}
}

func TestGeevxConditionNumbers(t *testing.T) {
	// Symmetric matrices have perfectly conditioned eigenvalues: rconde = 1.
	n := 6
	rng := lapack.NewRng([4]int{n, 2, 7, 2})
	a := randSym[float64](rng, n, n)
	ac := append([]float64(nil), a...)
	w := make([]complex128, n)
	vl := make([]float64, n*n)
	vr := make([]float64, n*n)
	res := lapack.Geevx(tcfg(), true, true, true, n, ac, n, w, vl, n, vr, n)
	if res.Info != 0 {
		t.Fatalf("geevx info=%d", res.Info)
	}
	for i := 0; i < n; i++ {
		if math.Abs(res.RCondE[i]-1) > 1e-8 {
			t.Fatalf("symmetric rconde[%d] = %v, want 1", i, res.RCondE[i])
		}
		if res.RCondV[i] <= 0 {
			t.Fatalf("rcondv[%d] = %v", i, res.RCondV[i])
		}
	}
	// Jordan-ish matrix: tiny rconde for the clustered pair.
	b := []float64{1, 0, 1e8, 1.000001}
	res2 := lapack.Geevx(tcfg(), true, false, false, 2, b, 2, w, nil, 1, nil, 1)
	if res2.Info != 0 {
		t.Fatalf("geevx info=%d", res2.Info)
	}
	if res2.RCondE[0] > 1e-2 {
		t.Fatalf("ill-conditioned rconde = %v, want tiny", res2.RCondE[0])
	}
	// Balancing output sanity.
	if res.ABNrm <= 0 || res.ILo < 0 || res.IHi >= n+1 {
		t.Fatalf("balancing outputs: %v %v %v", res.ABNrm, res.ILo, res.IHi)
	}
}

func TestGeevxComplex(t *testing.T) {
	n := 7
	rng := lapack.NewRng([4]int{n, 6, 6, 6})
	a := testutil.RandGeneral[complex128](rng, n, n, n)
	orig := append([]complex128(nil), a...)
	w := make([]complex128, n)
	vl := make([]complex128, n*n)
	vr := make([]complex128, n*n)
	res := lapack.Geevx(tcfg(), true, true, true, n, a, n, w, vl, n, vr, n)
	if res.Info != 0 {
		t.Fatalf("geevxc info=%d", res.Info)
	}
	// The eigenpairs must still be correct.
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			var s complex128
			for k := 0; k < n; k++ {
				s += orig[i+k*n] * vr[k+j*n]
			}
			if d := s - w[j]*vr[i+j*n]; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
				t.Fatalf("pair %d residual", j)
			}
		}
		if res.RCondE[j] <= 0 || res.RCondE[j] > 1.000001 || res.RCondV[j] <= 0 {
			t.Fatalf("conditions at %d: %v %v", j, res.RCondE[j], res.RCondV[j])
		}
	}
}
