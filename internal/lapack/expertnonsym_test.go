package lapack_test

import (
	"math"
	"testing"

	"repro/internal/lapack"
	"repro/internal/testutil"
)

func TestTrsylReal(t *testing.T) {
	// Solve A·X − X·B = C with quasi-triangular A, B built from real Schur
	// forms, and verify by substitution.
	for _, mn := range [][2]int{{4, 3}, {7, 6}, {10, 9}} {
		m, n := mn[0], mn[1]
		rng := lapack.NewRng([4]int{m, n, 5, 6})
		ga := testutil.RandGeneral[float64](rng, m, m, m)
		gb := testutil.RandGeneral[float64](rng, n, n, n)
		w := make([]complex128, max(m, n))
		// Real Schur forms as the quasi-triangular operands.
		lapack.Geesx(tcfg(), false, nil, m, ga, m, w, nil, 1)
		// Shift B's spectrum away from A's to keep the equation well posed.
		for i := 0; i < n; i++ {
			gb[i+i*n] += 10
		}
		lapack.Geesx(tcfg(), false, nil, n, gb, n, w, nil, 1)

		c := testutil.RandGeneral[float64](rng, m, n, m)
		x := append([]float64(nil), c...)
		lapack.Trsyl(tcfg(), false, -1, m, n, ga, m, gb, n, x, m)
		// Residual A·X − X·B − C.
		maxr := 0.0
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				s := -c[i+j*m]
				for k := 0; k < m; k++ {
					s += ga[i+k*m] * x[k+j*m]
				}
				for k := 0; k < n; k++ {
					s -= x[i+k*m] * gb[k+j*n]
				}
				maxr = math.Max(maxr, math.Abs(s))
			}
		}
		if maxr > 1e-10 {
			t.Fatalf("m=%d n=%d trsyl residual %v", m, n, maxr)
		}
		// Transposed variant: Aᵀ·X − X·Bᵀ = C.
		xt := append([]float64(nil), c...)
		lapack.Trsyl(tcfg(), true, -1, m, n, ga, m, gb, n, xt, m)
		maxr = 0.0
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				s := -c[i+j*m]
				for k := 0; k < m; k++ {
					s += ga[k+i*m] * xt[k+j*m]
				}
				for k := 0; k < n; k++ {
					s -= xt[i+k*m] * gb[j+k*n]
				}
				maxr = math.Max(maxr, math.Abs(s))
			}
		}
		if maxr > 1e-10 {
			t.Fatalf("m=%d n=%d trsyl-T residual %v", m, n, maxr)
		}
	}
}

func TestTrsylComplex(t *testing.T) {
	m, n := 6, 5
	rng := lapack.NewRng([4]int{m, n, 7, 8})
	ga := testutil.RandGeneral[complex128](rng, m, m, m)
	gb := testutil.RandGeneral[complex128](rng, n, n, n)
	for i := 0; i < n; i++ {
		gb[i+i*n] += 8
	}
	w := make([]complex128, max(m, n))
	lapack.Geesx(tcfg(), false, nil, m, ga, m, w, nil, 1)
	lapack.Geesx(tcfg(), false, nil, n, gb, n, w, nil, 1)
	c := testutil.RandGeneral[complex128](rng, m, n, m)
	x := append([]complex128(nil), c...)
	lapack.TrsylC(false, -1, m, n, ga, m, gb, n, x, m)
	maxr := 0.0
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			s := -c[i+j*m]
			for k := 0; k < m; k++ {
				s += ga[i+k*m] * x[k+j*m]
			}
			for k := 0; k < n; k++ {
				s -= x[i+k*m] * gb[k+j*n]
			}
			if v := real(s)*real(s) + imag(s)*imag(s); v > maxr {
				maxr = v
			}
		}
	}
	if math.Sqrt(maxr) > 1e-10 {
		t.Fatalf("complex trsyl residual %v", math.Sqrt(maxr))
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
	orig := append([]complex128(nil), a...)
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
	_ = orig
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
