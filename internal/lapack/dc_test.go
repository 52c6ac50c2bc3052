package lapack_test

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/testutil"
)

func TestStedcAgainstSteqr(t *testing.T) {
	for _, n := range []int{5, 24, 26, 60, 120} {
		rng := lapack.NewRng([4]int{n, 1, 2, 3})
		d := make([]float64, n)
		e := make([]float64, n-1)
		for i := range d {
			d[i] = rng.Uniform11() * 2
		}
		for i := range e {
			e[i] = rng.Uniform11()
		}
		// Reference via QL/QR.
		dq := append([]float64(nil), d...)
		eq := append([]float64(nil), e...)
		if info := lapack.Sterf(tcfg(), n, dq, eq); info != 0 {
			t.Fatalf("sterf info=%d", info)
		}
		// Divide & conquer with vectors.
		dd := append([]float64(nil), d...)
		ee := append([]float64(nil), e...)
		z := make([]float64, n*n)
		for i := 0; i < n; i++ {
			z[i+i*n] = 1
		}
		if info := lapack.Stedc(tcfg(), n, dd, ee, z, n); info != 0 {
			t.Fatalf("stedc info=%d", info)
		}
		for i := 0; i < n; i++ {
			if math.Abs(dd[i]-dq[i]) > 1e-11*float64(n)*(1+math.Abs(dq[i])) {
				t.Fatalf("n=%d: eigenvalue %d: D&C %v vs QL %v", n, i, dd[i], dq[i])
			}
		}
		// Residual and orthogonality against the dense tridiagonal.
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			a[i+i*n] = d[i]
			if i < n-1 {
				a[i+1+i*n] = e[i]
				a[i+(i+1)*n] = e[i]
			}
		}
		if r := testutil.EigResidual(n, a, n, dd, z, n); r > thresh {
			t.Fatalf("n=%d: D&C residual %v", n, r)
		}
		if r := testutil.OrthoResidual(n, n, z, n); r > thresh {
			t.Fatalf("n=%d: D&C orthogonality %v", n, r)
		}
	}
}

// gluedWilkinson returns blocks copies of the Wilkinson matrix W⁺ of order
// 2m+1 (diagonal |m−i|, off-diagonal 1) glued by off-diagonal entries glue:
// its eigenvalues come in clusters of `blocks` members a distance ~glue apart,
// pairs of which are already close inside one W⁺.
func gluedWilkinson(m, blocks int, glue float64) (d, e []float64) {
	w := 2*m + 1
	d, e = make([]float64, blocks*w), make([]float64, blocks*w-1)
	for i := range d {
		d[i] = math.Abs(float64(m - i%w))
		if i < len(e) {
			e[i] = 1
			if i%w == w-1 {
				e[i] = glue
			}
		}
	}
	return d, e
}

// TestStedcWithClusters runs the tree on matrices whose merges deflate hard —
// a Toeplitz matrix with a constant diagonal (rule 2 on every merge, analytic
// spectrum), glued Wilkinson matrices (clusters across the tear and inside
// the halves, so rotations mix columns of both children into dense ones) and
// a matrix whose couplings are negligible, so that every merge deflates all
// of its columns — and checks the structured merges against the dense-GEMM
// merge kept in dc_ref_test.go, through Stedc (caller's basis, one product)
// and Stevd (the tree alone).
func TestStedcWithClusters(t *testing.T) {
	type tri struct {
		name string
		d, e []float64
	}
	n := 80
	toeplitz := tri{"toeplitz", make([]float64, n), make([]float64, n-1)}
	for i := range toeplitz.d {
		toeplitz.d[i] = 2
	}
	for i := range toeplitz.e {
		toeplitz.e[i] = -1
	}
	cases := []tri{toeplitz}
	for _, glue := range []float64{1e-3, 1e-8, 1e-14} {
		d, e := gluedWilkinson(10, 5, glue)
		cases = append(cases, tri{"glued-wilkinson", d, e})
	}
	allDeflate := tri{"all-deflating", make([]float64, 131), make([]float64, 130)}
	rng := lapack.NewRng([4]int{131, 3, 1, 7})
	for i := range allDeflate.d {
		allDeflate.d[i] = rng.Uniform11()
	}
	for i := range allDeflate.e {
		// Inside a leaf the couplings are ordinary; across every tear of the
		// tree they are far below the deflation threshold.
		allDeflate.e[i] = 0.3 * rng.Uniform11()
		if i%13 == 12 {
			allDeflate.e[i] = 1e-18 * rng.Uniform11()
		}
	}
	cases = append(cases, allDeflate)
	for _, c := range cases {
		n := len(c.d)
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			a[i+i*n] = c.d[i]
			if i < n-1 {
				a[i+1+i*n] = c.e[i]
				a[i+(i+1)*n] = c.e[i]
			}
		}
		anorm := lapack.Lange(lapack.OneNorm, n, n, a, n)
		dref, eref, zref := append([]float64(nil), c.d...), append([]float64(nil), c.e...), make([]float64, n*n)
		if info := lapack.StedcDenseRef(tcfg(), n, dref, eref, zref, n); info != 0 {
			t.Fatalf("%s: reference info=%d", c.name, info)
		}
		for _, route := range []string{"Stedc", "Stevd"} {
			dd, ee, z := append([]float64(nil), c.d...), append([]float64(nil), c.e...), make([]float64, n*n)
			var info int
			if route == "Stedc" {
				lapack.Laset('A', n, n, 0.0, 1.0, z, n)
				info = lapack.Stedc(tcfg(), n, dd, ee, z, n)
			} else {
				info = lapack.Stevd(tcfg(), n, dd, ee, z, n)
			}
			if info != 0 {
				t.Fatalf("%s/%s: info=%d", c.name, route, info)
			}
			for k := 0; k < n; k++ {
				if math.Abs(dd[k]-dref[k]) > float64(n)*core.EpsDouble*anorm {
					t.Fatalf("%s/%s: λ[%d]=%v, dense-merge reference %v", c.name, route, k, dd[k], dref[k])
				}
				if c.name == "toeplitz" {
					if want := 2 - 2*math.Cos(float64(k+1)*math.Pi/float64(n+1)); math.Abs(dd[k]-want) > 1e-11 {
						t.Fatalf("%s: λ[%d]=%v want %v", route, k, dd[k], want)
					}
				}
				// An isolated eigenvalue's vector is determined up to its sign.
				gap := math.Inf(1)
				if k > 0 {
					gap = math.Min(gap, dref[k]-dref[k-1])
				}
				if k < n-1 {
					gap = math.Min(gap, dref[k+1]-dref[k])
				}
				if gap > 1e-3*anorm {
					dot := 0.0
					for i := 0; i < n; i++ {
						dot += z[i+k*n] * zref[i+k*n]
					}
					if math.Abs(math.Abs(dot)-1) > 1e3*float64(n)*core.EpsDouble {
						t.Fatalf("%s/%s: vector %d off the reference's, |cos| = %v", c.name, route, k, math.Abs(dot))
					}
				}
			}
			if r := testutil.OrthoResidual(n, n, z, n); r > thresh {
				t.Fatalf("%s/%s: orthogonality %v", c.name, route, r)
			}
			if r := testutil.EigResidual(n, a, n, dd, z, n); r > thresh {
				t.Fatalf("%s/%s: residual %v", c.name, route, r)
			}
		}
	}
}

func testSyevd[T core.Scalar](t *testing.T, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{n, 8, 8, 8})
	a := randHerm[T](rng, n, n)
	full := symFull(lapack.Upper, n, a, n)
	// Reference eigenvalues.
	ref := append([]T(nil), full...)
	wref := make([]float64, n)
	lapack.Syev[T](tcfg(), false, lapack.Upper, n, ref, n, wref)
	// With vectors under the D&C name (TestSyevRoutes has the route each
	// order takes).
	z := append([]T(nil), a...)
	w := make([]float64, n)
	if info := lapack.Syevd[T](tcfg(), true, lapack.Upper, n, z, n, w); info != 0 {
		t.Fatalf("syevd info=%d", info)
	}
	for i := range w {
		if math.Abs(w[i]-wref[i]) > 1e-10*float64(n)*(1+math.Abs(wref[i])) {
			t.Fatalf("n=%d: syevd w[%d]=%v vs syev %v", n, i, w[i], wref[i])
		}
	}
	if r := testutil.EigResidual(n, full, n, w, z, n); r > thresh {
		t.Fatalf("n=%d syevd residual %v", n, r)
	}
	if r := testutil.OrthoResidual(n, n, z, n); r > thresh {
		t.Fatalf("n=%d syevd orthogonality %v", n, r)
	}
}

func TestSyevd(t *testing.T) {
	for _, n := range []int{3, 20, 40, 90} {
		t.Run("float64", func(t *testing.T) { testSyevd[float64](t, n) })
	}
	t.Run("complex128", func(t *testing.T) { testSyevd[complex128](t, 50) })
}

func TestStevd(t *testing.T) {
	n := 70
	rng := lapack.NewRng([4]int{4, 4, 8, 8})
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = rng.Uniform11() * 3
	}
	for i := range e {
		e[i] = rng.Uniform11()
	}
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i+i*n] = d[i]
		if i < n-1 {
			a[i+1+i*n] = e[i]
			a[i+(i+1)*n] = e[i]
		}
	}
	z := make([]float64, n*n)
	if info := lapack.Stevd[float64](tcfg(), n, d, e, z, n); info != 0 {
		t.Fatalf("stevd info=%d", info)
	}
	if r := testutil.EigResidual(n, a, n, d, z, n); r > thresh {
		t.Fatalf("stevd residual %v", r)
	}
}

func TestSolveSecularBruteForce(t *testing.T) {
	// The secular solver against a dense eigensolve of D + ρ·z·zᵀ,
	// including z components spanning many orders of magnitude (the
	// near-pole regime that requires two-sided anchoring).
	for _, k := range []int{2, 5, 12, 25} {
		rng := lapack.NewRng([4]int{k, 2, 71, 8})
		d := make([]float64, k)
		z := make([]float64, k)
		for i := range d {
			d[i] = rng.Uniform11() * 3
		}
		sort.Float64s(d)
		for i := 1; i < k; i++ {
			if d[i]-d[i-1] < 1e-3 {
				d[i] = d[i-1] + 1e-3
			}
		}
		nz := 0.0
		for i := range z {
			z[i] = rng.Uniform11() * math.Pow(10, -8*rng.Uniform())
			nz += z[i] * z[i]
		}
		nz = math.Sqrt(nz)
		for i := range z {
			z[i] /= nz
		}
		rho := 0.7
		a := make([]float64, k*k)
		for j := 0; j < k; j++ {
			for i := 0; i < k; i++ {
				a[i+j*k] = rho * z[i] * z[j]
			}
			a[j+j*k] += d[j]
		}
		wref := make([]float64, k)
		ar := append([]float64(nil), a...)
		lapack.Syev[float64](tcfg(), false, lapack.Upper, k, ar, k, wref)
		lam := make([]float64, k)
		u := make([]float64, k*k)
		lapack.SolveSecularForTest(k, rho, d, z, lam, u)
		for i := range lam {
			if math.Abs(lam[i]-wref[i]) > 1e-13*(1+math.Abs(wref[i])) {
				t.Fatalf("k=%d λ[%d]=%v want %v", k, i, lam[i], wref[i])
			}
		}
		// Residual of the rank-one eigenproblem.
		for c := 0; c < k; c++ {
			for i := 0; i < k; i++ {
				s := d[i]*u[i+c*k] - lam[c]*u[i+c*k]
				for j := 0; j < k; j++ {
					s += rho * z[i] * z[j] * u[j+c*k]
				}
				if math.Abs(s) > 1e-13 {
					t.Fatalf("k=%d secular residual %v at (%d,%d)", k, s, i, c)
				}
			}
		}
	}
}

func TestStedcNoNaNs(t *testing.T) {
	// Guard against silent NaN propagation (comparisons against NaN are
	// always false, so residual checks alone would not catch it).
	for _, n := range []int{30, 50, 90} {
		rng := lapack.NewRng([4]int{n, 13, 13, 13})
		d := make([]float64, n)
		e := make([]float64, n-1)
		for i := range d {
			d[i] = rng.Uniform11() * 2
		}
		for i := range e {
			e[i] = rng.Uniform11()
		}
		z := make([]float64, n*n)
		for i := 0; i < n; i++ {
			z[i+i*n] = 1
		}
		if info := lapack.Stedc(tcfg(), n, d, e, z, n); info != 0 {
			t.Fatalf("stedc info=%d", info)
		}
		for i, v := range d {
			if math.IsNaN(v) {
				t.Fatalf("n=%d: NaN eigenvalue at %d", n, i)
			}
		}
		for i, v := range z {
			if math.IsNaN(v) {
				t.Fatalf("n=%d: NaN eigenvector entry at %d", n, i)
			}
		}
	}
}
