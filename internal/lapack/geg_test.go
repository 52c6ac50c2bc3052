package lapack_test

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/testutil"
)

func TestGerq2Orgr2(t *testing.T) {
	for _, mn := range [][2]int{{5, 5}, {4, 9}, {9, 9}} {
		m, n := mn[0], mn[1]
		for _, cplx := range []bool{false, true} {
			rng := lapack.NewRng([4]int{m, n, 31, 41})
			if !cplx {
				a := testutil.RandGeneral[float64](rng, m, n, m)
				af := append([]float64(nil), a...)
				tau := make([]float64, min(m, n))
				lapack.Gerq2(tcfg(), m, n, af, m, tau)
				qq := append([]float64(nil), af...)
				lapack.Orgr2(tcfg(), m, n, min(m, n), qq, m, tau)
				// Rows of Q orthonormal: Q·Qᴴ = I.
				for i := 0; i < m; i++ {
					for j := 0; j < m; j++ {
						s := 0.0
						for k := 0; k < n; k++ {
							s += qq[i+k*m] * qq[j+k*m]
						}
						want := 0.0
						if i == j {
							want = 1
						}
						if math.Abs(s-want) > 1e-12 {
							t.Fatalf("QQᵀ(%d,%d) = %v", i, j, s)
						}
					}
				}
				// A = R·Q with R the upper-trapezoid of af (columns n-m..n-1).
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						s := 0.0
						for k := i; k < m; k++ {
							s += af[i+(n-m+k)*m] * qq[k+j*m]
						}
						if math.Abs(s-a[i+j*m]) > 1e-12 {
							t.Fatalf("RQ(%d,%d) = %v want %v", i, j, s, a[i+j*m])
						}
					}
				}
			} else {
				a := testutil.RandGeneral[complex128](rng, m, n, m)
				af := append([]complex128(nil), a...)
				tau := make([]complex128, min(m, n))
				lapack.Gerq2(tcfg(), m, n, af, m, tau)
				qq := append([]complex128(nil), af...)
				lapack.Orgr2(tcfg(), m, n, min(m, n), qq, m, tau)
				for i := 0; i < m; i++ {
					for j := 0; j < m; j++ {
						var s complex128
						for k := 0; k < n; k++ {
							s += qq[i+k*m] * cmplx.Conj(qq[j+k*m])
						}
						want := complex128(0)
						if i == j {
							want = 1
						}
						if cmplx.Abs(s-want) > 1e-12 {
							t.Fatalf("cplx QQᴴ(%d,%d) = %v", i, j, s)
						}
					}
				}
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						var s complex128
						for k := i; k < m; k++ {
							s += af[i+(n-m+k)*m] * qq[k+j*m]
						}
						if cmplx.Abs(s-a[i+j*m]) > 1e-12 {
							t.Fatalf("cplx RQ(%d,%d)", i, j)
						}
					}
				}
			}
		}
	}
}

func TestGegsReal(t *testing.T) {
	for _, n := range []int{2, 5, 12} {
		rng := lapack.NewRng([4]int{n, 61, 61, 61})
		a := testutil.RandGeneral[float64](rng, n, n, n)
		b := testutil.RandGeneral[float64](rng, n, n, n)
		for i := 0; i < n; i++ {
			b[i+i*n] += 3 // keep B comfortably nonsingular
		}
		s := append([]float64(nil), a...)
		tt := append([]float64(nil), b...)
		alpha := make([]complex128, n)
		beta := make([]complex128, n)
		q := make([]float64, n*n)
		z := make([]float64, n*n)
		if info := lapack.Gegs(tcfg(), n, s, n, tt, n, alpha, beta, q, n, z, n); info != 0 {
			t.Fatalf("n=%d gegs info=%d", n, info)
		}
		// Q, Z orthogonal; A = Q·S·Zᵀ; B = Q·T·Zᵀ.
		if r := testutil.OrthoResidual(n, n, q, n); r > thresh {
			t.Fatalf("Q orthogonality %v", r)
		}
		if r := testutil.OrthoResidual(n, n, z, n); r > thresh {
			t.Fatalf("Z orthogonality %v", r)
		}
		checkQSZ(t, n, a, q, s, z, 100*thresh)
		checkQSZ(t, n, b, q, tt, z, 100*thresh)
		// Eigenvalue ratios must match the eigenvalues of B⁻¹A from Geev.
		m := append([]float64(nil), a...)
		blu := append([]float64(nil), b...)
		ipiv := make([]int, n)
		lapack.Getrf(tcfg(), n, n, blu, n, ipiv)
		lapack.Getrs(tcfg(), lapack.NoTrans, n, n, blu, n, ipiv, m, n)
		wr := make([]float64, n)
		wi := make([]float64, n)
		lapack.Geev[float64](tcfg(), false, false, n, m, n, wr, wi, nil, 0, nil, 0)
		for i := 0; i < n; i++ {
			lam := alpha[i] / beta[i]
			found := false
			for j := 0; j < n; j++ {
				if cmplx.Abs(lam-complex(wr[j], wi[j])) < 1e-7*(1+cmplx.Abs(lam)) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("n=%d generalized eigenvalue %v not in reference spectrum", n, lam)
			}
		}
	}
}

// checkQSZ verifies ‖A − Q·S·Zᵀ‖ small.
func checkQSZ(t *testing.T, n int, a, q, s, z []float64, tol float64) {
	t.Helper()
	tmp := make([]float64, n*n)
	rec := make([]float64, n*n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, n, n, 1, q, n, s, n, 0, tmp, n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.TransT, n, n, n, 1, tmp, n, z, n, 0, rec, n)
	for i := range rec {
		rec[i] -= a[i]
	}
	anorm := lapack.Lange(lapack.OneNorm, n, n, a, n)
	if anorm == 0 {
		anorm = 1
	}
	r := lapack.Lange(lapack.OneNorm, n, n, rec, n) / (anorm * float64(n) * core.EpsDouble)
	if r > tol {
		t.Fatalf("Q·S·Zᵀ residual %v", r)
	}
}

func TestGegvReal(t *testing.T) {
	n := 10
	rng := lapack.NewRng([4]int{n, 71, 71, 71})
	a := testutil.RandGeneral[float64](rng, n, n, n)
	b := testutil.RandGeneral[float64](rng, n, n, n)
	for i := 0; i < n; i++ {
		b[i+i*n] += 3
	}
	ac := append([]float64(nil), a...)
	bc := append([]float64(nil), b...)
	alpha := make([]complex128, n)
	beta := make([]complex128, n)
	vl := make([]float64, n*n)
	vr := make([]float64, n*n)
	if info := lapack.Gegv(tcfg(), true, true, n, ac, n, bc, n, alpha, beta, vl, n, vr, n); info != 0 {
		t.Fatalf("gegv info=%d", info)
	}
	// Right: A·v = λ·B·v; Left: uᵀ·A = λ·uᵀ·B (real-packed columns).
	for j := 0; j < n; j++ {
		lam := alpha[j] / beta[j]
		vjr := make([]complex128, n)
		ujr := make([]complex128, n)
		if imag(alpha[j]) == 0 {
			for i := 0; i < n; i++ {
				vjr[i] = complex(vr[i+j*n], 0)
				ujr[i] = complex(vl[i+j*n], 0)
			}
		} else {
			for i := 0; i < n; i++ {
				vjr[i] = complex(vr[i+j*n], vr[i+(j+1)*n])
				ujr[i] = complex(vl[i+j*n], vl[i+(j+1)*n])
			}
		}
		for i := 0; i < n; i++ {
			var av, bv, ua, ub complex128
			for k := 0; k < n; k++ {
				av += complex(a[i+k*n], 0) * vjr[k]
				bv += complex(b[i+k*n], 0) * vjr[k]
				ua += cmplx.Conj(ujr[k]) * complex(a[k+i*n], 0)
				ub += cmplx.Conj(ujr[k]) * complex(b[k+i*n], 0)
			}
			if cmplx.Abs(av-lam*bv) > 1e-8*(1+cmplx.Abs(av)) {
				t.Fatalf("right pair %d row %d: %v vs %v", j, i, av, lam*bv)
			}
			if cmplx.Abs(ua-lam*ub) > 1e-7*(1+cmplx.Abs(ua)) {
				t.Fatalf("left pair %d row %d: %v vs %v", j, i, ua, lam*ub)
			}
		}
		if imag(alpha[j]) != 0 {
			j++
		}
	}
}

func TestGegsGegvComplex(t *testing.T) {
	n := 8
	rng := lapack.NewRng([4]int{n, 81, 81, 81})
	a := testutil.RandGeneral[complex128](rng, n, n, n)
	b := testutil.RandGeneral[complex128](rng, n, n, n)
	for i := 0; i < n; i++ {
		b[i+i*n] += 3
	}
	s := append([]complex128(nil), a...)
	tt := append([]complex128(nil), b...)
	alpha := make([]complex128, n)
	beta := make([]complex128, n)
	q := make([]complex128, n*n)
	z := make([]complex128, n*n)
	if info := lapack.Gegs(tcfg(), n, s, n, tt, n, alpha, beta, q, n, z, n); info != 0 {
		t.Fatalf("gegsc info=%d", info)
	}
	// A = Q·S·Zᴴ and B = Q·T·Zᴴ with triangular S, T.
	for _, pair := range [][2][]complex128{{a, s}, {b, tt}} {
		tmp := make([]complex128, n*n)
		rec := make([]complex128, n*n)
		blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, n, n, 1, q, n, pair[1], n, 0, tmp, n)
		blas.Gemm(tcfg(), blas.NoTrans, blas.ConjTrans, n, n, n, 1, tmp, n, z, n, 0, rec, n)
		for i := range rec {
			rec[i] -= pair[0][i]
		}
		anorm := lapack.Lange(lapack.OneNorm, n, n, pair[0], n)
		if r := lapack.Lange(lapack.OneNorm, n, n, rec, n) / (anorm * float64(n) * core.EpsDouble); r > 100*thresh {
			t.Fatalf("complex generalized Schur residual %v", r)
		}
	}
	// Gegv eigenvector check.
	ac := append([]complex128(nil), a...)
	bc := append([]complex128(nil), b...)
	vr := make([]complex128, n*n)
	if info := lapack.Gegv(tcfg(), false, true, n, ac, n, bc, n, alpha, beta, nil, 0, vr, n); info != 0 {
		t.Fatalf("gegvc info=%d", info)
	}
	for j := 0; j < n; j++ {
		lam := alpha[j] / beta[j]
		for i := 0; i < n; i++ {
			var av, bv complex128
			for k := 0; k < n; k++ {
				av += a[i+k*n] * vr[k+j*n]
				bv += b[i+k*n] * vr[k+j*n]
			}
			if cmplx.Abs(av-lam*bv) > 1e-8*(1+cmplx.Abs(av)) {
				t.Fatalf("complex right pair %d", j)
			}
		}
	}
}

func testGgsvd[T core.Scalar](t *testing.T, m, p, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{m, p, n, 91})
	a := testutil.RandGeneral[T](rng, m, n, max(1, m))
	b := testutil.RandGeneral[T](rng, p, n, max(1, p))
	ac := append([]T(nil), a...)
	bc := append([]T(nil), b...)
	u := make([]T, max(1, m)*n)
	v := make([]T, max(1, p)*n)
	q := make([]T, n*n)
	r := make([]T, n*n)
	res := lapack.Ggsvd(tcfg(), m, p, n, ac, max(1, m), bc, max(1, p), u, max(1, m), v, max(1, p), q, n, r, n)
	if res.Info != 0 {
		t.Fatalf("ggsvd info=%d", res.Info)
	}
	// alpha²+beta² = 1; alpha descending, beta ascending.
	for i := 0; i < n; i++ {
		if math.Abs(res.Alpha[i]*res.Alpha[i]+res.Beta[i]*res.Beta[i]-1) > 1e-12 {
			t.Fatalf("alpha/beta not on the unit circle at %d", i)
		}
		if i > 0 && res.Beta[i] < res.Beta[i-1]-1e-12 {
			t.Fatalf("beta not ascending at %d", i)
		}
	}
	// X = R·Qᴴ; A = U·diag(alpha)·X; B = V·diag(beta)·X.
	x := make([]T, n*n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.ConjTrans, n, n, n, core.FromFloat[T](1), r, n, q, n, core.FromFloat[T](0), x, n)
	checkGSVDProduct(t, "A", m, n, a, u, res.Alpha, x)
	checkGSVDProduct(t, "B", p, n, b, v, res.Beta, x)
	// Q unitary.
	if or := testutil.OrthoResidual(n, n, q, n); or > thresh {
		t.Fatalf("Q orthogonality %v", or)
	}
}

func checkGSVDProduct[T core.Scalar](t *testing.T, label string, rows, n int, orig, basis []T, diag []float64, x []T) {
	t.Helper()
	if rows == 0 {
		return
	}
	rec := make([]T, rows*n)
	scaled := make([]T, rows*n)
	for j := 0; j < n; j++ {
		dj := core.FromFloat[T](diag[j])
		for i := 0; i < rows; i++ {
			scaled[i+j*rows] = basis[i+j*rows] * dj
		}
	}
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, rows, n, n, core.FromFloat[T](1), scaled, rows, x, n, core.FromFloat[T](0), rec, rows)
	maxd := 0.0
	for i := range rec {
		maxd = math.Max(maxd, core.Abs(rec[i]-orig[i]))
	}
	if maxd > 1e-10*float64(n) {
		t.Fatalf("%s reconstruction diff %v", label, maxd)
	}
}

func TestGgsvd(t *testing.T) {
	for _, mpn := range [][3]int{{6, 4, 3}, {8, 8, 6}, {3, 7, 5}, {10, 2, 6}} {
		t.Run("float64", func(t *testing.T) { testGgsvd[float64](t, mpn[0], mpn[1], mpn[2]) })
		t.Run("complex128", func(t *testing.T) { testGgsvd[complex128](t, mpn[0], mpn[1], mpn[2]) })
	}
}
