package f77_test

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/f77"
	"repro/internal/lapack"
)

func TestF77Eigensolvers(t *testing.T) {
	n := 10
	rng := lapack.NewRng([4]int{10, 20, 30, 40})
	// Symmetric spectrum through three routes must agree: SYEV, SYEVD, and
	// SYTRD+ORGTR+STEQR assembled by hand.
	a0 := make([]float64, n*n)
	lapack.Larnv(2, rng, n*n, a0)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			a0[j+i*n] = a0[i+j*n]
		}
	}
	w1 := make([]float64, n)
	a1 := append([]float64(nil), a0...)
	if info := f77.SYEV[float64](false, f77.Upper, n, a1, n, w1); info != 0 {
		t.Fatalf("syev info=%d", info)
	}
	w2 := make([]float64, n)
	a2 := append([]float64(nil), a0...)
	if info := f77.SYEVD[float64](false, f77.Upper, n, a2, n, w2); info != 0 {
		t.Fatalf("syevd info=%d", info)
	}
	a3 := append([]float64(nil), a0...)
	d := make([]float64, n)
	e := make([]float64, n-1)
	tau := make([]float64, n-1)
	f77.SYTRD[float64](f77.Upper, n, a3, n, d, e, tau)
	f77.ORGTR[float64](f77.Upper, n, a3, n, tau)
	if info := f77.STEQR(n, d, e, a3, n); info != 0 {
		t.Fatalf("steqr info=%d", info)
	}
	for i := 0; i < n; i++ {
		if math.Abs(w1[i]-w2[i]) > 1e-10*(1+math.Abs(w1[i])) {
			t.Fatalf("SYEV vs SYEVD at %d", i)
		}
		if math.Abs(w1[i]-d[i]) > 1e-10*(1+math.Abs(w1[i])) {
			t.Fatalf("SYEV vs assembled pipeline at %d", i)
		}
	}

	// GEEV eigenpair residual for a nonsymmetric matrix.
	g := make([]float64, n*n)
	lapack.Larnv(2, rng, n*n, g)
	gc := append([]float64(nil), g...)
	wr := make([]float64, n)
	wi := make([]float64, n)
	vr := make([]float64, n*n)
	if info := f77.GEEV(false, true, n, gc, n, wr, wi, nil, 1, vr, n); info != 0 {
		t.Fatalf("geev info=%d", info)
	}
	for j := 0; j < n; j++ {
		v := make([]complex128, n)
		if wi[j] == 0 {
			for i := 0; i < n; i++ {
				v[i] = complex(vr[i+j*n], 0)
			}
		} else {
			for i := 0; i < n; i++ {
				v[i] = complex(vr[i+j*n], vr[i+(j+1)*n])
			}
		}
		lam := complex(wr[j], wi[j])
		for i := 0; i < n; i++ {
			var s complex128
			for k := 0; k < n; k++ {
				s += complex(g[i+k*n], 0) * v[k]
			}
			if cmplx.Abs(s-lam*v[i]) > 1e-9 {
				t.Fatalf("geev pair %d residual", j)
			}
		}
		if wi[j] != 0 {
			j++
		}
	}

	// GEES with selection through the F77 signature.
	g2 := append([]float64(nil), g...)
	vs := make([]float64, n*n)
	sdim, info := f77.GEES(true, func(re, im float64) bool { return re > 0 }, n, g2, n, wr, wi, vs, n)
	if info != 0 {
		t.Fatalf("gees info=%d", info)
	}
	for i := 0; i < sdim; i++ {
		if wr[i] <= 0 {
			t.Fatalf("selected eigenvalue %d not positive", i)
		}
	}

	// Complex GEEVC smoke check: trace = sum of eigenvalues.
	cz := make([]complex128, n*n)
	lapack.Larnv(2, rng, n*n, cz)
	tr := complex(0, 0)
	for i := 0; i < n; i++ {
		tr += cz[i+i*n]
	}
	wc := make([]complex128, n)
	if info := f77.GEEVC[complex128](false, false, n, cz, n, wc, nil, 1, nil, 1); info != 0 {
		t.Fatalf("geevc info=%d", info)
	}
	var sum complex128
	for _, v := range wc {
		sum += v
	}
	if cmplx.Abs(sum-tr) > 1e-10*(1+cmplx.Abs(tr)) {
		t.Fatalf("complex trace %v vs eigenvalue sum %v", tr, sum)
	}
}

func TestF77ExpertAndLS(t *testing.T) {
	n, nrhs := 12, 2
	rng := lapack.NewRng([4]int{9, 1, 1, 9})
	a := make([]float64, n*n)
	lapack.Larnv(2, rng, n*n, a)
	xTrue := make([]float64, n*nrhs)
	lapack.Larnv(2, rng, n*nrhs, xTrue)
	b := make([]float64, n*nrhs)
	for j := 0; j < nrhs; j++ {
		for i := 0; i < n; i++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += a[i+k*n] * xTrue[k+j*n]
			}
			b[i+j*n] = s
		}
	}
	af := make([]float64, n*n)
	ipiv := make([]int, n)
	x := make([]float64, n*nrhs)
	ferr := make([]float64, nrhs)
	berr := make([]float64, nrhs)
	rcond, info := f77.GESVX('N', f77.NoTrans, n, nrhs, a, n, af, n, ipiv, b, n, x, n, ferr, berr)
	if info != 0 {
		t.Fatalf("gesvx info=%d", info)
	}
	if rcond <= 0 || rcond > 1.000001 {
		t.Fatalf("rcond=%v", rcond)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-9 {
			t.Fatalf("gesvx solution error at %d", i)
		}
	}
	// FACT = 'F' reuses the factors the first call left in af/ipiv.
	xf := make([]float64, n*nrhs)
	rcondF, info := f77.GESVX('F', f77.NoTrans, n, nrhs, a, n, af, n, ipiv, b, n, xf, n, ferr, berr)
	if info != 0 || rcondF != rcond {
		t.Fatalf("gesvx FACT='F': info=%d rcond=%v, FACT='N' gave rcond=%v", info, rcondF, rcond)
	}
	for i := range x {
		if xf[i] != x[i] {
			t.Fatalf("gesvx FACT='F' solution differs from FACT='N' at %d: %v vs %v", i, xf[i], x[i])
		}
	}
	// GECON must agree with GESVX's estimate.
	anorm := f77.LANGE('1', n, n, a, n)
	af2 := append([]float64(nil), a...)
	ipiv2 := make([]int, n)
	f77.GETRF(n, n, af2, n, ipiv2)
	rc2, info := f77.GECON[float64]('1', n, af2, n, ipiv2, anorm)
	if info != 0 || math.Abs(rc2-rcond) > 1e-10*(1+rcond) {
		t.Fatalf("gecon %v (info %d) vs gesvx rcond %v", rc2, info, rcond)
	}

	// GELSS through the F77 signature.
	m := 20
	a2 := make([]float64, m*6)
	lapack.Larnv(2, rng, m*6, a2)
	b2 := make([]float64, m)
	lapack.Larnv(2, rng, m, b2)
	s := make([]float64, 6)
	rank, info := f77.GELSS(m, 6, 1, a2, m, b2, m, s, -1)
	if info != 0 || rank != 6 {
		t.Fatalf("gelss rank=%d info=%d", rank, info)
	}
	if s[0] < s[5] {
		t.Fatal("singular values not descending")
	}

	// SYGV through the F77 signature: SPD pencil has positive eigenvalues.
	g := make([]float64, n*n)
	lapack.Larnv(2, rng, n*n, g)
	aa := make([]float64, n*n)
	bb := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			s1, s2 := 0.0, 0.0
			for k := 0; k < n; k++ {
				s1 += g[k+i*n] * g[k+j*n]
				s2 += g[i+k*n] * g[j+k*n]
			}
			aa[i+j*n] = s1
			bb[i+j*n] = s2
		}
		aa[j+j*n] += float64(n)
		bb[j+j*n] += float64(n)
	}
	w := make([]float64, n)
	if info := f77.SYGV(1, false, f77.Upper, n, aa, n, bb, n, w); info != 0 {
		t.Fatalf("sygv info=%d", info)
	}
	if w[0] <= 0 {
		t.Fatalf("SPD pencil eigenvalue %v", w[0])
	}
}
