package la_test

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/core"
	"repro/internal/lapack"
	"repro/la"
)

// randMat fills a matrix with a reproducible uniform(-1,1) stream.
func randMat[T la.Scalar](seed, rows, cols int) *la.Matrix[T] {
	rng := lapack.NewRng([4]int{seed, rows, cols, 17})
	m := la.NewMatrix[T](rows, cols)
	lapack.Larnv(2, rng, rows*cols, m.Data)
	return m
}

// spdMat builds a Hermitian positive definite matrix.
func spdMat[T la.Scalar](seed, n int) *la.Matrix[T] {
	g := randMat[T](seed, n, n)
	a := la.NewMatrix[T](n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			var s complex128
			for k := 0; k < n; k++ {
				s += conjOf(g.At(k, i)) * toC(g.At(k, j))
			}
			if i == j {
				s += complex(float64(n), 0)
			}
			a.Set(i, j, fromC[T](s))
		}
	}
	return a
}

func toC[T la.Scalar](v T) complex128 { return core.ToComplex(v) }

func conjOf[T la.Scalar](v T) complex128 { return cmplx.Conj(toC(v)) }

func fromC[T la.Scalar](v complex128) T { return core.FromComplex[T](v) }

// mulVec computes y = A·x in complex arithmetic for checking.
func mulVec[T la.Scalar](a *la.Matrix[T], x []T) []complex128 {
	y := make([]complex128, a.Rows)
	for i := 0; i < a.Rows; i++ {
		var s complex128
		for j := 0; j < a.Cols; j++ {
			s += toC(a.At(i, j)) * toC(x[j])
		}
		y[i] = s
	}
	return y
}

func maxAbsDiff[T la.Scalar](got []T, want []float64) float64 {
	d := 0.0
	for i := range got {
		d = math.Max(d, cmplx.Abs(toC(got[i])-complex(want[i], 0)))
	}
	return d
}

func TestGESVAllTypes(t *testing.T) {
	n := 12
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = float64(i%5) - 2
	}
	t.Run("float64", func(t *testing.T) { gesvType[float64](t, n, xTrue, 1e-11) })
	// The forward error of this instance is condition-limited: exact
	// substitution on the float32 factors already lands at ~7e-5, so the
	// tolerance needs headroom above that for the rounding differences
	// between the portable and FMA float32 kernels.
	t.Run("float32", func(t *testing.T) { gesvType[float32](t, n, xTrue, 5e-4) })
	t.Run("complex64", func(t *testing.T) { gesvType[complex64](t, n, xTrue, 1e-4) })
	t.Run("complex128", func(t *testing.T) { gesvType[complex128](t, n, xTrue, 1e-11) })
}

func gesvType[T la.Scalar](t *testing.T, n int, xTrue []float64, tol float64) {
	t.Helper()
	a := randMat[T](1, n, n)
	xt := make([]T, n)
	for i := range xt {
		xt[i] = fromC[T](complex(xTrue[i], 0))
	}
	bC := mulVec(a, xt)
	b := make([]T, n)
	for i := range b {
		b[i] = fromC[T](bC[i])
	}
	if _, err := la.GESV1(a.Clone(), b); err != nil {
		t.Fatalf("GESV1: %v", err)
	}
	if d := maxAbsDiff(b, xTrue); d > tol {
		t.Fatalf("solution error %v", d)
	}
}

func TestDriversSolveCorrectly(t *testing.T) {
	// Each simple driver on a conforming random problem; the solution is
	// verified against a known x.
	n := 10
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = 1 + float64(i)/10
	}
	xt := make([]float64, n)
	for i := range xt {
		xt[i] = xTrue[i]
	}

	t.Run("POSV", func(t *testing.T) {
		a := spdMat[float64](2, n)
		b := make([]float64, n)
		for i, v := range mulVec(a, xt) {
			b[i] = real(v)
		}
		if err := la.POSV1(a.Clone(), b); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(b, xTrue); d > 1e-10 {
			t.Fatalf("error %v", d)
		}
	})

	t.Run("SYSV", func(t *testing.T) {
		g := randMat[float64](3, n, n)
		a := la.NewMatrix[float64](n, n)
		for j := 0; j < n; j++ {
			for i := 0; i <= j; i++ {
				v := g.At(i, j)
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		b := make([]float64, n)
		for i, v := range mulVec(a, xt) {
			b[i] = real(v)
		}
		if _, err := la.SYSV1(a.Clone(), b); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(b, xTrue); d > 1e-9 {
			t.Fatalf("error %v", d)
		}
	})

	t.Run("HESV", func(t *testing.T) {
		g := randMat[complex128](4, n, n)
		a := la.NewMatrix[complex128](n, n)
		for j := 0; j < n; j++ {
			for i := 0; i < j; i++ {
				v := g.At(i, j)
				a.Set(i, j, v)
				a.Set(j, i, cmplx.Conj(v))
			}
			a.Set(j, j, complex(real(g.At(j, j)), 0))
		}
		xc := make([]complex128, n)
		for i := range xc {
			xc[i] = complex(xTrue[i], 0)
		}
		b := make([]complex128, n)
		for i, v := range mulVec(a, xc) {
			b[i] = v
		}
		if _, err := la.HESV1(a.Clone(), b); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(b, xTrue); d > 1e-9 {
			t.Fatalf("error %v", d)
		}
	})

	t.Run("GTSV", func(t *testing.T) {
		rng := lapack.NewRng([4]int{5, 5, 5, 5})
		dl := make([]float64, n-1)
		d := make([]float64, n)
		du := make([]float64, n-1)
		lapack.Larnv(2, rng, n-1, dl)
		lapack.Larnv(2, rng, n-1, du)
		for i := range d {
			d[i] = 4
		}
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			b[i] = d[i] * xt[i]
			if i > 0 {
				b[i] += dl[i-1] * xt[i-1]
			}
			if i < n-1 {
				b[i] += du[i] * xt[i+1]
			}
		}
		if err := la.GTSV1(dl, d, du, b); err != nil {
			t.Fatal(err)
		}
		if dd := maxAbsDiff(b, xTrue); dd > 1e-11 {
			t.Fatalf("error %v", dd)
		}
	})

	t.Run("PTSV", func(t *testing.T) {
		rng := lapack.NewRng([4]int{6, 6, 6, 6})
		d := make([]float64, n)
		e := make([]float64, n-1)
		lapack.Larnv(2, rng, n-1, e)
		for i := range d {
			d[i] = 4
		}
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			b[i] = d[i] * xt[i]
			if i > 0 {
				b[i] += e[i-1] * xt[i-1]
			}
			if i < n-1 {
				b[i] += e[i] * xt[i+1]
			}
		}
		if err := la.PTSV1(d, e, b); err != nil {
			t.Fatal(err)
		}
		if dd := maxAbsDiff(b, xTrue); dd > 1e-11 {
			t.Fatalf("error %v", dd)
		}
	})

	t.Run("PPSV", func(t *testing.T) {
		a := spdMat[float64](7, n)
		ap := make([]float64, n*(n+1)/2)
		idx := 0
		for j := 0; j < n; j++ {
			for i := 0; i <= j; i++ {
				ap[idx] = a.At(i, j)
				idx++
			}
		}
		b := make([]float64, n)
		for i, v := range mulVec(a, xt) {
			b[i] = real(v)
		}
		if err := la.PPSV1(ap, b); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(b, xTrue); d > 1e-10 {
			t.Fatalf("error %v", d)
		}
	})

	t.Run("PBSV", func(t *testing.T) {
		kd := 2
		full := la.NewMatrix[float64](n, n)
		rng := lapack.NewRng([4]int{8, 8, 8, 8})
		for j := 0; j < n; j++ {
			full.Set(j, j, 5)
			for i := max(0, j-kd); i < j; i++ {
				v := rng.Uniform11() * 0.4
				full.Set(i, j, v)
				full.Set(j, i, v)
			}
		}
		ab := la.NewMatrix[float64](kd+1, n)
		for j := 0; j < n; j++ {
			for i := max(0, j-kd); i <= j; i++ {
				ab.Data[kd+i-j+j*ab.Stride] = full.At(i, j)
			}
		}
		b := make([]float64, n)
		for i, v := range mulVec(full, xt) {
			b[i] = real(v)
		}
		if err := la.PBSV1(ab, b); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(b, xTrue); d > 1e-10 {
			t.Fatalf("error %v", d)
		}
	})

	t.Run("GBSV", func(t *testing.T) {
		kl, ku := 2, 1
		full := la.NewMatrix[float64](n, n)
		rng := lapack.NewRng([4]int{9, 9, 9, 9})
		for j := 0; j < n; j++ {
			for i := max(0, j-ku); i <= min(n-1, j+kl); i++ {
				full.Set(i, j, rng.Uniform11())
			}
			full.Set(j, j, full.At(j, j)+4)
		}
		ldab := 2*kl + ku + 1
		ab := la.NewMatrix[float64](ldab, n)
		for j := 0; j < n; j++ {
			for i := max(0, j-ku); i <= min(n-1, j+kl); i++ {
				ab.Data[kl+ku+i-j+j*ab.Stride] = full.At(i, j)
			}
		}
		b := make([]float64, n)
		for i, v := range mulVec(full, xt) {
			b[i] = real(v)
		}
		if _, err := la.GBSV1(ab, b, la.WithKL(kl)); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(b, xTrue); d > 1e-10 {
			t.Fatalf("error %v", d)
		}
	})
}

func TestExpertDrivers(t *testing.T) {
	n := 12
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = float64(i) - 5.5
	}
	xt := make([]float64, n)
	copy(xt, xTrue)

	t.Run("GESVX", func(t *testing.T) {
		a := randMat[float64](11, n, n)
		b := la.NewMatrix[float64](n, 1)
		for i, v := range mulVec(a, xt) {
			b.Set(i, 0, real(v))
		}
		res, err := la.GESVX(a, b, la.WithEquilibration())
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(res.X.Col(0), xTrue); d > 1e-10 {
			t.Fatalf("error %v", d)
		}
		if res.RCond <= 0 || res.RCond > 1.000001 {
			t.Fatalf("rcond %v", res.RCond)
		}
		if res.Berr[0] > 1e-14 {
			t.Fatalf("berr %v", res.Berr[0])
		}
	})

	t.Run("POSVX", func(t *testing.T) {
		a := spdMat[float64](12, n)
		b := la.NewMatrix[float64](n, 1)
		for i, v := range mulVec(a, xt) {
			b.Set(i, 0, real(v))
		}
		res, err := la.POSVX(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(res.X.Col(0), xTrue); d > 1e-10 {
			t.Fatalf("error %v", d)
		}
	})

	t.Run("SYSVX", func(t *testing.T) {
		g := randMat[float64](13, n, n)
		a := la.NewMatrix[float64](n, n)
		for j := 0; j < n; j++ {
			for i := 0; i <= j; i++ {
				a.Set(i, j, g.At(i, j))
				a.Set(j, i, g.At(i, j))
			}
		}
		b := la.NewMatrix[float64](n, 1)
		for i, v := range mulVec(a, xt) {
			b.Set(i, 0, real(v))
		}
		res, err := la.SYSVX(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(res.X.Col(0), xTrue); d > 1e-9 {
			t.Fatalf("error %v", d)
		}
	})

	t.Run("GTSVX", func(t *testing.T) {
		rng := lapack.NewRng([4]int{14, 1, 4, 1})
		dl := make([]float64, n-1)
		d := make([]float64, n)
		du := make([]float64, n-1)
		lapack.Larnv(2, rng, n-1, dl)
		lapack.Larnv(2, rng, n-1, du)
		for i := range d {
			d[i] = 4
		}
		b := la.NewMatrix[float64](n, 1)
		for i := 0; i < n; i++ {
			v := d[i] * xt[i]
			if i > 0 {
				v += dl[i-1] * xt[i-1]
			}
			if i < n-1 {
				v += du[i] * xt[i+1]
			}
			b.Set(i, 0, v)
		}
		res, err := la.GTSVX(dl, d, du, b)
		if err != nil {
			t.Fatal(err)
		}
		if dd := maxAbsDiff(res.X.Col(0), xTrue); dd > 1e-10 {
			t.Fatalf("error %v", dd)
		}
	})

	t.Run("PTSVX", func(t *testing.T) {
		rng := lapack.NewRng([4]int{15, 1, 5, 1})
		d := make([]float64, n)
		e := make([]float64, n-1)
		lapack.Larnv(2, rng, n-1, e)
		for i := range d {
			d[i] = 4
		}
		b := la.NewMatrix[float64](n, 1)
		for i := 0; i < n; i++ {
			v := d[i] * xt[i]
			if i > 0 {
				v += e[i-1] * xt[i-1]
			}
			if i < n-1 {
				v += e[i] * xt[i+1]
			}
			b.Set(i, 0, v)
		}
		res, err := la.PTSVX(d, e, b)
		if err != nil {
			t.Fatal(err)
		}
		if dd := maxAbsDiff(res.X.Col(0), xTrue); dd > 1e-10 {
			t.Fatalf("error %v", dd)
		}
	})
}

func TestLeastSquaresDrivers(t *testing.T) {
	m, n := 15, 6
	t.Run("GELS", func(t *testing.T) {
		a := randMat[float64](21, m, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = float64(i + 1)
		}
		b := make([]float64, m)
		for i, v := range mulVec(a, xTrue) {
			b[i] = real(v)
		}
		if err := la.GELS1(a.Clone(), b); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(b[:n], xTrue); d > 1e-10 {
			t.Fatalf("error %v", d)
		}
	})
	t.Run("GELSS-and-GELSX-agree", func(t *testing.T) {
		a := randMat[float64](22, m, n)
		rng := lapack.NewRng([4]int{23, 1, 1, 1})
		b := make([]float64, m)
		lapack.Larnv(2, rng, m, b)
		b1 := la.NewMatrix[float64](m, 1)
		copy(b1.Data, b)
		rank, s, err := la.GELSS(a.Clone(), b1)
		if err != nil || rank != n {
			t.Fatalf("gelss rank=%d err=%v", rank, err)
		}
		if len(s) != n || s[0] < s[n-1] {
			t.Fatalf("singular values %v", s)
		}
		b2 := la.NewMatrix[float64](m, 1)
		copy(b2.Data, b)
		rank2, _, err := la.GELSX(a.Clone(), b2)
		if err != nil || rank2 != n {
			t.Fatalf("gelsx rank=%d err=%v", rank2, err)
		}
		for i := 0; i < n; i++ {
			if math.Abs(b1.At(i, 0)-b2.At(i, 0)) > 1e-9 {
				t.Fatalf("GELSS vs GELSX differ at %d: %v vs %v", i, b1.At(i, 0), b2.At(i, 0))
			}
		}
	})
	t.Run("GGLSE", func(t *testing.T) {
		p := 2
		a := randMat[float64](24, m, n)
		bb := randMat[float64](25, p, n)
		rng := lapack.NewRng([4]int{26, 1, 1, 1})
		c := make([]float64, m)
		d := make([]float64, p)
		lapack.Larnv(2, rng, m, c)
		lapack.Larnv(2, rng, p, d)
		x, err := la.GGLSE(a.Clone(), bb.Clone(), c, d)
		if err != nil {
			t.Fatal(err)
		}
		// Constraint must hold.
		bx := mulVec(bb, x)
		for i := 0; i < p; i++ {
			if math.Abs(real(bx[i])-d[i]) > 1e-10 {
				t.Fatalf("constraint %d: %v vs %v", i, real(bx[i]), d[i])
			}
		}
	})
	t.Run("GGGLM", func(t *testing.T) {
		nn, mm, pp := 12, 4, 9
		a := randMat[float64](27, nn, mm)
		bb := randMat[float64](28, nn, pp)
		rng := lapack.NewRng([4]int{29, 1, 1, 1})
		d := make([]float64, nn)
		lapack.Larnv(2, rng, nn, d)
		x, y, err := la.GGGLM(a.Clone(), bb.Clone(), d)
		if err != nil {
			t.Fatal(err)
		}
		ax := mulVec(a, x)
		by := mulVec(bb, y)
		for i := 0; i < nn; i++ {
			if math.Abs(real(ax[i])+real(by[i])-d[i]) > 1e-10 {
				t.Fatalf("GLM equation at %d", i)
			}
		}
	})
}

func TestEigenDrivers(t *testing.T) {
	n := 14
	t.Run("SYEV-vs-SYEVD-vs-SYEVX", func(t *testing.T) {
		a := spdMat[float64](31, n)
		w1, err := la.SYEV(a.Clone(), la.WithVectors())
		if err != nil {
			t.Fatal(err)
		}
		w2, err := la.SYEVD(a.Clone(), la.WithVectors())
		if err != nil {
			t.Fatal(err)
		}
		res, err := la.SYEVX(a.Clone(), la.WithVectors(), la.WithIndexRange(1, n))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if math.Abs(w1[i]-w2[i]) > 1e-10*(1+math.Abs(w1[i])) {
				t.Fatalf("SYEV vs SYEVD at %d: %v vs %v", i, w1[i], w2[i])
			}
			if math.Abs(w1[i]-res.W[i]) > 1e-8*(1+math.Abs(w1[i])) {
				t.Fatalf("SYEV vs SYEVX at %d: %v vs %v", i, w1[i], res.W[i])
			}
		}
		if res.M != n {
			t.Fatalf("SYEVX m=%d", res.M)
		}
	})
	t.Run("HEEV", func(t *testing.T) {
		a := spdMat[complex128](32, n)
		w, err := la.HEEV(a.Clone(), la.WithVectors())
		if err != nil {
			t.Fatal(err)
		}
		if w[0] <= 0 {
			t.Fatalf("SPD matrix with non-positive eigenvalue %v", w[0])
		}
	})
	t.Run("SPEV-SBEV-STEV", func(t *testing.T) {
		a := spdMat[float64](33, n)
		ap := make([]float64, n*(n+1)/2)
		idx := 0
		for j := 0; j < n; j++ {
			for i := 0; i <= j; i++ {
				ap[idx] = a.At(i, j)
				idx++
			}
		}
		wRef, err := la.SYEV(a.Clone())
		if err != nil {
			t.Fatal(err)
		}
		wp, _, err := la.SPEV[float64](ap)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wRef {
			if math.Abs(wp[i]-wRef[i]) > 1e-9*(1+math.Abs(wRef[i])) {
				t.Fatalf("SPEV at %d", i)
			}
		}
		// Tridiagonal STEV on a known matrix.
		d := make([]float64, n)
		e := make([]float64, n-1)
		for i := range d {
			d[i] = 2
		}
		for i := range e {
			e[i] = -1
		}
		if _, err := la.STEV[float64](d, e, la.WithVectors()); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < n; k++ {
			want := 2 - 2*math.Cos(float64(k+1)*math.Pi/float64(n+1))
			if math.Abs(d[k]-want) > 1e-10 {
				t.Fatalf("STEV λ[%d]", k)
			}
		}
	})
	t.Run("SYGV", func(t *testing.T) {
		a := spdMat[float64](34, n)
		b := spdMat[float64](35, n)
		w, err := la.SYGV(a.Clone(), b.Clone(), la.WithVectors())
		if err != nil {
			t.Fatal(err)
		}
		if w[0] <= 0 {
			t.Fatalf("SPD pencil has non-positive eigenvalue %v", w[0])
		}
	})
	t.Run("GEEV", func(t *testing.T) {
		a := randMat[float64](36, n, n)
		orig := a.Clone()
		w, _, vr, err := la.GEEV(a, la.WithRight())
		if err != nil {
			t.Fatal(err)
		}
		// Verify one real eigenpair if present.
		for j := 0; j < n; j++ {
			if imag(w[j]) != 0 {
				continue
			}
			av := mulVec(orig, vr.Col(j))
			for i := 0; i < n; i++ {
				if cmplx.Abs(av[i]-w[j]*toC(vr.At(i, j))) > 1e-9 {
					t.Fatalf("eigenpair %d residual", j)
				}
			}
			break
		}
	})
	t.Run("GEES", func(t *testing.T) {
		a := randMat[float64](37, n, n)
		w, vs, sdim, err := la.GEES(a, la.WithSchurVectors(), la.WithSelect(func(wr, wi float64) bool { return wr > 0 }))
		if err != nil {
			t.Fatal(err)
		}
		if vs == nil {
			t.Fatal("no Schur vectors")
		}
		for i := 0; i < sdim; i++ {
			if real(w[i]) <= 0 {
				t.Fatalf("selected eigenvalue %d not positive: %v", i, w[i])
			}
		}
	})
	t.Run("GESVD", func(t *testing.T) {
		a := randMat[complex128](38, 10, 6)
		res, err := la.GESVD(a.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.S) != 6 || res.U.Cols != 6 || res.VT.Rows != 6 {
			t.Fatalf("shapes: %d %d %d", len(res.S), res.U.Cols, res.VT.Rows)
		}
		for i := 1; i < len(res.S); i++ {
			if res.S[i] > res.S[i-1] {
				t.Fatal("singular values not descending")
			}
		}
	})
}

func TestComputationalRoutines(t *testing.T) {
	n := 9
	t.Run("GETRF-GETRS-GETRI", func(t *testing.T) {
		a := randMat[float64](41, n, n)
		orig := a.Clone()
		ipiv, rcond, err := la.GETRF(a)
		if err != nil {
			t.Fatal(err)
		}
		if rcond <= 0 || rcond > 1.000001 {
			t.Fatalf("rcond %v", rcond)
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = float64(i + 1)
		}
		b := la.NewMatrix[float64](n, 1)
		for i, v := range mulVec(orig, xTrue) {
			b.Set(i, 0, real(v))
		}
		if err := la.GETRS(a, ipiv, b); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(b.Col(0), xTrue); d > 1e-10 {
			t.Fatalf("GETRS error %v", d)
		}
		if err := la.GETRI(a, ipiv); err != nil {
			t.Fatal(err)
		}
		// A·A⁻¹ = I.
		for i := 0; i < n; i++ {
			row := make([]float64, n)
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += orig.At(i, k) * a.At(k, j)
				}
				row[j] = s
			}
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(row[j]-want) > 1e-10 {
					t.Fatalf("inverse (%d,%d)", i, j)
				}
			}
		}
	})
	t.Run("POTRF", func(t *testing.T) {
		a := spdMat[float64](42, n)
		rcond, err := la.POTRF(a)
		if err != nil {
			t.Fatal(err)
		}
		if rcond <= 0 || rcond > 1.000001 {
			t.Fatalf("rcond %v", rcond)
		}
	})
	t.Run("SYTRD-ORGTR", func(t *testing.T) {
		a := spdMat[float64](43, n)
		orig := a.Clone()
		d, e, tau, err := la.SYTRD(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := la.ORGTR(a, tau); err != nil {
			t.Fatal(err)
		}
		// Eigenvalues of T match those of A.
		wT := append([]float64(nil), d...)
		eT := append([]float64(nil), e...)
		if _, err := la.STEV[float64](wT, eT); err != nil {
			t.Fatal(err)
		}
		wA, err := la.SYEV(orig)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wA {
			if math.Abs(wT[i]-wA[i]) > 1e-9*(1+math.Abs(wA[i])) {
				t.Fatalf("tridiagonal spectrum mismatch at %d", i)
			}
		}
	})
	t.Run("LANGE", func(t *testing.T) {
		a := la.MatrixFrom([][]float64{{1, -2}, {3, -4}})
		one, _ := la.LANGE(a)
		inf, _ := la.LANGE(a, la.WithNorm('I'))
		fro, _ := la.LANGE(a, la.WithNorm('F'))
		maxabs, _ := la.LANGE(a, la.WithNorm('M'))
		if one != 6 || inf != 7 || maxabs != 4 {
			t.Fatalf("norms %v %v %v", one, inf, maxabs)
		}
		if math.Abs(fro-math.Sqrt(30)) > 1e-14 {
			t.Fatalf("fro %v", fro)
		}
	})
	t.Run("LAGGE", func(t *testing.T) {
		m := 8
		a := la.NewMatrix[float64](m, m)
		d := []float64{8, 7, 6, 5, 4, 3, 2, 1}
		if err := la.LAGGE(a, d, la.WithSeed([4]int{1, 2, 3, 4})); err != nil {
			t.Fatal(err)
		}
		res, err := la.GESVD(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := range d {
			if math.Abs(res.S[i]-d[i]) > 1e-12*(1+d[i]) {
				t.Fatalf("LAGGE singular value %d: %v want %v", i, res.S[i], d[i])
			}
		}
	})
	t.Run("GEEQU", func(t *testing.T) {
		a := la.MatrixFrom([][]float64{{1e4, 1}, {1, 1e-4}})
		r, c, rowcnd, colcnd, amax, err := la.GEEQU(a)
		if err != nil {
			t.Fatal(err)
		}
		if amax != 1e4 || len(r) != 2 || len(c) != 2 {
			t.Fatalf("geequ %v %v %v %v %v", r, c, rowcnd, colcnd, amax)
		}
	})
}

func TestMustPanicsLikeERINFO(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the ERINFO termination panic")
		}
	}()
	// A singular system without "INFO present" must terminate.
	a := la.NewMatrix[float64](2, 2) // zero matrix
	b := []float64{1, 1}
	la.Must1(la.GESV1(a, b))
}
