package blas

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/testutil/diff"
)

// ---------- helpers ----------

func randSlice[T core.Scalar](rng *rand.Rand, n int) []T {
	s := make([]T, n)
	for i := range s {
		if core.IsComplex[T]() {
			s[i] = core.FromComplex[T](complex(rng.Float64()*2-1, rng.Float64()*2-1))
		} else {
			s[i] = core.FromFloat[T](rng.Float64()*2 - 1)
		}
	}
	return s
}

func tol[T core.Scalar]() float64 { return 64 * core.Eps[T]() }

// naive dense matrix type for oracles: row i, col j at m[i][j].
type dense[T core.Scalar] struct {
	r, c int
	v    []T
}

func fromColMajor[T core.Scalar](m, n int, a []T, lda int) *dense[T] {
	d := &dense[T]{r: m, c: n, v: make([]T, m*n)}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			d.v[i*n+j] = a[i+j*lda]
		}
	}
	return d
}

func (d *dense[T]) at(i, j int) T { return d.v[i*d.c+j] }

func (d *dense[T]) op(t Trans) *dense[T] {
	if t == NoTrans {
		return d
	}
	o := &dense[T]{r: d.c, c: d.r, v: make([]T, d.r*d.c)}
	for i := 0; i < d.r; i++ {
		for j := 0; j < d.c; j++ {
			v := d.at(i, j)
			if t == ConjTrans {
				v = core.Conj(v)
			}
			o.v[j*o.c+i] = v
		}
	}
	return o
}

func (d *dense[T]) mul(e *dense[T]) *dense[T] {
	o := &dense[T]{r: d.r, c: e.c, v: make([]T, d.r*e.c)}
	for i := 0; i < d.r; i++ {
		for j := 0; j < e.c; j++ {
			var s T
			for l := 0; l < d.c; l++ {
				s += d.at(i, l) * e.at(l, j)
			}
			o.v[i*e.c+j] = s
		}
	}
	return o
}

// ---------- level 1 ----------

func testLevel1[T core.Scalar](t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	n := 37
	x := randSlice[T](rng, n*2)
	y := randSlice[T](rng, n*2)
	x0 := append([]T(nil), x...)
	y0 := append([]T(nil), y...)

	// Axpy with inc 2 == manual loop.
	alpha := core.FromFloat[T](0.75)
	Axpy(n, alpha, x, 2, y, 2)
	for i := 0; i < n; i++ {
		want := y0[2*i] + alpha*x0[2*i]
		if core.Abs(y[2*i]-want) > tol[T]() {
			t.Fatalf("axpy mismatch at %d", i)
		}
	}
	// Odd positions untouched.
	for i := 0; i < n; i++ {
		if y[2*i+1] != y0[2*i+1] {
			t.Fatalf("axpy touched stride gap at %d", i)
		}
	}

	// Dotc(x,x) is real non-negative and equals Nrm2^2.
	nr := Nrm2(n, x, 2)
	dc := Dotc(n, x, 2, x, 2)
	if math.Abs(core.Im(dc)) > tol[T]() {
		t.Fatalf("dotc(x,x) not real: %v", dc)
	}
	if math.Abs(core.Re(dc)-nr*nr) > 256*core.Eps[T]()*nr*nr {
		t.Fatalf("dotc vs nrm2^2: %v vs %v", core.Re(dc), nr*nr)
	}

	// Swap twice is identity.
	Swap(n, x, 2, y, 2)
	Swap(n, x, 2, y, 2)
	// Copy then compare.
	z := make([]T, n)
	Copy(n, x, 2, z, 1)
	for i := 0; i < n; i++ {
		if z[i] != x[2*i] {
			t.Fatalf("copy mismatch at %d", i)
		}
	}

	// Iamax finds a planted large element.
	z[n/2] = core.FromFloat[T](1e6)
	if got := Iamax(n, z, 1); got != n/2 {
		t.Fatalf("iamax = %d, want %d", got, n/2)
	}
	// Asum of zeros is zero; of planted vector is positive.
	if Asum(0, z, 1) != 0 {
		t.Fatal("asum(n=0) != 0")
	}
	if Asum(n, z, 1) <= 1e6-1 {
		t.Fatal("asum too small")
	}

	// Scal by 2 doubles the norm.
	before := Nrm2(n, z, 1)
	Scal(n, core.FromFloat[T](2), z, 1)
	after := Nrm2(n, z, 1)
	if math.Abs(after-2*before) > 1e-3*after {
		t.Fatalf("scal: nrm2 %v -> %v", before, after)
	}
}

func TestLevel1(t *testing.T) {
	t.Run("float32", func(t *testing.T) { testLevel1[float32](t) })
	t.Run("float64", func(t *testing.T) { testLevel1[float64](t) })
	t.Run("complex64", func(t *testing.T) { testLevel1[complex64](t) })
	t.Run("complex128", func(t *testing.T) { testLevel1[complex128](t) })
}

func TestNrm2Robust(t *testing.T) {
	// Values around 1e300: naive sum of squares overflows, scaled must not.
	x := []float64{3e300, 4e300}
	if got, want := Nrm2(2, x, 1), 5e300; math.Abs(got-want) > 1e285 {
		t.Fatalf("nrm2 overflow handling: got %v want %v", got, want)
	}
	y := []float64{3e-300, 4e-300}
	if got, want := Nrm2(2, y, 1), 5e-300; math.Abs(got-want) > 1e-315 {
		t.Fatalf("nrm2 underflow handling: got %v want %v", got, want)
	}
}

func TestRotg(t *testing.T) {
	for _, ab := range [][2]float64{{3, 4}, {-3, 4}, {0, 5}, {5, 0}, {0, 0}, {1e-8, 1}} {
		a, b := ab[0], ab[1]
		ra, rb := a, b
		c, s := Rotg(&ra, &rb)
		// [c s; -s c] [a b]ᵀ = [r 0]ᵀ
		if r0 := c*b - s*a; math.Abs(r0) > 1e-12*(math.Abs(a)+math.Abs(b)+1) {
			t.Fatalf("rotg(%v,%v): residual %v", a, b, r0)
		}
		if r := c*a + s*b; math.Abs(r-ra) > 1e-12*(math.Abs(ra)+1) {
			t.Fatalf("rotg(%v,%v): r mismatch %v vs %v", a, b, r, ra)
		}
	}
}

// ---------- level 2 ----------

func testGemv[T core.Scalar](t *testing.T, trans Trans) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	m, n, lda := 13, 9, 15
	a := randSlice[T](rng, lda*n)
	nx, ny := n, m
	if trans != NoTrans {
		nx, ny = m, n
	}
	x := randSlice[T](rng, nx)
	y := randSlice[T](rng, ny)
	alpha := core.FromComplex[T](complex(0.5, 0.25))
	beta := core.FromComplex[T](complex(-1.5, 0.5))

	want := make([]T, ny)
	ad := fromColMajor(m, n, a, lda).op(trans)
	for i := 0; i < ny; i++ {
		s := beta * y[i]
		for j := 0; j < nx; j++ {
			s += alpha * ad.at(i, j) * x[j]
		}
		want[i] = s
	}
	Gemv(tcfg(), trans, m, n, alpha, a, lda, x, 1, beta, y, 1)
	if d := diff.MaxDiff(y, want); d > tol[T]() {
		t.Fatalf("gemv %v: max diff %v", trans, d)
	}
}

func TestGemv(t *testing.T) {
	for _, tr := range []Trans{NoTrans, TransT, ConjTrans} {
		t.Run("float64/"+tr.String(), func(t *testing.T) { testGemv[float64](t, tr) })
		t.Run("complex128/"+tr.String(), func(t *testing.T) { testGemv[complex128](t, tr) })
		t.Run("float32/"+tr.String(), func(t *testing.T) { testGemv[float32](t, tr) })
		t.Run("complex64/"+tr.String(), func(t *testing.T) { testGemv[complex64](t, tr) })
	}
}

func testTr[T core.Scalar](t *testing.T, uplo Uplo, trans Trans, diag Diag) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	n, lda := 11, 13
	a := randSlice[T](rng, lda*n)
	// Strengthen the diagonal so the solve is well conditioned.
	for i := 0; i < n; i++ {
		a[i+i*lda] += core.FromFloat[T](4)
	}
	x := randSlice[T](rng, n)
	x0 := append([]T(nil), x...)

	// Trmv then Trsv must round-trip.
	Trmv(uplo, trans, diag, n, a, lda, x, 1)
	Trsv(uplo, trans, diag, n, a, lda, x, 1)
	if d := diff.MaxDiff(x, x0); d > 32*tol[T]() {
		t.Fatalf("trmv/trsv roundtrip %v %v %v: %v", uplo, trans, diag, d)
	}
}

func TestTrmvTrsv(t *testing.T) {
	for _, uplo := range []Uplo{Upper, Lower} {
		for _, tr := range []Trans{NoTrans, TransT, ConjTrans} {
			for _, dg := range []Diag{NonUnit, Unit} {
				t.Run("float64", func(t *testing.T) { testTr[float64](t, uplo, tr, dg) })
				t.Run("complex128", func(t *testing.T) { testTr[complex128](t, uplo, tr, dg) })
			}
		}
	}
}

func testSymHemv[T core.Scalar](t *testing.T, conj bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	n, lda := 12, 14
	full := randSlice[T](rng, lda*n)
	// Symmetrize/hermitize the full matrix.
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			if conj {
				full[j+i*lda] = core.Conj(full[i+j*lda])
			} else {
				full[j+i*lda] = full[i+j*lda]
			}
		}
		if conj {
			full[j+j*lda] = core.FromFloat[T](core.Re(full[j+j*lda]))
		}
	}
	x := randSlice[T](rng, n)
	alpha := core.FromComplex[T](complex(1.25, 0.5))
	beta := core.FromComplex[T](complex(0.5, -0.25))
	for _, uplo := range []Uplo{Upper, Lower} {
		y := randSlice[T](rng, n)
		want := make([]T, n)
		for i := 0; i < n; i++ {
			s := beta * y[i]
			for j := 0; j < n; j++ {
				s += alpha * full[i+j*lda] * x[j]
			}
			want[i] = s
		}
		if conj {
			Hemv(uplo, n, alpha, full, lda, x, 1, beta, y, 1)
		} else {
			Symv(uplo, n, alpha, full, lda, x, 1, beta, y, 1)
		}
		if d := diff.MaxDiff(y, want); d > 8*tol[T]() {
			t.Fatalf("sym/hemv uplo=%v: %v", uplo, d)
		}
	}
}

func TestSymvHemv(t *testing.T) {
	t.Run("symv/float64", func(t *testing.T) { testSymHemv[float64](t, false) })
	t.Run("symv/complex128", func(t *testing.T) { testSymHemv[complex128](t, false) })
	t.Run("hemv/complex128", func(t *testing.T) { testSymHemv[complex128](t, true) })
}

func TestGerSyrHer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, lda := 9, 11
	x := randSlice[complex128](rng, n)
	y := randSlice[complex128](rng, n)
	alpha := complex(0.5, -1.25)

	a := make([]complex128, lda*n)
	Gerc(n, n, alpha, x, 1, y, 1, a, lda)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			want := alpha * x[i] * core.Conj(y[j])
			if core.Abs(a[i+j*lda]-want) > 1e-13 {
				t.Fatalf("gerc (%d,%d)", i, j)
			}
		}
	}

	// Her: result must be Hermitian with real diagonal.
	h := make([]complex128, lda*n)
	Her(Upper, n, 0.75, x, 1, h, lda)
	Her(Lower, n, 0.75, x, 1, h, lda) // fill other triangle separately
	for j := 0; j < n; j++ {
		if math.Abs(imag(h[j+j*lda])) > 1e-14 {
			t.Fatalf("her diagonal not real at %d (got %v)", j, h[j+j*lda])
		}
		for i := 0; i < j; i++ {
			if core.Abs(h[i+j*lda]-core.Conj(h[j+i*lda])) > 1e-13 {
				t.Fatalf("her not hermitian at (%d,%d)", i, j)
			}
		}
	}

	// Syr on float64 against oracle.
	xf := randSlice[float64](rng, n)
	s := make([]float64, lda*n)
	Syr(Upper, n, 2.0, xf, 1, s, lda)
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			want := 2.0 * xf[i] * xf[j]
			if math.Abs(s[i+j*lda]-want) > 1e-14 {
				t.Fatalf("syr (%d,%d)", i, j)
			}
		}
	}

	// Syr2 against oracle.
	yf := randSlice[float64](rng, n)
	s2 := make([]float64, lda*n)
	Syr2(Lower, n, -1.5, xf, 1, yf, 1, s2, lda)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			want := -1.5 * (xf[i]*yf[j] + yf[i]*xf[j])
			if math.Abs(s2[i+j*lda]-want) > 1e-14 {
				t.Fatalf("syr2 (%d,%d)", i, j)
			}
		}
	}

	// Her2 result Hermitian.
	h2 := make([]complex128, lda*n)
	Her2(Upper, n, alpha, x, 1, y, 1, h2, lda)
	for j := 0; j < n; j++ {
		want := alpha*x[j]*core.Conj(y[j]) + core.Conj(alpha)*y[j]*core.Conj(x[j])
		if math.Abs(imag(h2[j+j*lda]))+math.Abs(real(h2[j+j*lda])-real(want)) > 1e-13 {
			t.Fatalf("her2 diagonal at %d", j)
		}
	}
}

// ---------- level 3 ----------

func testGemm[T core.Scalar](t *testing.T, transA, transB Trans) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(13 + int(transA)*3 + int(transB))))
	m, n, k := 11, 7, 9
	lda, ldb, ldc := 14, 13, 12
	rowsA, colsA := m, k
	if transA != NoTrans {
		rowsA, colsA = k, m
	}
	rowsB, colsB := k, n
	if transB != NoTrans {
		rowsB, colsB = n, k
	}
	a := randSlice[T](rng, lda*colsA)
	b := randSlice[T](rng, ldb*colsB)
	c := randSlice[T](rng, ldc*n)
	alpha := core.FromComplex[T](complex(0.75, -0.5))
	beta := core.FromComplex[T](complex(-0.25, 1))

	ad := fromColMajor(rowsA, colsA, a, lda).op(transA)
	bd := fromColMajor(rowsB, colsB, b, ldb).op(transB)
	prod := ad.mul(bd)
	want := make([]T, len(c))
	copy(want, c)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			want[i+j*ldc] = alpha*prod.at(i, j) + beta*c[i+j*ldc]
		}
	}
	Gemm(tcfg(), transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	maxd := 0.0
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			maxd = math.Max(maxd, core.Abs(c[i+j*ldc]-want[i+j*ldc]))
		}
	}
	if maxd > 16*tol[T]() {
		t.Fatalf("gemm %v%v: max diff %v", transA, transB, maxd)
	}
}

func TestGemm(t *testing.T) {
	for _, ta := range []Trans{NoTrans, TransT, ConjTrans} {
		for _, tb := range []Trans{NoTrans, TransT, ConjTrans} {
			name := ta.String() + tb.String()
			t.Run("float64/"+name, func(t *testing.T) { testGemm[float64](t, ta, tb) })
			t.Run("complex128/"+name, func(t *testing.T) { testGemm[complex128](t, ta, tb) })
		}
	}
}

func testTrsmTrmm[T core.Scalar](t *testing.T, side Side, uplo Uplo, trans Trans, diag Diag) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	m, n := 9, 6
	na := m
	if side == Right {
		na = n
	}
	lda, ldb := na+2, m+1
	a := randSlice[T](rng, lda*na)
	for i := 0; i < na; i++ {
		a[i+i*lda] += core.FromFloat[T](4)
	}
	b := randSlice[T](rng, ldb*n)
	b0 := append([]T(nil), b...)
	alpha := core.FromFloat[T](1.5)

	// Trmm then Trsm with reciprocal alpha must return the original B.
	Trmm(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
	inv := core.Div(core.FromFloat[T](1), alpha)
	Trsm(tcfg(), side, uplo, trans, diag, m, n, inv, a, lda, b, ldb)
	maxd := 0.0
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			maxd = math.Max(maxd, core.Abs(b[i+j*ldb]-b0[i+j*ldb]))
		}
	}
	if maxd > 64*tol[T]() {
		t.Fatalf("trmm/trsm roundtrip %v %v %v %v: %v", side, uplo, trans, diag, maxd)
	}
}

func TestTrmmTrsm(t *testing.T) {
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Upper, Lower} {
			for _, tr := range []Trans{NoTrans, TransT, ConjTrans} {
				for _, dg := range []Diag{NonUnit, Unit} {
					t.Run("float64", func(t *testing.T) { testTrsmTrmm[float64](t, side, uplo, tr, dg) })
					t.Run("complex128", func(t *testing.T) { testTrsmTrmm[complex128](t, side, uplo, tr, dg) })
				}
			}
		}
	}
}

func TestSyrkHerk(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n, k := 8, 5
	lda := n + 1
	a := randSlice[float64](rng, lda*k)
	c := make([]float64, n*n)
	Syrk(tcfg(), Upper, NoTrans, n, k, 1.0, a, lda, 0.0, c, n)
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			want := 0.0
			for l := 0; l < k; l++ {
				want += a[i+l*lda] * a[j+l*lda]
			}
			if math.Abs(c[i+j*n]-want) > 1e-13 {
				t.Fatalf("syrk (%d,%d)", i, j)
			}
		}
	}

	az := randSlice[complex128](rng, lda*k)
	cz := make([]complex128, n*n)
	Herk(tcfg(), Lower, NoTrans, n, k, 1.0, az, lda, 0.0, cz, n)
	for j := 0; j < n; j++ {
		if math.Abs(imag(cz[j+j*n])) > 1e-13 {
			t.Fatalf("herk diag not real at %d", j)
		}
		if real(cz[j+j*n]) < 0 {
			t.Fatalf("herk diag negative at %d", j)
		}
	}

	// Syrk trans form: C = Aᵀ A has (i,j) = dot(col i, col j).
	at := randSlice[float64](rng, k*n) // k×n with lda=k
	ct := make([]float64, n*n)
	Syrk(tcfg(), Upper, TransT, n, k, 2.0, at, k, 0.0, ct, n)
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			want := 0.0
			for l := 0; l < k; l++ {
				want += at[l+i*k] * at[l+j*k]
			}
			if math.Abs(ct[i+j*n]-2*want) > 1e-13 {
				t.Fatalf("syrk-T (%d,%d)", i, j)
			}
		}
	}
}

func TestSymmHemm(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m, n := 7, 5
	lda := m + 1
	a := randSlice[float64](rng, lda*m)
	for j := 0; j < m; j++ {
		for i := 0; i < j; i++ {
			a[j+i*lda] = a[i+j*lda]
		}
	}
	b := randSlice[float64](rng, m*n)
	c := make([]float64, m*n)
	Symm(tcfg(), Left, Upper, m, n, 1.0, a, lda, b, m, 0.0, c, m)
	// Oracle via gemm on the full symmetric matrix.
	want := make([]float64, m*n)
	Gemm(tcfg(), NoTrans, NoTrans, m, n, m, 1.0, a, lda, b, m, 0.0, want, m)
	if d := diff.MaxDiff(c, want); d > 1e-13 {
		t.Fatalf("symm left: %v", d)
	}

	// Right side.
	as := randSlice[float64](rng, (n+1)*n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			as[j+i*(n+1)] = as[i+j*(n+1)]
		}
	}
	c2 := make([]float64, m*n)
	Symm(tcfg(), Right, Lower, m, n, 1.0, as, n+1, b, m, 0.0, c2, m)
	want2 := make([]float64, m*n)
	Gemm(tcfg(), NoTrans, NoTrans, m, n, n, 1.0, b, m, as, n+1, 0.0, want2, m)
	if d := diff.MaxDiff(c2, want2); d > 1e-13 {
		t.Fatalf("symm right: %v", d)
	}
}

// ---------- band & packed ----------

func TestBandPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m, n, kl, ku := 9, 7, 2, 3
	ldab := kl + ku + 1
	// Build dense then pack into band.
	full := make([]float64, m*n)
	ab := make([]float64, ldab*n)
	for j := 0; j < n; j++ {
		for i := max(0, j-ku); i <= min(m-1, j+kl); i++ {
			v := rng.Float64()*2 - 1
			full[i+j*m] = v
			ab[ku+i-j+j*ldab] = v
		}
	}
	x := randSlice[float64](rng, n)
	y := make([]float64, m)
	Gbmv(NoTrans, m, n, kl, ku, 1.0, ab, ldab, x, 1, 0.0, y, 1)
	want := make([]float64, m)
	Gemv(tcfg(), NoTrans, m, n, 1.0, full, m, x, 1, 0.0, want, 1)
	if d := diff.MaxDiff(y, want); d > 1e-13 {
		t.Fatalf("gbmv: %v", d)
	}
	// Transposed.
	xt := randSlice[float64](rng, m)
	yt := make([]float64, n)
	Gbmv(TransT, m, n, kl, ku, 1.0, ab, ldab, xt, 1, 0.0, yt, 1)
	wantT := make([]float64, n)
	Gemv(tcfg(), TransT, m, n, 1.0, full, m, xt, 1, 0.0, wantT, 1)
	if d := diff.MaxDiff(yt, wantT); d > 1e-13 {
		t.Fatalf("gbmv-T: %v", d)
	}

	// Symmetric band vs dense symv.
	nn, k := 8, 2
	ldsb := k + 1
	fullS := make([]float64, nn*nn)
	sb := make([]float64, ldsb*nn)
	for j := 0; j < nn; j++ {
		for i := max(0, j-k); i <= j; i++ {
			v := rng.Float64()*2 - 1
			fullS[i+j*nn] = v
			fullS[j+i*nn] = v
			sb[k+i-j+j*ldsb] = v
		}
	}
	xs := randSlice[float64](rng, nn)
	ys := make([]float64, nn)
	Sbmv(Upper, nn, k, 1.0, sb, ldsb, xs, 1, 0.0, ys, 1)
	wantS := make([]float64, nn)
	Symv(Upper, nn, 1.0, fullS, nn, xs, 1, 0.0, wantS, 1)
	if d := diff.MaxDiff(ys, wantS); d > 1e-13 {
		t.Fatalf("sbmv: %v", d)
	}
	// Lower band storage of the same matrix.
	sbl := make([]float64, ldsb*nn)
	for j := 0; j < nn; j++ {
		for i := j; i <= min(nn-1, j+k); i++ {
			sbl[i-j+j*ldsb] = fullS[i+j*nn]
		}
	}
	ysl := make([]float64, nn)
	Sbmv(Lower, nn, k, 1.0, sbl, ldsb, xs, 1, 0.0, ysl, 1)
	if d := diff.MaxDiff(ysl, wantS); d > 1e-13 {
		t.Fatalf("sbmv lower: %v", d)
	}

	// Packed symv vs dense.
	ap := make([]float64, nn*(nn+1)/2)
	for j := 0; j < nn; j++ {
		for i := 0; i <= j; i++ {
			ap[PackIdx(Upper, nn, i, j)] = fullS[i+j*nn]
		}
	}
	yp := make([]float64, nn)
	Spmv(Upper, nn, 1.0, ap, xs, 1, 0.0, yp, 1)
	if d := diff.MaxDiff(yp, wantS); d > 1e-13 {
		t.Fatalf("spmv: %v", d)
	}
	apl := make([]float64, nn*(nn+1)/2)
	for j := 0; j < nn; j++ {
		for i := j; i < nn; i++ {
			apl[PackIdx(Lower, nn, i, j)] = fullS[i+j*nn]
		}
	}
	ypl := make([]float64, nn)
	Spmv(Lower, nn, 1.0, apl, xs, 1, 0.0, ypl, 1)
	if d := diff.MaxDiff(ypl, wantS); d > 1e-13 {
		t.Fatalf("spmv lower: %v", d)
	}

	// (The triangular band and packed routines and the packed rank updates
	// are held to their dense definitions by TestLevel12Golden.)
	xz := randSlice[complex128](rng, nn)
	hp := randSlice[complex128](rng, nn*(nn+1)/2)
	for j := 0; j < nn; j++ {
		hp[PackIdx(Upper, nn, j, j)] = complex(real(hp[PackIdx(Upper, nn, j, j)]), 0)
	}
	// Hpmv vs dense Hemv on the unpacked matrix.
	fullH := make([]complex128, nn*nn)
	for j := 0; j < nn; j++ {
		for i := 0; i <= j; i++ {
			v := hp[PackIdx(Upper, nn, i, j)]
			fullH[i+j*nn] = v
			fullH[j+i*nn] = core.Conj(v)
		}
	}
	yh := make([]complex128, nn)
	Hpmv(Upper, nn, 1, hp, xz, 1, 0, yh, 1)
	wantH := make([]complex128, nn)
	Hemv(Upper, nn, 1, fullH, nn, xz, 1, 0, wantH, 1)
	if d := diff.MaxDiff(yh, wantH); d > 1e-12 {
		t.Fatalf("hpmv: %v", d)
	}
}

func TestSyr2kHer2k(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	n, k := 6, 4
	a := randSlice[float64](rng, n*k)
	b := randSlice[float64](rng, n*k)
	c := make([]float64, n*n)
	Syr2k(tcfg(), Upper, NoTrans, n, k, 1.0, a, n, b, n, 0.0, c, n)
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			want := 0.0
			for l := 0; l < k; l++ {
				want += a[i+l*n]*b[j+l*n] + b[i+l*n]*a[j+l*n]
			}
			if math.Abs(c[i+j*n]-want) > 1e-13 {
				t.Fatalf("syr2k (%d,%d)", i, j)
			}
		}
	}
	az := randSlice[complex128](rng, n*k)
	bz := randSlice[complex128](rng, n*k)
	cz := make([]complex128, n*n)
	Her2k(tcfg(), Upper, NoTrans, n, k, complex(0.5, 0.25), az, n, bz, n, 0.0, cz, n)
	for j := 0; j < n; j++ {
		if math.Abs(imag(cz[j+j*n])) > 1e-13 {
			t.Fatalf("her2k diag not real at %d", j)
		}
	}
}
