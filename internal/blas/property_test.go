package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// Property-based tests (testing/quick) of the algebraic invariants the
// BLAS kernels must satisfy for arbitrary well-formed inputs.

// smallVec draws a bounded random vector so invariant tolerances stay
// meaningful.
func smallVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func qcfg() *quick.Config {
	return &quick.Config{MaxCount: 200}
}

// Axpy must be linear: axpy(a, x, axpy(b, x, y)) == axpy(a+b, x, y).
func TestQuickAxpyLinearity(t *testing.T) {
	f := func(seed int64, a, b float64, nRaw uint8) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		a = math.Mod(a, 8)
		b = math.Mod(b, 8)
		n := int(nRaw%32) + 1
		r := rand.New(rand.NewSource(seed))
		x := smallVec(r, n)
		y := smallVec(r, n)
		y1 := append([]float64(nil), y...)
		Axpy(n, b, x, 1, y1, 1)
		Axpy(n, a, x, 1, y1, 1)
		y2 := append([]float64(nil), y...)
		Axpy(n, a+b, x, 1, y2, 1)
		for i := range y1 {
			if math.Abs(y1[i]-y2[i]) > 1e-12*(1+math.Abs(y2[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qcfg()); err != nil {
		t.Fatal(err)
	}
}

// The dot product must be symmetric and bilinear against scaling.
func TestQuickDotSymmetryAndScaling(t *testing.T) {
	f := func(seed int64, alpha float64, nRaw uint8) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			return true
		}
		alpha = math.Mod(alpha, 16)
		n := int(nRaw%48) + 1
		r := rand.New(rand.NewSource(seed))
		x := smallVec(r, n)
		y := smallVec(r, n)
		d1 := Dot(n, x, 1, y, 1)
		d2 := Dot(n, y, 1, x, 1)
		if math.Abs(d1-d2) > 1e-12*(1+math.Abs(d1)) {
			return false
		}
		xs := append([]float64(nil), x...)
		Scal(n, alpha, xs, 1)
		d3 := Dot(n, xs, 1, y, 1)
		return math.Abs(d3-alpha*d1) <= 1e-10*(1+math.Abs(alpha*d1))
	}
	if err := quick.Check(f, qcfg()); err != nil {
		t.Fatal(err)
	}
}

// Nrm2 must satisfy the norm axioms: triangle inequality, absolute
// homogeneity, and consistency with the dot product.
func TestQuickNrm2Axioms(t *testing.T) {
	f := func(seed int64, alpha float64, nRaw uint8) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			return true
		}
		alpha = math.Mod(alpha, 32)
		n := int(nRaw%48) + 1
		r := rand.New(rand.NewSource(seed))
		x := smallVec(r, n)
		y := smallVec(r, n)
		nx := Nrm2(n, x, 1)
		ny := Nrm2(n, y, 1)
		s := make([]float64, n)
		for i := range s {
			s[i] = x[i] + y[i]
		}
		if Nrm2(n, s, 1) > nx+ny+1e-12 {
			return false
		}
		xs := append([]float64(nil), x...)
		Scal(n, alpha, xs, 1)
		if math.Abs(Nrm2(n, xs, 1)-math.Abs(alpha)*nx) > 1e-10*(1+math.Abs(alpha)*nx) {
			return false
		}
		return math.Abs(nx*nx-Dot(n, x, 1, x, 1)) <= 1e-10*(1+nx*nx)
	}
	if err := quick.Check(f, qcfg()); err != nil {
		t.Fatal(err)
	}
}

// Gemv must agree with gemm on a single column, and gemm must be
// associative-compatible with transposition: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestQuickGemmTransposeIdentity(t *testing.T) {
	f := func(seed int64, mRaw, nRaw, kRaw uint8) bool {
		m := int(mRaw%12) + 1
		n := int(nRaw%12) + 1
		k := int(kRaw%12) + 1
		r := rand.New(rand.NewSource(seed))
		a := smallVec(r, m*k)
		b := smallVec(r, k*n)
		c1 := make([]float64, m*n)
		Gemm(tcfg(), NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 0, c1, m)
		// (A·B)ᵀ via transposed operands: C2 = Bᵀ·Aᵀ (n×m).
		c2 := make([]float64, n*m)
		Gemm(tcfg(), TransT, TransT, n, m, k, 1, b, k, a, m, 0, c2, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(c1[i+j*m]-c2[j+i*n]) > 1e-11 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, qcfg()); err != nil {
		t.Fatal(err)
	}
}

// Complex kernels: conjugation identities dotc(x,y) == conj(dotc(y,x)) and
// ‖x‖² == re(dotc(x,x)).
func TestQuickComplexDotcIdentities(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		r := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		y := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
			y[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		d1 := Dotc(n, x, 1, y, 1)
		d2 := Dotc(n, y, 1, x, 1)
		if core.Abs(d1-complex(real(d2), -imag(d2))) > 1e-11*(1+core.Abs(d1)) {
			return false
		}
		nx := Nrm2(n, x, 1)
		dd := Dotc(n, x, 1, x, 1)
		return math.Abs(imag(dd)) <= 1e-12*(1+nx*nx) &&
			math.Abs(real(dd)-nx*nx) <= 1e-10*(1+nx*nx)
	}
	if err := quick.Check(f, qcfg()); err != nil {
		t.Fatal(err)
	}
}

// Trsv must invert Trmv for any triangle configuration.
func TestQuickTrmvTrsvInverse(t *testing.T) {
	f := func(seed int64, nRaw, cfg uint8) bool {
		n := int(nRaw%16) + 1
		uplo := Upper
		if cfg&1 != 0 {
			uplo = Lower
		}
		trans := NoTrans
		if cfg&2 != 0 {
			trans = TransT
		}
		diag := NonUnit
		if cfg&4 != 0 {
			diag = Unit
		}
		r := rand.New(rand.NewSource(seed))
		a := smallVec(r, n*n)
		for i := 0; i < n; i++ {
			a[i+i*n] += 5 // well conditioned
		}
		x := smallVec(r, n)
		x0 := append([]float64(nil), x...)
		Trmv(uplo, trans, diag, n, a, n, x, 1)
		Trsv(uplo, trans, diag, n, a, n, x, 1)
		for i := range x {
			if math.Abs(x[i]-x0[i]) > 1e-9*(1+math.Abs(x0[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qcfg()); err != nil {
		t.Fatal(err)
	}
}

// The packed, blocked, optionally parallel Gemm engine must agree with the
// retained naive reference kernel on arbitrary well-formed inputs: random
// shapes, padded leading dimensions (lda > rows), every trans/conj
// combination, and both the serial and the multi-goroutine configuration.
// The engine is invoked directly (below its size cutoff Gemm would dispatch
// to the naive kernel and the comparison would be vacuous).
func TestQuickGemmPackedMatchesNaive(t *testing.T) {
	trs := []Trans{NoTrans, TransT, ConjTrans}
	f := func(seed int64, mRaw, nRaw, kRaw, cfg uint8) bool {
		m := int(mRaw%90) + 1
		n := int(nRaw%90) + 1
		k := int(kRaw%90) + 1
		ta := trs[int(cfg)%3]
		tb := trs[int(cfg/3)%3]
		r := rand.New(rand.NewSource(seed))
		rowsA, colsA := m, k
		if ta != NoTrans {
			rowsA, colsA = k, m
		}
		rowsB, colsB := k, n
		if tb != NoTrans {
			rowsB, colsB = n, k
		}
		lda := rowsA + int(cfg%5) // exercise lda > rows padding
		ldb := rowsB + int(cfg%3)
		ldc := m + int(cfg%4)
		a := smallVec(r, lda*colsA)
		b := smallVec(r, ldb*colsB)
		c0 := smallVec(r, ldc*n)
		alpha := 1 + math.Mod(float64(seed%7), 3)

		want := append([]float64(nil), c0...)
		GemmNaive(ta, tb, m, n, k, alpha, a, lda, b, ldb, 1, want, ldc)

		tolerance := 1e-11 * float64(k+1)
		for _, threads := range []int{1, 4} {
			old := SetThreads(threads)
			got := append([]float64(nil), c0...)
			gemmEngine(tcfg(), ta, tb, m, n, k, alpha, a, lda, b, ldb, got, ldc)
			SetThreads(old)
			for i := range got {
				if math.Abs(got[i]-want[i]) > tolerance*(1+math.Abs(want[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, qcfg()); err != nil {
		t.Fatal(err)
	}
}

// Same cross-check for the complex instantiations, which run the 1m rows of
// the kernel table on AVX2 hardware and the portable 4×4 kernel elsewhere
// (kernel_test.go sweeps both deterministically); leading dimensions down to
// the bare row count are part of the draw.
func TestQuickGemmPackedMatchesNaiveComplex(t *testing.T) {
	t.Run("complex128", quickGemmPackedComplex[complex128])
	t.Run("complex64", quickGemmPackedComplex[complex64])
}

func quickGemmPackedComplex[T core.Scalar](t *testing.T) {
	trs := []Trans{NoTrans, TransT, ConjTrans}
	f := func(seed int64, mRaw, nRaw, kRaw, cfg uint8) bool {
		m := int(mRaw%48) + 1
		n := int(nRaw%48) + 1
		k := int(kRaw%48) + 1
		ta := trs[int(cfg)%3]
		tb := trs[int(cfg/3)%3]
		r := rand.New(rand.NewSource(seed))
		rowsA, colsA := m, k
		if ta != NoTrans {
			rowsA, colsA = k, m
		}
		rowsB, colsB := k, n
		if tb != NoTrans {
			rowsB, colsB = n, k
		}
		lda := rowsA + int(cfg%5)
		ldb := rowsB + int(cfg%3)
		ldc := m + int(cfg%4)
		cvec := func(n int) []T {
			v := make([]T, n)
			for i := range v {
				v[i] = core.FromComplex[T](complex(r.NormFloat64(), r.NormFloat64()))
			}
			return v
		}
		a := cvec(lda * colsA)
		b := cvec(ldb * colsB)
		c0 := cvec(ldc * n)
		alpha := core.FromComplex[T](complex(1.5, -0.5))

		want := append([]T(nil), c0...)
		GemmNaive(ta, tb, m, n, k, alpha, a, lda, b, ldb, 1, want, ldc)
		got := append([]T(nil), c0...)
		gemmEngine(tcfg(), ta, tb, m, n, k, alpha, a, lda, b, ldb, got, ldc)
		tolerance := 64 * core.Eps[T]() * float64(k+1)
		for i := range got {
			if core.Abs(got[i]-want[i]) > tolerance*(1+core.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qcfg()); err != nil {
		t.Fatal(err)
	}
}
