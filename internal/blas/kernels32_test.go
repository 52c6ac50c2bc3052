package blas

// Correctness tests for the float32 fast paths: the packed f32 GEMM engine
// with its spackA16/spackB4 assembly packers, the f32 triangular-solve stack
// (trsmRec leaf, trsvOct, axpy-form Trsv), and the f32 Level-1 assembly
// kernels (saxpyFma, sscalFma, sdotFma, siamaxF32). Each is checked against
// either the naive reference kernel or a float64 oracle on the same data.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickGemmPackedMatchesNaiveF32 is the float32 twin of
// TestQuickGemmPackedMatchesNaive: the packed engine (assembly micro-kernel,
// spackA16/spackB4 packers, skinny-n dispatches) must agree with the naive
// reference on arbitrary shapes, paddings, and trans combinations.
func TestQuickGemmPackedMatchesNaiveF32(t *testing.T) {
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
		lda := rowsA + int(cfg%5)
		ldb := rowsB + int(cfg%3)
		ldc := m + int(cfg%4)
		a := randSlice[float32](r, lda*colsA)
		b := randSlice[float32](r, ldb*colsB)
		c0 := randSlice[float32](r, ldc*n)
		alpha := float32(1 + seed%3)

		want := append([]float32(nil), c0...)
		GemmNaive(ta, tb, m, n, k, alpha, a, lda, b, ldb, 1, want, ldc)

		tolerance := 1e-4 * float64(k+1)
		for _, threads := range []int{1, 4} {
			old := SetThreads(threads)
			got := append([]float32(nil), c0...)
			gemmEngine(tcfg(), ta, tb, m, n, k, alpha, a, lda, b, ldb, got, ldc)
			SetThreads(old)
			for i := range got {
				d := float64(got[i] - want[i])
				if math.Abs(d) > tolerance*(1+math.Abs(float64(want[i]))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTrsmF32LargeAgainstF64 drives the f32 triangular solve at sizes
// spanning the f32 recursion leaf (trsmLeafSizeF32 = 96) and compares it to
// the float64 solve of the same well-conditioned system. Covers trsmRec's
// type-aware leaf, trsvOctF32, and the Gemm updates between leaves.
func TestTrsmF32LargeAgainstF64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{30, 96, 97, 160, 200} {
		for _, uplo := range []Uplo{Upper, Lower} {
			for _, trans := range []Trans{NoTrans, TransT} {
				nrhs := 3
				a64 := make([]float64, n*n)
				for j := 0; j < n; j++ {
					for i := 0; i < n; i++ {
						a64[i+j*n] = (rng.Float64()*2 - 1) / float64(n)
					}
					a64[j+j*n] = 2 + rng.Float64() // diagonally dominant
				}
				b64 := make([]float64, n*nrhs)
				for i := range b64 {
					b64[i] = rng.Float64()*2 - 1
				}
				a32 := make([]float32, n*n)
				b32 := make([]float32, n*nrhs)
				for i := range a64 {
					a32[i] = float32(a64[i])
				}
				for i := range b64 {
					b32[i] = float32(b64[i])
				}
				Trsm(tcfg(), Left, uplo, trans, NonUnit, n, nrhs, 1.0, a64, n, b64, n)
				Trsm(tcfg(), Left, uplo, trans, NonUnit, n, nrhs, float32(1), a32, n, b32, n)
				for i := range b64 {
					if d := math.Abs(float64(b32[i]) - b64[i]); d > 1e-3*(1+math.Abs(b64[i])) {
						t.Fatalf("n=%d uplo=%v trans=%v: f32 solve off at %d: %g vs %g",
							n, uplo, trans, i, b32[i], b64[i])
					}
				}
			}
		}
	}
}

// TestLevel1F32AsmVsScalar checks the unit-stride float32 Level-1 entries
// (which dispatch to saxpyFma/sscalFma) against stride-2 calls of the same
// operation, which always run the portable loop, at lengths crossing the
// 8- and 16-lane boundaries.
func TestLevel1F32AsmVsScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 7, 8, 9, 15, 16, 17, 31, 33, 64, 67} {
		for _, alpha := range []float32{0.5, -1, 3} {
			x := randSlice[float32](rng, n)
			y := randSlice[float32](rng, n)
			// Strided reference: the same elements at stride 2.
			xs := make([]float32, 2*n)
			ys := make([]float32, 2*n)
			for i := 0; i < n; i++ {
				xs[2*i], ys[2*i] = x[i], y[i]
			}
			Axpy(n, alpha, x, 1, y, 1)
			Axpy(n, alpha, xs, 2, ys, 2)
			for i := 0; i < n; i++ {
				// The assembly kernel fuses the multiply-add into one
				// rounding; the portable loop rounds twice. Allow the ulp.
				if d := math.Abs(float64(y[i] - ys[2*i])); d > 2.4e-7*(1+math.Abs(float64(ys[2*i]))) {
					t.Fatalf("axpy n=%d alpha=%g mismatch at %d: %g vs %g", n, alpha, i, y[i], ys[2*i])
				}
			}
			Scal(n, alpha, x, 1)
			Scal(n, alpha, xs, 2)
			for i := 0; i < n; i++ {
				if x[i] != xs[2*i] {
					t.Fatalf("scal n=%d alpha=%g mismatch at %d", n, alpha, i)
				}
			}
		}
	}
}

// TestIamaxF32AsmVsScalar checks the vector Iamax (siamaxF32) against the
// scalar loop: random data, planted ties (first index must win), negative
// maxima, and lengths straddling the iamaxAsmMin cutoff and the 8-lane
// width.
func TestIamaxF32AsmVsScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 15, 16, 17, 24, 31, 32, 100, 129} {
		for rep := 0; rep < 20; rep++ {
			x := randSlice[float32](rng, n)
			if rep%3 == 1 && n >= 4 {
				// Planted exact tie: both share the max |.|; first wins.
				i, j := rng.Intn(n), rng.Intn(n)
				lo, hi := min(i, j), max(i, j)
				x[lo], x[hi] = 8, -8
			}
			want := iamaxFloat(x[:n])
			if got := Iamax(n, x, 1); got != want {
				t.Fatalf("n=%d rep=%d: Iamax=%d want %d (x=%v)", n, rep, got, want, x)
			}
		}
	}
	// Interior NaN: both paths skip it (comparisons with NaN are false).
	x := []float32{1, float32(math.NaN()), 3, -2, float32(math.NaN()), 2, 1, 0, 1, 2, 3, 4, -5, 1, 2, 3, 0, 1}
	if got, want := Iamax(len(x), x, 1), iamaxFloat(x); got != want {
		t.Fatalf("interior NaN: Iamax=%d want %d", got, want)
	}
}
