package blas

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/testutil/diff"
)

// cholStepRef is the definition CholStep is checked against: a dense,
// unblocked right-looking step on the full Hermitian matrix.
func cholStepRef[T core.Scalar](jb, m int, full []T) int {
	for j := 0; j < jb; j++ {
		d := core.Re(full[j+j*m])
		if d <= 0 || math.IsNaN(d) {
			return j + 1
		}
		d = math.Sqrt(d)
		full[j+j*m] = core.FromFloat[T](d)
		for i := j + 1; i < m; i++ {
			full[i+j*m] = core.Div(full[i+j*m], core.FromFloat[T](d))
			full[j+i*m] = core.Conj(full[i+j*m])
		}
		for c := j + 1; c < m; c++ {
			for i := j + 1; i < m; i++ {
				full[i+c*m] -= full[i+j*m] * core.Conj(full[c+j*m])
			}
		}
	}
	return 0
}

// hpdMatrix returns a random Hermitian positive definite m×m matrix, both
// triangles stored.
func hpdMatrix[T core.Scalar](rng *rand.Rand, m int) []T {
	g := make([]T, m*m)
	for i := range g {
		g[i] = randScalar[T](rng)
	}
	a := make([]T, m*m)
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			var s T
			for p := 0; p < m; p++ {
				s += g[i+p*m] * core.Conj(g[j+p*m])
			}
			a[i+j*m] = s
		}
		a[j+j*m] = core.FromFloat[T](core.Re(a[j+j*m]) + float64(m))
	}
	return a
}

func randScalar[T core.Scalar](rng *rand.Rand) T {
	re, im := 2*rng.Float64()-1, 2*rng.Float64()-1
	return core.FromComplex[T](complex(re, im))
}

// triangleOf copies the uplo triangle of the dense m×m matrix full into an
// lda-strided array whose every other entry is NaN.
func triangleOf[T core.Scalar](uplo Uplo, m int, full []T, lda int) []T {
	nan := core.FromFloat[T](math.NaN())
	a := make([]T, lda*m)
	for i := range a {
		a[i] = nan
	}
	for j := 0; j < m; j++ {
		lo, hi := 0, j+1
		if uplo == Lower {
			lo, hi = j, m
		}
		copy(a[lo+j*lda:hi+j*lda], full[lo+j*m:hi+j*m])
	}
	return a
}

func testCholStep[T core.Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tol := 64 * core.Eps[T]()
	for _, sh := range [][2]int{{8, 8}, {8, 16}, {8, 24}, {8, 40}, {8, 64}, {3, 3}, {5, 21}, {7, 47}, {8, 13}, {1, 9}} {
		jb, m := sh[0], sh[1]
		for _, uplo := range []Uplo{Upper, Lower} {
			full := hpdMatrix[T](rng, m)
			lda := m + 3
			a := triangleOf(uplo, m, full, lda)
			canary := append([]T(nil), a...)
			if info := cholStepRef(jb, m, full); info != 0 {
				t.Fatalf("reference failed: info=%d", info)
			}
			if info := SmallFor[T]().CholStep(uplo, jb, m, a, lda); info != 0 {
				t.Fatalf("jb=%d m=%d %v: info=%d", jb, m, uplo, info)
			}
			for j := 0; j < m; j++ {
				for i := 0; i < lda; i++ {
					stored := i < m && (uplo == Upper && i <= j || uplo == Lower && i >= j)
					got := a[i+j*lda]
					if !stored {
						if c := canary[i+j*lda]; !(got != got && c != c) {
							t.Fatalf("jb=%d m=%d %v: entry (%d,%d) outside the triangle was written: %v", jb, m, uplo, i, j, got)
						}
						continue
					}
					if d := core.Abs(got - full[i+j*m]); !(d <= tol*float64(m)*(1+core.Abs(full[i+j*m]))) {
						t.Fatalf("jb=%d m=%d %v: entry (%d,%d) = %v, want %v", jb, m, uplo, i, j, got, full[i+j*m])
					}
				}
			}
		}
	}
}

func TestCholStep(t *testing.T) {
	diff.Rows(t, func(t *testing.T) {
		t.Run("f64", testCholStep[float64])
		t.Run("f32", testCholStep[float32])
		t.Run("c128", testCholStep[complex128])
		t.Run("c64", testCholStep[complex64])
	})
}

// exactCholMatrix returns A = L·Lᵀ for an integer lower triangular L with
// powers of two on its diagonal, and L: every step of its factorization is
// exact in floating point, on a route with fused multiply-adds or without.
func exactCholMatrix(rng *rand.Rand, m int) (a, l []float64) {
	l = make([]float64, m*m)
	for j := 0; j < m; j++ {
		l[j+j*m] = float64(int(1) << rng.Intn(3))
		for i := j + 1; i < m; i++ {
			l[i+j*m] = float64(rng.Intn(5) - 2)
		}
	}
	a = make([]float64, m*m)
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			for p := 0; p <= min(i, j); p++ {
				a[i+j*m] += l[i+p*m] * l[j+p*m]
			}
		}
	}
	return a, l
}

// TestCholStepBadPivot puts a zero, negative, NaN or infinite reduced pivot
// at every position of the block: INFO is that position, the reduced pivot
// is left in its place, the columns before it are the factor's and every
// other entry is as it was — on every route, bit for bit.
func TestCholStepBadPivot(t *testing.T) {
	diff.Rows(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		const m, lda = 24, 25
		for _, uplo := range []Uplo{Upper, Lower} {
			for j := 0; j < CholNB; j++ {
				for _, bad := range []float64{0, -3, math.NaN(), math.Inf(-1)} {
					full, l := exactCholMatrix(rng, m)
					full[j+j*m] += bad - l[j+j*m]*l[j+j*m]
					a := triangleOf(uplo, m, full, lda)
					want := append([]float64(nil), a...)
					for c := 0; c < j; c++ {
						for i := c; i < CholNB; i++ {
							if uplo == Lower {
								want[i+c*lda] = l[i+c*m]
							} else {
								want[c+i*lda] = l[i+c*m]
							}
						}
					}
					want[j+j*lda] = bad
					if info := SmallFor[float64]().CholStep(uplo, CholNB, m, a, lda); info != j+1 {
						t.Fatalf("%v pivot %d = %v: info=%d", uplo, j, bad, info)
					}
					for i := range a {
						if a[i] != want[i] && !(a[i] != a[i] && want[i] != want[i]) {
							t.Fatalf("%v pivot %d = %v: entry (%d,%d) = %v, want %v", uplo, j, bad, i%lda, i/lda, a[i], want[i])
						}
					}
				}
			}
		}
	})
}

func TestDot8(t *testing.T) {
	diff.Rows(t, func(t *testing.T) {
		t.Run("f64", testDot8[float64])
		t.Run("c128", testDot8[complex128])
		t.Run("f32", testDot8[float32])
	})
}

func testDot8[T core.Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, m := range []int{0, 1, 2, 3, 4, 5, 7, 8, 13, 56} {
		lda := m + 2
		a := make([]T, lda*CholNB)
		for i := range a {
			a[i] = randScalar[T](rng)
		}
		x := make([]T, m)
		for i := range x {
			x[i] = randScalar[T](rng)
		}
		for _, conj := range []bool{false, core.IsComplex[T]()} {
			got := SmallFor[T]().Dot8(a, lda, x, conj)
			for q := range got {
				var want T
				for i := range x {
					v := a[i+q*lda]
					if conj {
						v = core.Conj(v)
					}
					want += v * x[i]
				}
				if d := core.Abs(got[q] - want); !(d <= 16*core.Eps[T]()*float64(m+1)) {
					t.Fatalf("m=%d conj=%v: out[%d] = %v, want %v", m, conj, q, got[q], want)
				}
			}
		}
		// The wider tile, where the row has one, runs dot8's chains.
		if tile := kernelFor[T]().dot4x3; tile != nil && m > 0 {
			b := a[lda:]
			got := tile(m, a, lda, b, lda)
			for c := 0; c < 3; c++ {
				want := SmallFor[T]().Dot8(a, lda, b[c*lda:c*lda+m], false)
				if !diff.Same(got[4*c:4*c+4], want[:4]) {
					t.Fatalf("m=%d: dot4x3 column %d = %v, dot8 %v", m, c, got[4*c:4*c+4], want[:4])
				}
			}
		}
	}
}
