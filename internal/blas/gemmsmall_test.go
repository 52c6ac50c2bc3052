package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/testutil/diff"
)

// Correctness of the pack-free small-matrix path against the naive oracle,
// across all four scalar types, every edge-tile shape (m, n not multiples of
// the tile), padded strides and both alpha-at-epilogue cases.

func testGemmSmallVsNaive[T core.Scalar](t *testing.T, tol float64) {
	rng := rand.New(rand.NewSource(7))
	diff.Engine(t, func(e *faultinject.Engine) { e.SmallDim = 64 })
	cfg := tcfg()
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(64)
		n := 1 + rng.Intn(64)
		k := 1 + rng.Intn(64)
		lda := m + rng.Intn(3)
		ldb := k + rng.Intn(3)
		ldc := m + rng.Intn(3)
		a := randSlice[T](rng, lda*k)
		b := randSlice[T](rng, ldb*n)
		c := randSlice[T](rng, ldc*n)
		want := append([]T(nil), c...)
		alpha := core.FromFloat[T](float64(rng.Intn(5)) - 2)
		beta := core.FromFloat[T](float64(rng.Intn(3)) - 1)

		if !SmallOK(max(m, n, k)) {
			t.Fatalf("SmallOK false for m=%d n=%d k=%d", m, n, k)
		}
		Gemm(cfg, NoTrans, NoTrans, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
		GemmNaive(NoTrans, NoTrans, m, n, k, alpha, a, lda, b, ldb, beta, want, ldc)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				if d := core.Abs(c[i+j*ldc] - want[i+j*ldc]); d > tol {
					t.Fatalf("m=%d n=%d k=%d: C(%d,%d) = %v, want %v (|Δ|=%g)",
						m, n, k, i, j, c[i+j*ldc], want[i+j*ldc], d)
				}
			}
		}
	}
}

func TestGemmSmallVsNaive(t *testing.T) {
	t.Run("float32", func(t *testing.T) { testGemmSmallVsNaive[float32](t, 1e-3) })
	t.Run("float64", func(t *testing.T) { testGemmSmallVsNaive[float64](t, 1e-12) })
	t.Run("complex64", func(t *testing.T) { testGemmSmallVsNaive[complex64](t, 1e-3) })
	t.Run("complex128", func(t *testing.T) { testGemmSmallVsNaive[complex128](t, 1e-12) })
}

// TestGemmSmallInfTimesZero: an Inf of A times a zero of B is a NaN term of
// C on the full 4×4 tiles, the strips and the ragged tiles alike.
func TestGemmSmallInfTimesZero(t *testing.T) {
	diff.Rows(t, func(t *testing.T) {
		t.Run("float32", testGemmSmallInfTimesZero[float32])
		t.Run("float64", testGemmSmallInfTimesZero[float64])
		t.Run("complex64", testGemmSmallInfTimesZero[complex64])
		t.Run("complex128", testGemmSmallInfTimesZero[complex128])
	})
}

func testGemmSmallInfTimesZero[T core.Scalar](t *testing.T) {
	for _, m := range []int{4, 5, 8, 9} {
		a, b, c := make([]T, m*4), make([]T, 16), make([]T, m*4)
		a[m-1] = core.FromFloat[T](math.Inf(1))
		for i := 1; i < 16; i++ {
			b[i] = core.FromFloat[T](float64(i % 4)) // B(0, :) = 0
		}
		Gemm(tcfg(), NoTrans, NoTrans, m, 4, 4, core.FromFloat[T](1), a, m, b, 4, 0, c, m)
		if !math.IsNaN(core.Re(c[m-1])) {
			t.Fatalf("m=%d: C(m−1, 0) = %v, want NaN", m, c[m-1])
		}
	}
}

// TestGemmSmallDisabled checks that a small-path crossover of 0 routes small
// products back through the seed dispatch (the result must still be right,
// and SmallOK must not claim them).
func TestGemmSmallDisabled(t *testing.T) {
	diff.Engine(t, func(e *faultinject.Engine) { e.SmallDim = 0 })
	cfg := tcfg()
	if SmallOK(8) {
		t.Fatal("SmallOK claims products with the path disabled")
	}
	rng := rand.New(rand.NewSource(3))
	const n = 32
	a := randSlice[float64](rng, n*n)
	b := randSlice[float64](rng, n*n)
	c := make([]float64, n*n)
	want := make([]float64, n*n)
	Gemm(cfg, NoTrans, NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
	GemmNaive(NoTrans, NoTrans, n, n, n, 1, a, n, b, n, 0, want, n)
	for i := range c {
		if core.Abs(c[i]-want[i]) > 1e-12 {
			t.Fatalf("disabled-path mismatch at %d", i)
		}
	}
}

// TestGemmSmallTransExcluded pins the gate: transposed operands never take
// the pack-free path, whose kernels read both operands untransposed (a
// transposed product routed there comes out as A·B), and SmallOK turns down
// an order above the crossover.
func TestGemmSmallTransExcluded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 8
	a, b := randSlice[float64](rng, n*n), randSlice[float64](rng, n*n)
	for _, tr := range [][2]Trans{{TransT, NoTrans}, {NoTrans, ConjTrans}, {TransT, TransT}} {
		c, want := make([]float64, n*n), make([]float64, n*n)
		Gemm(tcfg(), tr[0], tr[1], n, n, n, 1, a, n, b, n, 0, c, n)
		GemmNaive(tr[0], tr[1], n, n, n, 1, a, n, b, n, 0, want, n)
		if d := diff.MaxDiff(c, want); d > 1e-12 {
			t.Fatalf("trans=%v: |Gemm − GemmNaive| = %g", tr, d)
		}
	}
	if SmallOK(gemmSmallDim + 1) {
		t.Fatal("SmallOK claims an order above the crossover")
	}
}

// TestGemmSmallZeroAlloc pins the zero-allocation claim of the pack-free
// path: a small product must not touch the heap.
func TestGemmSmallZeroAlloc(t *testing.T) {
	const n = 32
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) - 3
		b[i] = float64(i%5) - 2
	}
	allocs := testing.AllocsPerRun(100, func() {
		Gemm(tcfg(), NoTrans, NoTrans, n, n, n, 1.0, a, n, b, n, 0.0, c, n)
	})
	if allocs != 0 {
		t.Errorf("small-path Gemm allocates %v objects per call, want 0", allocs)
	}
}

// testGemmDots holds Gemm's inner-product route (gemmDots) to GemmNaive on
// Trans and ConjTrans × NoTrans shapes around its crossovers: every row count
// up to one past dotRowsAsm (the ragged tail of the eight-row dot8 leaf),
// every column count up to 33, k one under, at and one over dotMinK and 4097,
// alpha ∈ {1, −0.5, 0} and beta ∈ {0, 0.5, 1}. Where the row takes the route,
// Gemm must give gemmDots's bits, at every thread count. A NaN or an Inf
// first, inside or last in a column of A or of B must reach exactly the
// elements of C it is a term of: no term is skipped.
func testGemmDots[T core.Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	kern := kernelFor[T]()
	diff.Engine(t, func(e *faultinject.Engine) { e.ParallelMinVol = 1 })
	alphas, betas := []float64{1, -0.5, 0}, []float64{0, 0.5, 1}
	run := 0
	for n := 1; n <= 33; n++ {
		for _, k := range []int{dotMinK - 1, dotMinK, dotMinK + 1, 4097} {
			m, tr := 1+(n-1)%(dotRowsAsm+1), []Trans{TransT, ConjTrans}[run%2]
			alpha, beta := core.FromFloat[T](alphas[run%3]), core.FromFloat[T](betas[run/3%3])
			run++
			lda, ldb, ldc := k+1, k+2, m+1
			a, b, c0 := randSlice[T](rng, lda*m), randSlice[T](rng, ldb*n), randSlice[T](rng, ldc*n)
			name := fmt.Sprintf("%v m=%d n=%d k=%d alpha=%v beta=%v", tr, m, n, k, alpha, beta)
			want := clone(c0)
			GemmNaive(tr, NoTrans, m, n, k, alpha, a, lda, b, ldb, beta, want, ldc)
			got := diff.AcrossThreads(t, name, func(th int) []T {
				got := clone(c0)
				Gemm(tcfg().WithThreads(th), tr, NoTrans, m, n, k, alpha, a, lda, b, ldb, beta, got, ldc)
				return got
			})
			if n > 1 && alpha != 0 && m <= kern.dotRows && k >= kern.dotMinK {
				direct := clone(c0)
				scaleMatrix(m, n, beta, direct, ldc)
				gemmDots(tcfg(), kern, realTrans[T](tr) == ConjTrans, m, n, k, alpha, a, lda, b, ldb, direct, ldc, 0)
				if !diff.Same(got, direct) {
					t.Errorf("%s: Gemm did not take the inner-product route", name)
				}
			}
			if d := diff.MaxDiff(got, want); !(d <= 8*float64(k+1)*core.Eps[T]()) {
				t.Fatalf("%s: |Gemm − GemmNaive| = %g", name, d)
			}
		}
	}
	// The complex rows' largest route and the real rows' ragged tail; the
	// bad value sits in the last column of A, or in a column of B under the
	// real rows' tile (1) or beside it, on dot8 (3).
	n, k := 4, dotMinK+1
	for _, m := range []int{dotRows1m, dotRowsAsm + 1} {
		for _, bad := range []T{core.NaN[T](), core.FromFloat[T](math.Inf(-1))} {
			for _, col := range []int{-1, 1, n - 1} {
				for _, p := range []int{0, k / 2, k - 1} {
					a, b := randSlice[T](rng, k*m), randSlice[T](rng, k*n)
					if col < 0 {
						a[p+(m-1)*k] = bad
					} else {
						b[p+col*k] = bad
					}
					c := make([]T, m*n)
					Gemm(tcfg(), ConjTrans, NoTrans, m, n, k, 1, a, k, b, k, 0, c, m)
					for j := 0; j < n; j++ {
						for i := 0; i < m; i++ {
							if term := j == col || (col < 0 && i == m-1); core.IsFinite(c[i+j*m]) == term {
								t.Fatalf("m=%d, %v at %d of column %d of B (−1: of A): C(%d,%d) = %v", m, bad, p, col, i, j, c[i+j*m])
							}
						}
					}
				}
			}
		}
	}
}

func TestGemmDots(t *testing.T) {
	diff.Rows(t, func(t *testing.T) {
		t.Run("float64", testGemmDots[float64])
		t.Run("float32", testGemmDots[float32])
		t.Run("complex128", testGemmDots[complex128])
		t.Run("complex64", testGemmDots[complex64])
	})
}
