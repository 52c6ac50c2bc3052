package blas

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// Correctness of the pack-free small-matrix path against the naive oracle,
// across all four scalar types, every edge-tile shape (m, n not multiples of
// the tile), padded strides and both alpha-at-epilogue cases.

func testGemmSmallVsNaive[T core.Scalar](t *testing.T, tol float64) {
	rng := rand.New(rand.NewSource(7))
	cfg := tcfg().With(func(c *core.Config) { c.GemmSmallDim = 64 })
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

		if !gemmSmallOK(cfg, NoTrans, NoTrans, m, n, k) {
			t.Fatalf("gemmSmallOK false for m=%d n=%d k=%d", m, n, k)
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

// TestGemmSmallPortableVsAsm pins the assembly strip kernel against the
// portable tile on identical inputs (only meaningful where the asm kernel
// exists; elsewhere both sides take the portable path and the test is
// vacuous but still runs).
func TestGemmSmallPortableVsAsm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		m := 1 + rng.Intn(64)
		n := 1 + rng.Intn(64)
		k := 1 + rng.Intn(64)
		lda, ldb, ldc := m+1, k+2, m
		a := randSlice[float64](rng, lda*k)
		b := randSlice[float64](rng, ldb*n)
		c := randSlice[float64](rng, ldc*n)
		want := append([]float64(nil), c...)
		kernelFor[float64]().small(m, n, k, 1.5, a, lda, b, ldb, c, ldc)
		gemmSmallPortable(m, n, k, 1.5, a, lda, b, ldb, want, ldc)
		for i := range c {
			if core.Abs(c[i]-want[i]) > 1e-12 {
				t.Fatalf("m=%d n=%d k=%d: asm/portable mismatch at %d: %v vs %v",
					m, n, k, i, c[i], want[i])
			}
		}
	}
}

// TestGemmSmallDisabled checks that GemmSmallDim = 0 routes small products
// back through the seed dispatch (the result must still be right, and
// gemmSmallOK must not claim them).
func TestGemmSmallDisabled(t *testing.T) {
	cfg := tcfg().With(func(c *core.Config) { c.GemmSmallDim = 0 })
	if gemmSmallOK(cfg, NoTrans, NoTrans, 8, 8, 8) {
		t.Fatal("gemmSmallOK claims products with the path disabled")
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
// the pack-free path.
func TestGemmSmallTransExcluded(t *testing.T) {
	for _, tr := range []Trans{TransT, ConjTrans} {
		if gemmSmallOK(tcfg(), tr, NoTrans, 8, 8, 8) || gemmSmallOK(tcfg(), NoTrans, tr, 8, 8, 8) {
			t.Fatalf("gemmSmallOK claims trans=%v products", tr)
		}
	}
	if gemmSmallOK(tcfg(), NoTrans, NoTrans, tcfg().GemmSmallDim+1, 4, 4) {
		t.Fatal("gemmSmallOK claims m above the crossover")
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
