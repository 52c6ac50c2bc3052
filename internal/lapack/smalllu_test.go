package lapack_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/testutil"
	"repro/internal/testutil/diff"
)

// testGetrfRoutes factors one m×n matrix by the three routes there are under
// and around the small-matrix crossover — Getrf's own (getrfSmall up to
// blas.SmallOK's 64, the blocked loop above), the recursive Getrf2 and the
// unblocked Getf2 — on every row of the kernel table: the pivots and INFO are
// the same everywhere, the factors within n·ε of Getf2's, and the two asm
// rows, which share every leaf under the small path, agree bit for bit.
func testGetrfRoutes[T core.Scalar](t *testing.T, m, n int) {
	rng := lapack.NewRng([4]int{m, n, 23, 1})
	lda := m + 3
	a := testutil.RandGeneral[T](rng, m, n, lda)
	mn := min(m, n)
	factors := []struct {
		name string
		run  func(af []T, ipiv []int) int
	}{
		{"Getrf", func(af []T, ipiv []int) int { return lapack.Getrf(tcfg(), m, n, af, lda, ipiv) }},
		{"Getrf2", func(af []T, ipiv []int) int { return lapack.Getrf2(tcfg(), m, n, af, lda, ipiv) }},
		{"Getf2", func(af []T, ipiv []int) int { return lapack.Getf2(m, n, af, lda, ipiv) }},
	}
	var out [3][][]T
	var pivots []int
	diff.OnRows(t, func(r diff.Row) {
		for _, f := range factors {
			af, ipiv := append([]T(nil), a...), make([]int, mn)
			if info := f.run(af, ipiv); info != 0 {
				t.Fatalf("%s on %s: info = %d", f.name, r, info)
			}
			if res := testutil.LUResidual(m, n, a, lda, af, lda, ipiv); res > thresh {
				t.Fatalf("%s on %s: residual ratio %v > %v", f.name, r, res, thresh)
			}
			if pivots == nil {
				pivots = ipiv
			}
			for i := range ipiv {
				if ipiv[i] != pivots[i] {
					t.Fatalf("%s on %s: ipiv = %v, elsewhere %v", f.name, r, ipiv, pivots)
				}
			}
			out[r] = append(out[r], af)
		}
		oracle := out[r][len(factors)-1]
		luMax := lapack.Lange(lapack.MaxAbs, m, n, oracle, lda)
		for i, f := range factors[:len(factors)-1] {
			if d := diff.MaxDiff(out[r][i], oracle); d > 4*float64(max(m, n))*core.Eps[T]()*luMax {
				t.Fatalf("%s vs Getf2 on %s differ by %v (max |LU| = %v)", f.name, r, d, luMax)
			}
		}
	})
	for i, f := range factors {
		if out[diff.AVX2] != nil && !diff.Same(out[diff.Selected][i], out[diff.AVX2][i]) {
			t.Fatalf("%s: the AVX2 row differs bitwise from the selected row", f.name)
		}
	}
}

func TestGetrfRoutesAgree(t *testing.T) {
	shapes := [][2]int{{40, 24}, {24, 40}, {64, 8}, {8, 64}, {37, 21}, {21, 37}}
	for n := 1; n <= 65; n++ {
		shapes = append(shapes, [2]int{n, n})
	}
	for _, sh := range shapes {
		m, n := sh[0], sh[1]
		name := fmt.Sprintf("%dx%d", m, n)
		t.Run("float64/"+name, func(t *testing.T) { testGetrfRoutes[float64](t, m, n) })
		t.Run("float32/"+name, func(t *testing.T) { testGetrfRoutes[float32](t, m, n) })
		t.Run("complex128/"+name, func(t *testing.T) { testGetrfRoutes[complex128](t, m, n) })
		t.Run("complex64/"+name, func(t *testing.T) { testGetrfRoutes[complex64](t, m, n) })
	}
}

// testGetrsRoutes solves from one factorization by getrsSmall (NoTrans,
// nrhs < 8 under the crossover) and by the interchanges and the Trsm pair (the
// crossover disabled), on every row; the transposed solves have no small
// route and must not have grown one that is wrong.
func testGetrsRoutes[T core.Scalar](t *testing.T, n, nrhs int) {
	rng := lapack.NewRng([4]int{n, nrhs, 29, 1})
	lda, ldb := n+3, n+1
	a := testutil.RandGeneral[T](rng, n, n, lda)
	b := testutil.RandGeneral[T](rng, n, nrhs, ldb)
	var out [3][]T
	diff.OnRows(t, func(r diff.Row) {
		af, ipiv := append([]T(nil), a...), make([]int, n)
		if info := lapack.Getrf(tcfg(), n, n, af, lda, ipiv); info != 0 {
			t.Fatalf("info = %d", info)
		}
		x, xt := append([]T(nil), b...), append([]T(nil), b...)
		lapack.Getrs(tcfg(), lapack.NoTrans, n, nrhs, af, lda, ipiv, x, ldb)
		withoutSmall(t, func() { lapack.Getrs(tcfg(), lapack.NoTrans, n, nrhs, af, lda, ipiv, xt, ldb) })
		if res := testutil.SolveResidual(n, nrhs, a, lda, x, ldb, b, ldb); res > thresh {
			t.Fatalf("%s: residual ratio %v > %v", r, res, thresh)
		}
		if d := diff.MaxDiff(x, xt); d > 1e3*core.Eps[T]()*float64(n)*lapack.Lange(lapack.MaxAbs, n, nrhs, xt, ldb) {
			t.Fatalf("%s: small solve and Trsm pair differ by %v", r, d)
		}
		out[r] = x
		for _, trans := range []lapack.Trans{lapack.TransT, lapack.ConjTrans} {
			at := make([]T, lda*n)
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					at[i+j*lda] = a[j+i*lda]
					if trans == lapack.ConjTrans {
						at[i+j*lda] = core.Conj(at[i+j*lda])
					}
				}
			}
			x := append([]T(nil), b...)
			lapack.Getrs(tcfg(), trans, n, nrhs, af, lda, ipiv, x, ldb)
			if res := testutil.SolveResidual(n, nrhs, at, lda, x, ldb, b, ldb); res > thresh {
				t.Fatalf("%s %v: residual ratio %v > %v", r, trans, res, thresh)
			}
		}
	})
	if out[diff.AVX2] != nil && !diff.Same(out[diff.Selected], out[diff.AVX2]) {
		t.Fatal("the AVX2 row differs bitwise from the selected row")
	}
}

// testGetrsTinyDiagonal solves from factors whose U has a diagonal under
// SafeMin, in full blocks and in the ragged tail alike: 1/U(j,j) overflows,
// so a solve that multiplies by reciprocals returns Inf where the Trsm pair,
// which divides, returns the solution. L has a few multipliers of a half and a
// quarter, next to the diagonal and a block away from it, U is d·I and B
// small multiples of d, with d a power of two: every operation of either
// route is exact, and the two agree to the bit.
func testGetrsTinyDiagonal[T core.Scalar](t *testing.T, n, nrhs int) {
	d := core.FromFloat[T](core.SafeMin[T]() / 256)
	lda, ldb := n+2, n+1
	af, ipiv := make([]T, lda*n), make([]int, n)
	for j := 0; j < n; j++ {
		ipiv[j] = j
		af[j+j*lda] = d
		if j%4 == 0 && j+1 < n {
			af[j+1+j*lda] = core.FromFloat[T](0.5)
		}
		if j%4 == 0 && j+9 < n {
			af[j+9+j*lda] = core.FromFloat[T](0.25)
		}
	}
	ipiv[0] = n - 1
	b := make([]T, ldb*nrhs)
	for r := 0; r < nrhs; r++ {
		for i := 0; i < n; i++ {
			b[i+r*ldb] = d * core.FromFloat[T](float64(1+(i+2*r)%5))
		}
	}
	diff.OnRows(t, func(r diff.Row) {
		x, xt := append([]T(nil), b...), append([]T(nil), b...)
		lapack.Getrs(tcfg(), lapack.NoTrans, n, nrhs, af, lda, ipiv, x, ldb)
		withoutSmall(t, func() { lapack.Getrs(tcfg(), lapack.NoTrans, n, nrhs, af, lda, ipiv, xt, ldb) })
		if big := lapack.Lange(lapack.MaxAbs, n, nrhs, xt, ldb); !(big >= 1 && big <= 8) {
			t.Fatalf("%s: the Trsm pair returns max |x| = %v", r, big)
		}
		if !diff.Same(x, xt) {
			t.Fatalf("%s: small solve and Trsm pair differ by %v (max |x| = %v)", r,
				diff.MaxDiff(x, xt), lapack.Lange(lapack.MaxAbs, n, nrhs, x, ldb))
		}
	})
}

func TestGetrsRoutesAgree(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 9, 15, 16, 17, 31, 40, 47, 64} {
		for nrhs := 1; nrhs <= 7; nrhs++ {
			name := fmt.Sprintf("n=%d/nrhs=%d", n, nrhs)
			t.Run("float64/"+name, func(t *testing.T) { testGetrsRoutes[float64](t, n, nrhs) })
			t.Run("float32/"+name, func(t *testing.T) { testGetrsRoutes[float32](t, n, nrhs) })
			t.Run("complex128/"+name, func(t *testing.T) { testGetrsRoutes[complex128](t, n, nrhs) })
			t.Run("complex64/"+name, func(t *testing.T) { testGetrsRoutes[complex64](t, n, nrhs) })
		}
	}
	for _, n := range []int{4, 8, 13, 24, 64} {
		for _, nrhs := range []int{1, 3} {
			name := fmt.Sprintf("tinydiag/n=%d/nrhs=%d", n, nrhs)
			t.Run("float64/"+name, func(t *testing.T) { testGetrsTinyDiagonal[float64](t, n, nrhs) })
			t.Run("float32/"+name, func(t *testing.T) { testGetrsTinyDiagonal[float32](t, n, nrhs) })
			t.Run("complex128/"+name, func(t *testing.T) { testGetrsTinyDiagonal[complex128](t, n, nrhs) })
			t.Run("complex64/"+name, func(t *testing.T) { testGetrsTinyDiagonal[complex64](t, n, nrhs) })
		}
	}
}

// TestSmallLUKeepsNonFinite pins the rule of the small path that the Level-2
// oracle of the placement sweep cannot (Ger passes over a column whose
// multiplier is zero, Trsv over an unknown that is): a product with a zero in
// it is still taken, so an Inf or NaN in one factor opposite a zero in the
// other reaches what the arithmetic says it reaches — 0·Inf = NaN.
func TestSmallLUKeepsNonFinite(t *testing.T) {
	diff.OnRows(t, func(r diff.Row) {
		for _, n := range []int{3, 8, 13, 24} {
			// A = L·U with L = I + Inf·e₂e₀ᵀ: b = e₁ leaves the unknown that
			// multiplies the Inf at zero in the forward sweep.
			lda := n + 1
			a := make([]float64, lda*n)
			for j := 0; j < n; j++ {
				a[j+j*lda] = float64(n - j) // decreasing: no interchanges
			}
			af, ipiv := append([]float64(nil), a...), make([]int, n)
			if info := lapack.Getrf(tcfg(), n, n, af, lda, ipiv); info != 0 {
				t.Fatalf("info = %d", info)
			}
			af[2] = math.Inf(1) // L(2,0)
			b := make([]float64, n)
			b[1] = 1
			lapack.Getrs(tcfg(), lapack.NoTrans, n, 1, af, lda, ipiv, b, n)
			if b[2] == b[2] {
				t.Fatalf("%s n=%d: Inf in L opposite a zero unknown was dropped: x = %v", r, n, b)
			}
			// U(0,2) = Inf opposite the zero unknown x₂ of b = e₁.
			af[2], af[2*lda] = 0, math.Inf(1)
			b = make([]float64, n)
			b[1] = 1
			lapack.Getrs(tcfg(), lapack.NoTrans, n, 1, af, lda, ipiv, b, n)
			if b[0] == b[0] {
				t.Fatalf("%s n=%d: Inf in U opposite a zero unknown was dropped: x = %v", r, n, b)
			}
			// In the factorization: row 0 of U is zero past the diagonal,
			// the multiplier under the pivot is NaN.
			a[1] = math.NaN()
			af = append([]float64(nil), a...)
			lapack.Getrf(tcfg(), n, n, af, lda, ipiv)
			for j := 1; j < n; j++ {
				if v := af[1+j*lda]; v == v {
					t.Fatalf("%s n=%d: NaN multiplier opposite a zero of U was dropped at (1,%d): %v", r, n, j, v)
				}
			}
		}
	})
}
