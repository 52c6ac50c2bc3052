package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/testutil/diff"
)

// luStepRef is the definition LUStep is checked against: lapack.Getf2's loop
// on the panel, every interchange carried across the whole row block and
// every rank-one update across all the columns on the right — dense,
// unblocked, and with no product left out for being zero.
func luStepRef[T core.Scalar](nl, jb, m, n int, a []T, lda int, ipiv []int) int {
	info := 0
	for j := 0; j < jb; j++ {
		col := a[(nl+j)*lda : (nl+j)*lda+m]
		p := j + iamaxInc(m-j, col[j:], 1)
		ipiv[j] = p
		if piv := col[p]; piv != 0 {
			for c := 0; c < n; c++ {
				a[j+c*lda], a[p+c*lda] = a[p+c*lda], a[j+c*lda]
			}
			if core.Abs1(piv) >= core.SafeMin[T]() {
				inv := core.Div(core.FromFloat[T](1), piv)
				for i := j + 1; i < m; i++ {
					col[i] *= inv
				}
			} else {
				for i := j + 1; i < m; i++ {
					col[i] = core.Div(col[i], piv)
				}
			}
		} else if info == 0 {
			info = j + 1
		}
		for c := nl + j + 1; c < n; c++ {
			for i := j + 1; i < m; i++ {
				a[i+c*lda] -= col[i] * a[j+c*lda]
			}
		}
	}
	return info
}

// luBlock is a row block for LUStep inside a larger array: above and under
// its m rows and after its n columns — where, in a batch, the rows of the
// same matrix the step must leave alone and the next item are — everything
// is NaN.
type luBlock[T core.Scalar] struct {
	m, n, lda, top int
	data           []T
}

func newLUBlock[T core.Scalar](rng *rand.Rand, m, n int) *luBlock[T] {
	b := &luBlock[T]{m: m, n: n, lda: m + 5, top: 2}
	b.data = make([]T, b.lda*(n+2))
	nan := core.FromFloat[T](math.NaN())
	for i := range b.data {
		b.data[i] = nan
	}
	for j := 0; j < n; j++ {
		copy(b.rows()[j*b.lda:j*b.lda+m], randSlice[T](rng, m))
	}
	return b
}

// rows is the block as LUStep takes it.
func (b *luBlock[T]) rows() []T { return b.data[b.top:] }

func (b *luBlock[T]) clone() *luBlock[T] {
	c := *b
	c.data = append([]T(nil), b.data...)
	return &c
}

// same reports the first difference between the step's outcome and the
// reference's: the pivots and INFO exactly, every entry of the block part by
// part — a number to tol·m of its size, NaN for NaN, Inf for Inf — and nothing
// around the block touched.
func (b *luBlock[T]) same(t *testing.T, label string, want *luBlock[T], ipiv, wantPiv []int, info, wantInfo int) {
	t.Helper()
	if info != wantInfo {
		t.Fatalf("%s: info = %d, want %d", label, info, wantInfo)
	}
	for q := range ipiv {
		if ipiv[q] != wantPiv[q] {
			t.Fatalf("%s: ipiv = %v, want %v", label, ipiv, wantPiv)
		}
	}
	eps := tol[T]() * float64(b.m)
	for i, w := range want.data {
		g := b.data[i]
		row, inside := i%b.lda-b.top, i/b.lda < b.n
		if inside = inside && row >= 0 && row < b.m; !inside {
			if g == g {
				t.Fatalf("%s: entry (%d,%d) outside the block was written: %v", label, row, i/b.lda, g)
			}
			continue
		}
		for _, part := range [][2]float64{{core.Re(g), core.Re(w)}, {core.Im(g), core.Im(w)}} {
			gp, wp := part[0], part[1]
			if math.IsNaN(wp) || math.IsInf(wp, 0) {
				if gp == wp || gp != gp && wp != wp {
					continue
				}
			} else if math.Abs(gp-wp) <= eps*(1+math.Abs(wp)) {
				continue
			}
			t.Fatalf("%s: entry (%d,%d) = %v, want %v", label, row, i/b.lda, g, w)
		}
	}
}

// runLUStep runs the step and the reference on copies of b and compares.
func runLUStep[T core.Scalar](t *testing.T, label string, nl, jb int, b *luBlock[T]) (info int, ipiv []int) {
	t.Helper()
	got, want := b.clone(), b.clone()
	ipiv, wantPiv := make([]int, jb), make([]int, jb)
	wantInfo := luStepRef(nl, jb, b.m, b.n, want.rows(), b.lda, wantPiv)
	info = SmallFor[T]().LUStep(nl, jb, b.m, b.n, got.rows(), b.lda, ipiv)
	got.same(t, label, want, ipiv, wantPiv, info, wantInfo)
	return info, ipiv
}

// luShapes are {nl, jb, m, n}: full blocks on the shapes the float64 kernel
// takes (rows a multiple of eight up to the 256 its frame holds, groups of
// four columns on the right) and around them, ragged blocks, panels with
// nothing on either side, wide and tall blocks, and the last block of a wide
// matrix, which has no rows below.
var luShapes = [][4]int{
	{0, 8, 8, 8}, {0, 8, 16, 16}, {8, 8, 8, 16}, {0, 8, 64, 64}, {24, 8, 40, 64}, {5, 8, 56, 61}, {3, 8, 256, 19}, {0, 8, 264, 12},
	{0, 8, 24, 8}, {3, 8, 24, 11}, {0, 8, 8, 20}, {16, 8, 8, 40}, {0, 8, 16, 14}, {2, 8, 12, 18}, {0, 8, 21, 33},
	{0, 3, 3, 3}, {0, 5, 21, 21}, {0, 7, 47, 47}, {0, 1, 9, 9}, {0, 4, 4, 30}, {0, 6, 30, 6}, {0, 1, 1, 1},
}

func testLUStep[T core.Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, sh := range luShapes {
		nl, jb, m, n := sh[0], sh[1], sh[2], sh[3]
		label := func(what string) string {
			return fmt.Sprintf("%s nl=%d jb=%d m=%d n=%d", what, nl, jb, m, n)
		}
		b := newLUBlock[T](rng, m, n)
		if info, _ := runLUStep(t, label("random"), nl, jb, b); info != 0 {
			t.Fatalf("%s: info = %d", label("random"), info)
		}
		// The pivot search against Iamax on columns with NaN in them: at the
		// head of a search range (there it is the pivot), inside one (there
		// it is passed over) and all the way down; and an Inf pivot, whose
		// reciprocal is a multiplier of zero.
		nan, inf := core.FromFloat[T](math.NaN()), core.FromFloat[T](math.Inf(1))
		for q := 0; q < jb; q++ {
			for _, at := range [][2]int{{q, nl + q}, {m - 1, nl + q}, {(q + m) / 2, nl + q}, {q, n - 1}, {m - 1, 0}} {
				for _, v := range []T{nan, inf, -inf, 0} {
					p := b.clone()
					p.rows()[at[0]+at[1]*b.lda] = v
					runLUStep(t, label("poisoned"), nl, jb, p)
				}
			}
			p := b.clone()
			for i := 0; i < m; i++ {
				p.rows()[i+(nl+q)*b.lda] = nan
			}
			runLUStep(t, label("NaN column"), nl, jb, p)
		}
	}
}

func TestLUStep(t *testing.T) {
	diff.Rows(t, func(t *testing.T) {
		t.Run("f64", testLUStep[float64])
		t.Run("f32", testLUStep[float32])
		t.Run("c128", testLUStep[complex128])
		t.Run("c64", testLUStep[complex64])
	})
}

// TestLUStepZeroPivot: a panel column that is zero from the diagonal down is
// an exact zero pivot whatever came before it. INFO is the first such
// column, its row stays where it is, nothing is scaled — and the sweep goes
// on, to the reference's pivots and factors, past a second one too.
func TestLUStepZeroPivot(t *testing.T) {
	diff.Rows(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		for _, sh := range [][4]int{{0, 8, 24, 24}, {8, 8, 16, 32}, {0, 8, 8, 8}, {0, 5, 13, 13}, {0, 8, 19, 10}} {
			nl, jb, m, n := sh[0], sh[1], sh[2], sh[3]
			for q := 0; q < jb; q++ {
				for _, second := range []int{-1, jb - 1} {
					b := newLUBlock[float64](rng, m, n)
					for _, z := range []int{q, second} {
						for i := 0; z >= 0 && i < m; i++ {
							b.rows()[i+(nl+z)*b.lda] = 0
						}
					}
					info, ipiv := runLUStep(t, "zero column", nl, jb, b)
					if info != q+1 || ipiv[q] != q {
						t.Fatalf("nl=%d jb=%d m=%d n=%d: column %d is zero: info=%d ipiv=%v", nl, jb, m, n, q, info, ipiv)
					}
				}
			}
		}
	})
}

// TestLUStepSubnormalPivot: a column scaled down until its pivot is
// subnormal has a reciprocal that overflows; the multipliers must come from
// divisions, as in xGETF2, and be the numbers of modulus at most one they are.
func TestLUStepSubnormalPivot(t *testing.T) {
	diff.Rows(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		for _, sh := range [][4]int{{0, 8, 24, 24}, {8, 8, 16, 32}, {0, 8, 8, 8}, {0, 6, 14, 14}} {
			nl, jb, m, n := sh[0], sh[1], sh[2], sh[3]
			for q := 0; q < jb; q++ {
				b := newLUBlock[float64](rng, m, n)
				for i := 0; i < m; i++ {
					b.rows()[i+(nl+q)*b.lda] *= 0x1p-1030
				}
				got := b.clone()
				ipiv := make([]int, jb)
				if info := SmallFor[float64]().LUStep(nl, jb, m, n, got.rows(), b.lda, ipiv); info != 0 {
					t.Fatalf("info = %d", info)
				}
				if piv := got.rows()[q+(nl+q)*b.lda]; !(math.Abs(piv) < 0x1p-1022) {
					t.Fatalf("pivot %d = %v is not subnormal", q, piv)
				}
				for i := q + 1; i < m; i++ {
					if l := got.rows()[i+(nl+q)*b.lda]; !(math.Abs(l) <= 1) {
						t.Fatalf("nl=%d jb=%d m=%d: multiplier (%d,%d) = %v", nl, jb, m, i, q, l)
					}
				}
				// Against the reference the subnormal column has lost the
				// bits under 2⁻¹⁰⁷⁴: its multipliers agree to 2⁻³⁰ or so.
				want := b.clone()
				wantPiv := make([]int, jb)
				luStepRef(nl, jb, m, n, want.rows(), b.lda, wantPiv)
				for i, w := range want.data {
					if g := got.data[i]; w == w && !(math.Abs(g-w) <= 1e-8*(1+math.Abs(w))) {
						t.Fatalf("nl=%d jb=%d m=%d column %d: entry %d = %v, want %v", nl, jb, m, q, i, g, w)
					}
				}
				for k := range ipiv {
					if ipiv[k] != wantPiv[k] {
						t.Fatalf("ipiv = %v, want %v", ipiv, wantPiv)
					}
				}
			}
		}
	})
}
