package blas

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/testutil/diff"
)

// Tests of the iteration kernels (iterate.go) against their link-by-link
// scalar definitions: both routes bit for bit against the loop with fused
// multiply-adds in the asm kernels' contraction order (the portable route
// runs their Go twins), and so bit for bit against each other.

// sweep calls apply for every proper rotation of a sweep in application
// order: ascending when forward, descending otherwise, identities skipped.
func sweep(forward bool, z int, c, s []float64, apply func(j int, cj, sj float64)) {
	for n := 0; n < z-1; n++ {
		j := n
		if !forward {
			j = z - 2 - n
		}
		if c[j] != 1 || s[j] != 0 {
			apply(j, c[j], s[j])
		}
	}
}

// rotSeqDef is the definition of RotSeq: one rotation at a time down two
// whole columns (the xLASR loop Steqr used before the wavefront kernels).
func rotSeqDef[T core.Scalar](forward bool, m, z int, c, s []float64, a []T, lda int) {
	sweep(forward, z, c, s, func(j int, cj, sj float64) {
		ct, st := core.FromFloat[T](cj), core.FromFloat[T](sj)
		col, col1 := a[j*lda:], a[(j+1)*lda:]
		for i := 0; i < m; i++ {
			tmp := col1[i]
			col1[i] = ct*tmp - st*col[i]
			col[i] = st*tmp + ct*col[i]
		}
	})
}

// rotSeqDefFMA is rotSeqDef in the asm kernels' contraction order: the column
// a rotation meets first in sweep order (the carried one) has its products
// fused, the other column's are rounded.
func rotSeqDefFMA[T float32 | float64](forward bool, m, z int, c, s []float64, a []T, lda int) {
	sweep(forward, z, c, s, func(j int, cj, sj float64) {
		ct, st := T(cj), T(sj)
		col, col1 := a[j*lda:], a[(j+1)*lda:]
		for i := 0; i < m; i++ {
			x, y := col[i], col1[i]
			if forward {
				col[i] = fmaT(ct, x, st*y)
				col1[i] = fmaT(-st, x, ct*y)
			} else {
				col1[i] = fmaT(ct, y, -st*x)
				col[i] = fmaT(st, y, ct*x)
			}
		}
	})
}

// fmaT is x·y + w rounded once in T: math.FMA, or fma32 for float32.
func fmaT[T float32 | float64](x, y, w T) T {
	if _, ok := any(x).(float64); ok {
		return T(math.FMA(float64(x), float64(y), float64(w)))
	}
	return fma32(x, y, w)
}

// rotSeqClose fails unless got is within 2 ulp of the block's scale per
// applied rotation of want. Entries stay below √2·max|a| ≤ 2 under
// orthogonal sweeps of a block drawn from (−1, 1).
func rotSeqClose[T core.Scalar](t *testing.T, name string, z int, got, want []T) {
	t.Helper()
	bound := 2 * float64(z-1) * 2 * core.Eps[T]()
	for i := range got {
		if d := core.ToComplex(got[i] - want[i]); math.Abs(real(d)) > bound || math.Abs(imag(d)) > bound {
			t.Fatalf("%s: element %d: got %v want %v", name, i, got[i], want[i])
		}
	}
}

// randRotations returns z−1 random plane rotations.
func randRotations(rng *rand.Rand, z int) (c, s []float64) {
	c, s = make([]float64, max(z-1, 0)), make([]float64, max(z-1, 0))
	for j := range c {
		th := 2 * math.Pi * rng.Float64()
		c[j], s[j] = math.Cos(th), math.Sin(th)
	}
	return c, s
}

var (
	rotSeqRows = []int{0, 1, 3, 15, 16, 17, 33, 384}
	rotSeqCols = []int{2, 3, 17, 384}
)

// eachRotSeqCase runs f over the shape grid, both directions, with lda > m
// and the block starting at an odd offset into its backing slice.
func eachRotSeqCase(f func(name string, forward bool, m, z, lda, off int)) {
	for _, m := range rotSeqRows {
		for _, z := range rotSeqCols {
			for _, forward := range []bool{true, false} {
				f(fmt.Sprintf("m=%d/z=%d/forward=%v", m, z, forward), forward, m, z, m+3, 7)
			}
		}
	}
}

func testRotSeqPortable[T core.Scalar](t *testing.T) {
	diff.Force(t, diff.Portable)
	rng := rand.New(rand.NewSource(41))
	eachRotSeqCase(func(name string, forward bool, m, z, lda, off int) {
		c, s := randRotations(rng, z)
		got := randSlice[T](rng, off+lda*z)
		want := append([]T(nil), got...)
		RotSeq(forward, m, z, c, s, got[off:], lda)
		switch w := any(want).(type) {
		case []float64:
			rotSeqDefFMA(forward, m, z, c, s, w[off:], lda)
		case []float32:
			rotSeqDefFMA(forward, m, z, c, s, w[off:], lda)
		default:
			// Through the real view a real·complex product is two real
			// products, not the four of the generic complex multiply.
			rotSeqDef(forward, m, z, c, s, want[off:], lda)
			rotSeqClose(t, name, z, got, want)
			return
		}
		if !diff.Same(got, want) {
			t.Errorf("%s: portable route differs from the FMA-ordered definition", name)
		}
	})
}

func TestRotSeqPortable(t *testing.T) {
	t.Run("float64", testRotSeqPortable[float64])
	t.Run("float32", testRotSeqPortable[float32])
	t.Run("complex128", testRotSeqPortable[complex128])
	t.Run("complex64", testRotSeqPortable[complex64])
}

// TestRotSeqComplexRealView pins the complex128 sweep, on whichever route
// the build selects, to the generic complex loop within 2 ulp per rotation.
func TestRotSeqComplexRealView(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	eachRotSeqCase(func(name string, forward bool, m, z, lda, off int) {
		c, s := randRotations(rng, z)
		got := randSlice[complex128](rng, off+lda*z)
		want := append([]complex128(nil), got...)
		RotSeq(forward, m, z, c, s, got[off:], lda)
		rotSeqDef(forward, m, z, c, s, want[off:], lda)
		rotSeqClose(t, name, z, got, want)
	})
}

func testRotSeqAsm[T float32 | float64](t *testing.T) {
	if !asmF64() {
		t.Skip("no AVX2+FMA kernels in this build")
	}
	rng := rand.New(rand.NewSource(43))
	eachRotSeqCase(func(name string, forward bool, m, z, lda, off int) {
		c, s := randRotations(rng, z)
		// A few identity links, so a sweep is cut into several runs.
		for j := 2; j < len(c); j += 7 {
			c[j], s[j] = 1, 0
		}
		a := randSlice[T](rng, off+lda*z)
		got := append([]T(nil), a...)
		RotSeq(forward, m, z, c, s, got[off:], lda)

		fma := append([]T(nil), a...)
		rotSeqDefFMA(forward, m, z, c, s, fma[off:], lda)
		if !diff.Same(got, fma) {
			t.Errorf("%s: asm route differs from the FMA-ordered definition", name)
		}

		// Independent of the row-block height: the same sweep five rows at a
		// time walks every element through a one-vector block or the scalar
		// tail instead of the eight- and four-vector blocks.
		strips := append([]T(nil), a...)
		for i := 0; i < m; i += 5 {
			RotSeq(forward, min(5, m-i), z, c, s, strips[off+i:], lda)
		}
		if !diff.Same(got, strips) {
			t.Errorf("%s: asm result depends on the row blocking", name)
		}

		// Against the portable route, which runs the kernels' Go twins: bit
		// for bit.
		port := append([]T(nil), a...)
		faultinject.ForcePortable(true)
		RotSeq(forward, m, z, c, s, port[off:], lda)
		faultinject.ForcePortable(false)
		if !diff.Same(got, port) {
			t.Errorf("%s: the portable route differs from the asm route", name)
		}
	})
}

func TestRotSeqAsm(t *testing.T) {
	t.Run("float64", testRotSeqAsm[float64])
	t.Run("float32", testRotSeqAsm[float32])
}

// TestRotSeqIdentityAndSpecials: identity rotations leave every bit alone
// (signed zeros, NaN payloads and infinities included), and a NaN or Inf in
// one column spreads to the same elements, with the same class, on both
// routes — neither skips a rotation the other applies.
func TestRotSeqIdentityAndSpecials(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const m, z, lda = 37, 9, 40
	class := func(v float64) int {
		switch {
		case math.IsNaN(v):
			return 3
		case math.IsInf(v, 1):
			return 2
		case math.IsInf(v, -1):
			return 1
		}
		return 0
	}
	diff.Rows(t, func(t *testing.T) {
		for _, forward := range []bool{true, false} {
			a := randSlice[float64](rng, lda*z)
			a[3], a[5+lda], a[7+2*lda], a[9+3*lda] = math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)
			got := append([]float64(nil), a...)
			c, s := make([]float64, z-1), make([]float64, z-1)
			for j := range c {
				c[j], s[j] = 1, math.Copysign(0, -1)
			}
			RotSeq(forward, m, z, c, s, got, lda)
			if !diff.Same(got, a) {
				t.Errorf("forward=%v: identity sweep changed the block", forward)
			}

			c, s = randRotations(rng, z)
			for _, special := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				b := append([]float64(nil), a[:lda*z]...)
				b[3], b[5+lda], b[7+2*lda], b[9+3*lda] = 0.5, 0.5, 0.5, 0.5
				b[11+4*lda], b[20+4*lda] = special, special
				want := append([]float64(nil), b...)
				RotSeq(forward, m, z, c, s, b, lda)
				rotSeqDef(forward, m, z, c, s, want, lda)
				for i := range b {
					if class(b[i]) != class(want[i]) {
						t.Fatalf("forward=%v special=%v: element %d is %v, definition gives %v", forward, special, i, b[i], want[i])
					}
				}
			}
		}
	})
}

// refl3Def is the definition of Refl3 (and, with x2 nil, of Refl2): the
// scalar loop of the double-shift sweep. With fma set it is the same loop in
// drefl3Fma's contraction order: the sum accumulated by fused multiply-adds
// in column order, each column updated by one.
func refl3Def(fma bool, m int, x0, x1, x2 []float64, v2, v3, t1, t2, t3 float64) {
	for i := 0; i < m; i++ {
		var sum float64
		switch {
		case x2 == nil && fma:
			sum = math.FMA(v2, x1[i], x0[i])
		case x2 == nil:
			sum = x0[i] + v2*x1[i]
		case fma:
			sum = math.FMA(v3, x2[i], math.FMA(v2, x1[i], x0[i]))
		default:
			sum = x0[i] + v2*x1[i] + v3*x2[i]
		}
		if fma {
			x0[i] = math.FMA(-sum, t1, x0[i])
			x1[i] = math.FMA(-sum, t2, x1[i])
			if x2 != nil {
				x2[i] = math.FMA(-sum, t3, x2[i])
			}
			continue
		}
		x0[i] -= sum * t1
		x1[i] -= sum * t2
		if x2 != nil {
			x2[i] -= sum * t3
		}
	}
}

// TestRefl3 checks both reflector kernels on every row: bit for bit against
// the definition in drefl3Fma's contraction order, to rounding against the
// plain scalar loop, at every row count around the 4- and 8-row vector
// blocks, on columns that start at odd offsets of a padded block, and with a
// NaN and an infinity in a column ending up in the same elements as the
// definition puts them.
func TestRefl3(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	diff.Rows(t, func(t *testing.T) {
		for _, cols := range []int{3, 2} {
			for _, m := range rotSeqRows {
				for _, special := range []float64{0, math.NaN(), math.Inf(-1)} {
					lda, off := m+5, 3
					a := randSlice[float64](rng, off+3*lda)
					if special != 0 && m > 2 {
						a[off+lda+m/2] = special
					}
					v2, v3 := rng.Float64()-0.5, rng.Float64()-0.5
					if cols == 2 {
						v3 = 0
					}
					t1 := 2 / (1 + v2*v2 + v3*v3)
					t2, t3 := t1*v2, t1*v3
					apply := func(f func(x0, x1, x2 []float64)) []float64 {
						b := append([]float64(nil), a...)
						x2 := b[off+2*lda:]
						if cols == 2 {
							x2 = nil
						}
						f(b[off:], b[off+lda:], x2)
						return b
					}
					name := fmt.Sprintf("cols=%d/m=%d/special=%v", cols, m, special)
					got := apply(func(x0, x1, x2 []float64) {
						if x2 == nil {
							Refl2(m, x0, x1, v2, t1, t2)
						} else {
							Refl3(m, x0, x1, x2, v2, v3, t1, t2, t3)
						}
					})
					fused := apply(func(x0, x1, x2 []float64) { refl3Def(true, m, x0, x1, x2, v2, v3, t1, t2, t3) })
					if !slices.EqualFunc(got, fused, sameValue[float64]) {
						t.Errorf("%s: differs from the FMA-ordered definition", name)
					}
					plain := apply(func(x0, x1, x2 []float64) { refl3Def(false, m, x0, x1, x2, v2, v3, t1, t2, t3) })
					for i := range got {
						if special == 0 && math.Abs(got[i]-plain[i]) > 8*core.EpsDouble {
							t.Fatalf("%s: element %d: %v, plain loop %v", name, i, got[i], plain[i])
						}
					}
				}
			}
		}
	})
}
