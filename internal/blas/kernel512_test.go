package blas

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// Tests of the AVX-512 micro-kernels (gemmkernel512_amd64.s) below the
// engine: every rows×cols part of a tile must be, exactly, the chain of fused
// multiply-adds over p added once to C, and nothing outside it may be touched.

// fmaRef returns x·y + z rounded once to T's precision. For float32 the
// product is exact in float64 but its sum with z need not be, and rounding
// that twice can miss; the finite case is summed exactly instead.
func fmaRef[T core.Float](x, y, z T) T {
	r := math.FMA(float64(x), float64(y), float64(z))
	if _, single := any(z).(float32); !single || math.IsNaN(r) || math.IsInf(r, 0) {
		return T(r)
	}
	s := new(big.Float).SetPrec(400).SetFloat64(float64(x) * float64(y))
	f, _ := s.Add(s, big.NewFloat(float64(z))).Float32()
	return T(f)
}

// TestFma32 holds fma32, the float32 FMA of the portable rows' twins, to
// fmaRef: products whose float64 sum lands exactly on a float32 halfway point
// with the exact sum a hair off it (where rounding twice goes wrong), subnormal
// results, overflow, signed zeros, NaN and Inf — and random operands over the
// whole exponent range, subnormal ones included.
func TestFma32(t *testing.T) {
	p := func(e int) float32 { return float32(math.Ldexp(1, e)) }
	m := float32(math.MaxFloat32)
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negz := float32(math.Copysign(0, -1))
	x := 1 + p(-12) // x·x = 1 + 2⁻¹¹ + 2⁻²⁴, a float32 halfway point
	s := 3 * p(-76) // s·2⁻⁷⁴ = 1.5·2⁻¹⁴⁹, halfway between the two smallest subnormals
	cases := [][3]float32{
		{x, x, 0}, {x, x, p(-80)}, {x, x, -p(-80)}, {-x, x, p(-80)}, {x, -x, -p(-80)},
		{s, p(-74), 0}, {s, p(-74), p(-149)}, {s, -p(-74), p(-149)}, {p(-70), p(-70), 0},
		{p(-75), p(-75), p(-149)}, {p(-126), 0.5, p(-149)}, {3 * p(-75), p(-75), -p(-149)},
		{p(100), p(100), 0}, {m, 1, m}, {m, -1, -m}, {m, 1 + p(-23), -m}, {m, 2, -m},
		{negz, 1, 0}, {negz, 1, negz}, {1, -1, 1}, {negz, negz, negz}, {0, negz, negz},
		{inf, 0, 1}, {inf, 1, -inf}, {inf, 2, 1}, {-inf, 2, inf}, {nan, 1, 1}, {1, 1, nan}, {0, inf, nan},
	}
	rng := rand.New(rand.NewSource(70))
	for range 20000 {
		r := func() float32 { return float32(math.Ldexp(rng.Float64()-0.5, rng.Intn(300)-150)) }
		cases = append(cases, [3]float32{r(), r(), r()})
	}
	for _, c := range cases {
		if got, want := fma32(c[0], c[1], c[2]), fmaRef(c[0], c[1], c[2]); !sameValue(got, want) {
			t.Errorf("fma32(%g, %g, %g) = %g (%#08x), want %g (%#08x)", c[0], c[1], c[2], got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
	// The portable float32 micro-tile takes its chains on a fast path that
	// must hand over where a sum lands on a halfway point: 2⁻⁸⁰ from the
	// first step, then ±x·x.
	const mr, kb = asmF32MR, 2
	ap, bp, c := make([]float32, mr*kb), make([]float32, 4*kb), make([]float32, mr*4)
	for i := range mr {
		ap[i], ap[mr+i] = p(-40), x*float32(1-2*(i%2))
	}
	for j := range 4 {
		bp[j], bp[4+j] = p(-40), x
	}
	gemmKernelFma[float32](mr)(kb, ap, bp, c, mr)
	for j := range 4 {
		for i := range mr {
			if want := fmaRef(bp[4+j], ap[mr+i], fmaRef(bp[j], ap[i], 0)); c[j*mr+i] != want {
				t.Errorf("micro-tile (%d, %d) = %g, want %g", i, j, c[j*mr+i], want)
			}
		}
	}
}

// sameValue is bit equality, with any NaN equal to any other: which NaN a
// chain ends in (its sign and payload) is the hardware's and the operand
// order's choice.
func sameValue[T core.Float](a, b T) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b)) || (a != a && b != b)
}

// kernel512Case is one pair of packed panels: the finite one, one with
// non-finite values in A at the first, an interior and the last row against
// zeros in B, and one with non-finite values in B, one of them in the last
// column.
func kernel512Case[T core.Float](rng *rand.Rand, plant string, mr, nr, kb int) (ap, bp []T) {
	ap, bp = randSlice[T](rng, mr*kb), randSlice[T](rng, nr*kb)
	inf := T(math.Inf(1))
	nan := inf - inf
	switch plant {
	case "A":
		for i, r := range []int{0, mr / 2, mr - 1} {
			p := i * (kb - 1) / 2
			ap[p*mr+r] = []T{nan, inf, nan}[i]
			clear(bp[p*nr : p*nr+nr])
		}
	case "B":
		bp[(kb/2)*nr+min(1, nr-1)] = nan
		bp[(kb-1)*nr+nr-1] = inf
	}
	return ap, bp
}

func testKernel512[T core.Float](t *testing.T, kern *kernel[T]) {
	mr, nr := kern.mr, kern.nr
	rng := rand.New(rand.NewSource(512))
	ldc := mr + 2
	for _, kb := range []int{1, 7, 256} {
		for _, plant := range []string{"", "A", "B"} {
			ap, bp := kernel512Case[T](rng, plant, mr, nr, kb)
			ref := make([]T, mr*nr)
			for j := 0; j < nr; j++ {
				for i := 0; i < mr; i++ {
					var acc T
					for p := 0; p < kb; p++ {
						acc = fmaRef(ap[p*mr+i], bp[p*nr+j], acc)
					}
					ref[i+j*mr] = acc
				}
			}
			for rows := 1; rows <= mr; rows++ {
				for cols := 1; cols <= nr; cols++ {
					a := ap
					if plant == "B" {
						// As the packers leave a ragged panel: the rows past
						// the operand zero, so 0·NaN arises in the dead lanes.
						a = append([]T(nil), ap...)
						for p := 0; p < kb; p++ {
							clear(a[p*mr+rows : p*mr+mr])
						}
					}
					// A column of canaries, then the tile, which either ends
					// on the last element of the slice or has another column
					// of canaries after it; the ldc−rows elements under each
					// column are canaries too.
					for _, after := range []int{0, ldc} {
						c0 := randSlice[T](rng, ldc+(cols-1)*ldc+rows+after)
						c := append([]T(nil), c0...)
						name := fmt.Sprintf("kb=%d plant=%q %dx%d after=%d", kb, plant, rows, cols, after)
						kern.edge(kb, mr, nr, a, bp, c[ldc:], ldc, rows, cols, nil)
						checkTile(t, name+" edge", c, c0, ref, ldc, mr, rows, cols)
						if rows == mr && cols == nr {
							c = append(c[:0], c0...)
							kern.micro(kb, a, bp, c[ldc:], ldc)
							checkTile(t, name+" micro", c, c0, ref, ldc, mr, rows, cols)
						}
					}
				}
			}
		}
	}
}

// checkTile compares c, which was c0 before the kernel ran on the tile
// starting at c[ldc], with c0 + ref inside the rows×cols tile and with c0
// everywhere else.
func checkTile[T core.Float](t *testing.T, name string, c, c0, ref []T, ldc, mr, rows, cols int) {
	t.Helper()
	for idx := range c {
		i, j := idx%ldc, idx/ldc-1
		want := c0[idx]
		if inside := j >= 0 && j < cols && i < rows; inside {
			want += ref[i+j*mr]
		} else if math.Float64bits(float64(c[idx])) != math.Float64bits(float64(want)) {
			t.Fatalf("%s: element (%d,%d) outside the tile went from %v to %v", name, i, j, want, c[idx])
		}
		if !sameValue(c[idx], want) {
			t.Fatalf("%s: C(%d,%d) = %v, want %v", name, i, j, c[idx], want)
		}
	}
}

func TestKernel512(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX-512 (or LA90_NO_ASM=1): the AVX-512 rows cannot run here")
	}
	t.Run("float64", func(t *testing.T) { testKernel512(t, &kern512F64) })
	t.Run("float32", func(t *testing.T) { testKernel512(t, &kern512F32) })
}
