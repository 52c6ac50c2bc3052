package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/testutil/diff"
)

// Tests of the 1m pack kernels of the complex AVX-512 rows (kernels1m512,
// pack512.go) against the Go packers packA1m and packB1m, which the AVX2 rows
// run: packing is data movement plus the same rounding, so the two must agree
// bit for bit (any NaN counting as equal to any other), the padding of a
// ragged panel included, and neither may write outside its panels.

// pack1mFused is the value planted in both parts of some elements: under
// alpha 0.1+0.1i their 1e real part ar·3 − ai·3 is exactly 0 with both
// products rounded, and the rounding error of ar·3 when an FMA fuses one.
const pack1mFused = 3

func pack1mAlphas[C core.Cmplx]() []C {
	return []C{1, -1, 0, C(complex(0.5, -2)), C(complex(0.1, 0.1))}
}

// pack1mOperand is a random complex operand of n elements with NaN, ±Inf and
// ±0 planted in the real and the imaginary parts, and (3, 3) elements for the
// fused-product alpha.
func pack1mOperand[C core.Cmplx, R core.Float](rng *rand.Rand, n int, view func([]C) []R) []C {
	a := randSlice[C](rng, n)
	v := view(a)
	inf := math.Inf(1)
	special := []float64{math.NaN(), inf, -inf, 0, math.Copysign(0, -1)}
	for i := 0; i < len(v); i += 7 + i%5 {
		v[i] = R(special[(i/7)%len(special)])
	}
	for i := 3; i < len(a); i += 11 {
		a[i] = C(complex(pack1mFused, pack1mFused))
	}
	return a
}

// canaried returns a slice of n elements with canaries on both sides, its
// contents stale, and a check that the canaries survived.
func canaried[C core.Cmplx](rng *rand.Rand, n int) ([]C, func() bool) {
	const pad = 64
	buf := randSlice[C](rng, n+2*pad)
	canary := append([]C(nil), buf[:pad]...)
	canary = append(canary, buf[pad+n:]...)
	return buf[pad : pad+n], func() bool {
		return diff.Same(buf[:pad], canary[:pad]) && diff.Same(buf[pad+n:], canary[pad:])
	}
}

// sameReals reports the first index at which got and want differ in value
// (any two NaNs equal), or −1.
func sameReals[R core.Float](got, want []R) int {
	for i := range want {
		if !sameValue(got[i], want[i]) {
			return i
		}
	}
	return -1
}

func testPack1m[C core.Cmplx, R core.Float](t *testing.T, kern *kernel[C], view func([]C) []R) {
	mr, nr := kern.mr, kern.nr
	_, kc, _ := blockFor(kern)
	rng := rand.New(rand.NewSource(1))

	// The fused-product case must be able to tell an FMA from two roundings.
	third := R(0.1)
	if fused := R(math.FMA(float64(third), pack1mFused, -float64(R(third*pack1mFused)))); fused == 0 {
		t.Fatalf("alpha %v on (3, 3) does not separate a fused product", third)
	}

	const i0, p0 = 3, 2
	dim := max(i0+2*nr+3, p0+kc)
	lda := dim | 1 // odd
	a := pack1mOperand[C](rng, lda*dim, view)
	for _, trans := range allTrans {
		for _, kb := range []int{1, 2, 7, kc} {
			for mb := 1; mb <= mr+1; mb++ {
				n := 2 * kb * roundUp(mb, mr)
				want := make([]C, n)
				for _, alpha := range pack1mAlphas[C]() {
					got, intact := canaried[C](rng, n)
					kern.packA(got, mr, trans, alpha, a, lda, i0, mb, p0, kb)
					packA1m(view(want), mr, trans, R(real(complex128(alpha))), R(imag(complex128(alpha))), view(a), lda, i0, mb, p0, kb)
					if i := sameReals(view(got), view(want)); i >= 0 {
						t.Fatalf("packA %v kb=%d mb=%d alpha=%v: real %d = %v, Go packer %v", trans, kb, mb, alpha, i, view(got)[i], view(want)[i])
					}
					if !intact() {
						t.Fatalf("packA %v kb=%d mb=%d alpha=%v wrote outside its panels", trans, kb, mb, alpha)
					}
				}
			}
			for _, nb := range []int{1, 2, nr - 1, nr, nr + 1, 2*nr + 3} {
				n := kb * roundUp(nb, nr)
				want := make([]C, n)
				got, intact := canaried[C](rng, n)
				kern.packB(got, nr, trans, a, lda, p0, kb, i0, nb)
				packB1m(view(want), nr, trans, view(a), lda, p0, kb, i0, nb)
				if i := sameReals(view(got), view(want)); i >= 0 {
					t.Fatalf("packB %v kb=%d nb=%d: real %d = %v, Go packer %v", trans, kb, nb, i, view(got)[i], view(want)[i])
				}
				if !intact() {
					t.Fatalf("packB %v kb=%d nb=%d wrote outside its panels", trans, kb, nb)
				}
			}
		}
	}
}

func TestPack1m(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX-512 (or LA90_NO_ASM=1): the AVX-512 rows cannot run here")
	}
	t.Run("complex128", func(t *testing.T) { testPack1m(t, &kern1m512C128, realView128) })
	t.Run("complex64", func(t *testing.T) { testPack1m(t, &kern1m512C64, realView64) })
}

// BenchmarkPack1m prices the complex AVX-512 rows' packers ("asm") against
// the Go packers on the same panels ("go"): a 120×128 block of A and a
// 128×384 block of B, per type, operand and orientation.
func BenchmarkPack1m(b *testing.B) {
	benchPack1m(b, "c128", &kern1m512C128, realView128)
	benchPack1m(b, "c64", &kern1m512C64, realView64)
}

func benchPack1m[C core.Cmplx, R core.Float](b *testing.B, name string, kern *kernel[C], view func([]C) []R) {
	const mb, nb, kb = 120, 384, 128
	mr, nr := kern.mr, kern.nr
	rng := rand.New(rand.NewSource(2))
	lda := nb + 1
	a := randSlice[C](rng, lda*nb)
	ap := make([]C, 2*kb*roundUp(mb, mr))
	bp := make([]C, kb*roundUp(nb, nr))
	alpha := C(complex(0.5, -2))
	ar, ai := R(real(complex128(alpha))), R(imag(complex128(alpha)))
	for _, trans := range allTrans {
		for _, route := range []string{"asm", "go"} {
			if route == "asm" && !useAVX512 {
				continue
			}
			packA := func() { kern.packA(ap, mr, trans, alpha, a, lda, 0, mb, 0, kb) }
			packB := func() { kern.packB(bp, nr, trans, a, lda, 0, kb, 0, nb) }
			if route == "go" {
				packA = func() { packA1m(view(ap), mr, trans, ar, ai, view(a), lda, 0, mb, 0, kb) }
				packB = func() { packB1m(view(bp), nr, trans, view(a), lda, 0, kb, 0, nb) }
			}
			for _, op := range []struct {
				name string
				pack func()
			}{{"A", packA}, {"B", packB}} {
				b.Run(fmt.Sprintf("%s/%s/%v/%s", name, op.name, trans, route), func(b *testing.B) {
					op.pack() // untimed: the first call pays the page faults
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						op.pack()
					}
				})
			}
		}
	}
}
