package blas

import (
	"math"

	"repro/internal/core"
)

// The Go Level-1/2 leaves of the kernel table (kernel.go): the plain Go loop
// of every leaf, written once for all four element types. They are the
// entries of every row wherever a type has no vector kernel for a leaf (the
// portable rows run the Go twins of the vector kernels, twins.go); the
// strided forms are also what the Level-2 routines run when an operand is
// not unit-stride.
// Conjugation comes in as a flag the callers resolve once per call (false for
// real element types), so no loop here conjugates real data.

// axpyInc computes y[i·incY] += alpha·x[i] over the contiguous x, or
// −= alpha·x[i] when sub is set (for complex data not the same bits as adding
// (−alpha)·x[i]).
func axpyInc[T core.Scalar](alpha T, x, y []T, incY int, sub bool) {
	if sub {
		for i, iy := 0, 0; i < len(x); i, iy = i+1, iy+incY {
			y[iy] -= alpha * x[i]
		}
		return
	}
	for i, iy := 0, 0; i < len(x); i, iy = i+1, iy+incY {
		y[iy] += alpha * x[i]
	}
}

// axpyGo, scalGo and dotGo are the plain unit-stride loops, range loops with
// the bounds checks hoisted: the Go loops the vector kernels' non-finite
// classes are held to (TestComplexLeaves).
func axpyGo[T core.Scalar](alpha T, x, y []T) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += alpha * v
	}
}

func scalGo[T core.Scalar](alpha T, x []T) {
	for i := range x {
		x[i] *= alpha
	}
}

// axpyFrom computes y[i] += alpha·x[i·incX] into the contiguous y.
func axpyFrom[T core.Scalar](alpha T, x []T, incX int, y []T) {
	for i, ix := 0, 0; i < len(y); i, ix = i+1, ix+incX {
		y[i] += x[ix] * alpha
	}
}

// dotAcc returns sum + Σ op(x[i])·y[i·incY] over the contiguous x (sum − Σ
// when sub is set), the terms folded in one at a time in index order, or from
// the last one down when rev is set: the order and the sign are part of every
// caller's rounding. op conjugates when conj is set.
func dotAcc[T core.Scalar](sum T, x, y []T, incY int, conj, rev, sub bool) T {
	i, iy, step := 0, 0, 1
	if rev {
		i, iy, step, incY = len(x)-1, (len(x)-1)*incY, -1, -incY
	}
	// One loop per sign, and conjugation out of both: a call in the loop,
	// taken or not, or a branch on the sign costs the real types half their
	// speed.
	switch {
	case conj:
		for range x {
			if p := core.Conj(x[i]) * y[iy]; sub {
				sum -= p
			} else {
				sum += p
			}
			i, iy = i+step, iy+incY
		}
	case sub:
		for range x {
			sum -= x[i] * y[iy]
			i, iy = i+step, iy+incY
		}
	default:
		for range x {
			sum += x[i] * y[iy]
			i, iy = i+step, iy+incY
		}
	}
	return sum
}

func dotGo[T core.Scalar](x, y []T, conj bool) T {
	y = y[:len(x)]
	var sum T
	if conj {
		for i, v := range x {
			sum += core.Conj(v) * y[i]
		}
		return sum
	}
	for i, v := range x {
		sum += v * y[i]
	}
	return sum
}

// axpyDotInc is one stored column of a symmetric or Hermitian matrix–vector
// product: y[i·incY] += alpha·a[i] over the contiguous column segment a, and
// the return value is the reflected half Σ op(a[i])·x[i·incX].
func axpyDotInc[T core.Scalar](alpha T, a, x []T, incX int, y []T, incY int, conj bool) T {
	var sum T
	if conj {
		for i, ix, iy := 0, 0, 0; i < len(a); i, ix, iy = i+1, ix+incX, iy+incY {
			y[iy] += alpha * a[i]
			sum += core.Conj(a[i]) * x[ix]
		}
		return sum
	}
	for i, ix, iy := 0, 0, 0; i < len(a); i, ix, iy = i+1, ix+incX, iy+incY {
		y[iy] += alpha * a[i]
		sum += a[i] * x[ix]
	}
	return sum
}

func axpyDotGo[T core.Scalar](alpha T, a, x, y []T, conj bool) T {
	return axpyDotInc(alpha, a, x, 1, y, 1, conj)
}

// iamaxInc is the reference IxAMAX loop on the |re|+|im| measure: the first
// largest element, a NaN only ever winning from x[0].
func iamaxInc[T core.Scalar](n int, x []T, incX int) int {
	best, bestVal := 0, core.Abs1(x[0])
	for i, ix := 1, incX; i < n; i, ix = i+1, ix+incX {
		if v := core.Abs1(x[ix]); v > bestVal {
			best, bestVal = i, v
		}
	}
	return best
}

func iamaxGo[T core.Scalar](x []T) int { return iamaxInc(len(x), x, 1) }

// iamaxFloat is iamaxInc for the unit-stride real types on the native float
// type: LU pivot searches sweep whole columns through here, and the
// per-element any-boxing of core.Abs1 is measurable. math.Abs compiles to a
// branch-free sign-bit mask; a compare-and-negate here would mispredict on
// every sign change of random data.
func iamaxFloat[F core.Float](x []F) int {
	best := 0
	bestVal := math.Abs(float64(x[0]))
	for i := 1; i < len(x); i++ {
		if v := math.Abs(float64(x[i])); v > bestVal {
			best, bestVal = i, v
		}
	}
	return best
}

// iamaxAsmMin is the vector length at which the two-pass assembly Iamax of
// the real asm rows overtakes the single-pass scalar loop (the second pass
// and the call overhead cost roughly ten elements' worth of compares). The
// kernels skip interior NaNs like the scalar loop but cannot reproduce the
// bestVal-poisoning of a NaN in x[0], so that case stays scalar too.
const iamaxAsmMin = 16

// refl3Go and refl2Go apply one Householder reflector with v = (1, v2, v3)
// (v = (1, v2)) from the right to three (two) columns; t_i = τ·v_i.
func refl3Go[T core.Scalar](x0, x1, x2 []T, v2, v3, t1, t2, t3 T) {
	x1, x2 = x1[:len(x0)], x2[:len(x0)]
	for i := range x0 {
		sum := x0[i] + v2*x1[i] + v3*x2[i]
		x0[i] -= sum * t1
		x1[i] -= sum * t2
		x2[i] -= sum * t3
	}
}

func refl2Go[T core.Scalar](x0, x1 []T, v2, t1, t2 T) {
	x1 = x1[:len(x0)]
	for i := range x0 {
		sum := x0[i] + v2*x1[i]
		x0[i] -= sum * t1
		x1[i] -= sum * t2
	}
}

// refl3RowsGo and refl2RowsGo apply the same reflector from the left to the
// first three (two) rows of the n columns of h.
func refl3RowsGo[T core.Scalar](n int, h []T, ldh int, v2, v3, t1, t2, t3 T) {
	for j := 0; j < n; j++ {
		c := h[j*ldh : j*ldh+3 : j*ldh+3]
		sum := c[0] + v2*c[1] + v3*c[2]
		c[0] -= sum * t1
		c[1] -= sum * t2
		c[2] -= sum * t3
	}
}

func refl2RowsGo[T core.Scalar](n int, h []T, ldh int, v2, t1, t2 T) {
	for j := 0; j < n; j++ {
		c := h[j*ldh : j*ldh+2 : j*ldh+2]
		sum := c[0] + v2*c[1]
		c[0] -= sum * t1
		c[1] -= sum * t2
	}
}
