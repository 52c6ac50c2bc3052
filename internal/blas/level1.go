package blas

import (
	"math"

	"repro/internal/core"
)

// Swap interchanges the n-element vectors x and y.
func Swap[T core.Scalar](n int, x []T, incX int, y []T, incY int) {
	if n <= 0 {
		return
	}
	checkInc(incX)
	checkInc(incY)
	if incX == 1 && incY == 1 {
		for i := 0; i < n; i++ {
			x[i], y[i] = y[i], x[i]
		}
		return
	}
	for i, ix, iy := 0, 0, 0; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
		x[ix], y[iy] = y[iy], x[ix]
	}
}

// Scal scales the n-element vector x by alpha: x = alpha*x.
func Scal[T core.Scalar](n int, alpha T, x []T, incX int) {
	if n <= 0 {
		return
	}
	checkInc(incX)
	if incX == 1 {
		kernelFor[T]().scal(alpha, x[:n])
		return
	}
	for i, ix := 0, 0; i < n; i, ix = i+1, ix+incX {
		x[ix] *= alpha
	}
}

// ScalReal scales a vector by a real scalar, the xDSCAL/xSSCAL-on-complex
// operation used by the eigenvalue and SVD routines.
func ScalReal[T core.Scalar](n int, alpha float64, x []T, incX int) {
	Scal(n, core.FromFloat[T](alpha), x, incX)
}

// Copy copies the n-element vector x into y.
func Copy[T core.Scalar](n int, x []T, incX int, y []T, incY int) {
	if n <= 0 {
		return
	}
	checkInc(incX)
	checkInc(incY)
	if incX == 1 && incY == 1 {
		copy(y[:n], x[:n])
		return
	}
	for i, ix, iy := 0, 0, 0; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
		y[iy] = x[ix]
	}
}

// Axpy computes y = alpha*x + y.
func Axpy[T core.Scalar](n int, alpha T, x []T, incX int, y []T, incY int) {
	if n <= 0 || alpha == 0 {
		return
	}
	checkInc(incX)
	checkInc(incY)
	if incX == 1 && incY == 1 {
		kernelFor[T]().axpy(alpha, x[:n], y)
		return
	}
	for i, ix, iy := 0, 0, 0; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
		y[iy] += alpha * x[ix]
	}
}

// Dot computes the dot product xᵀy of two real vectors.
func Dot[T core.Float](n int, x []T, incX int, y []T, incY int) T {
	return dot(n, x, incX, y, incY, false)
}

// Dotu computes the unconjugated dot product xᵀy of two vectors.
func Dotu[T core.Scalar](n int, x []T, incX int, y []T, incY int) T {
	return dot(n, x, incX, y, incY, false)
}

// Dotc computes the conjugated dot product xᴴy; for real element types it
// equals Dot.
func Dotc[T core.Scalar](n int, x []T, incX int, y []T, incY int) T {
	return dot(n, x, incX, y, incY, core.IsComplex[T]())
}

func dot[T core.Scalar](n int, x []T, incX int, y []T, incY int, conj bool) T {
	if n <= 0 {
		return 0
	}
	checkInc(incX)
	checkInc(incY)
	var sum T
	if conj { // its own loop: a call in the body slows the real types' loop too
		for i, ix, iy := 0, 0, 0; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
			sum += core.Conj(x[ix]) * y[iy]
		}
		return sum
	}
	for i, ix, iy := 0, 0, 0; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
		sum += x[ix] * y[iy]
	}
	return sum
}

// Nrm2 returns the Euclidean norm of the n-element vector x. Unit-stride
// vectors whose plain sum of squares lands in a safe window return its
// square root (the sumSq leaf of the kernel table); everything else —
// strided, huge, tiny, NaN or
// Inf data, no vector kernels — takes the scaled-sum-of-squares update of
// the reference xNRM2, which neither overflows nor underflows for
// representable results.
func Nrm2[T core.Scalar](n int, x []T, incX int) float64 {
	if n <= 0 {
		return 0
	}
	checkInc(incX)
	if k := kernelFor[T](); incX == 1 && k.sumSq != nil {
		if s, ok := k.sumSq(x[:n]); ok {
			return math.Sqrt(s)
		}
	}
	return nrm2Scaled(n, x, incX)
}

// nrm2Scaled is the reference xNRM2 loop: one compare, one divide and a
// dependent update per element, safe over the whole exponent range.
func nrm2Scaled[T core.Scalar](n int, x []T, incX int) float64 {
	scale, ssq := 0.0, 1.0
	for i, ix := 0, 0; i < n; i, ix = i+1, ix+incX {
		updateSSQ(core.Re(x[ix]), &scale, &ssq)
		if core.IsComplex[T]() {
			updateSSQ(core.Im(x[ix]), &scale, &ssq)
		}
	}
	return scale * math.Sqrt(ssq)
}

func updateSSQ(v float64, scale, ssq *float64) {
	if v == 0 {
		return
	}
	av := math.Abs(v)
	if *scale < av {
		r := *scale / av
		*ssq = 1 + *ssq*r*r
		*scale = av
	} else {
		r := av / *scale
		*ssq += r * r
	}
}

// Asum returns the sum of |re(x_i)| + |im(x_i)| over the vector (the
// reference xASUM measure; for real types this is the 1-norm).
func Asum[T core.Scalar](n int, x []T, incX int) float64 {
	if n <= 0 {
		return 0
	}
	checkInc(incX)
	sum := 0.0
	for i, ix := 0, 0; i < n; i, ix = i+1, ix+incX {
		sum += core.Abs1(x[ix])
	}
	return sum
}

// Iamax returns the index of the element of x with the largest |re|+|im|
// measure, or -1 if n <= 0. Ties resolve to the first occurrence, as in the
// reference IxAMAX.
func Iamax[T core.Scalar](n int, x []T, incX int) int {
	if n <= 0 {
		return -1
	}
	checkInc(incX)
	if incX == 1 {
		return kernelFor[T]().iamax(x[:n])
	}
	return iamaxInc(n, x, incX)
}

// Rotg constructs a Givens plane rotation: given a and b it computes c, s, r
// and z such that [c s; -s c]ᵀ[a; b] = [r; 0], following the reference
// xROTG. On return a holds r and b holds z.
func Rotg[T core.Float](a, b *T) (c, s T) {
	fa, fb := float64(*a), float64(*b)
	roe := fb
	if math.Abs(fa) > math.Abs(fb) {
		roe = fa
	}
	scale := math.Abs(fa) + math.Abs(fb)
	var r, z, cc, ss float64
	if scale == 0 {
		cc, ss, r, z = 1, 0, 0, 0
	} else {
		ra, rb := fa/scale, fb/scale
		r = scale * math.Sqrt(ra*ra+rb*rb)
		r = core.Sign(1, roe) * r
		cc = fa / r
		ss = fb / r
		z = 1
		if math.Abs(fa) > math.Abs(fb) {
			z = ss
		}
		if math.Abs(fb) >= math.Abs(fa) && cc != 0 {
			z = 1 / cc
		}
	}
	*a = T(r)
	*b = T(z)
	return T(cc), T(ss)
}

// Rot applies a plane rotation to the vectors x and y:
// (x_i, y_i) = (c*x_i + s*y_i, c*y_i - s*x_i).
func Rot[T core.Float](n int, x []T, incX int, y []T, incY int, c, s T) {
	if n <= 0 {
		return
	}
	checkInc(incX)
	checkInc(incY)
	for i, ix, iy := 0, 0, 0; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
		tx := c*x[ix] + s*y[iy]
		y[iy] = c*y[iy] - s*x[ix]
		x[ix] = tx
	}
}

// RotG applies a real plane rotation to vectors of any element type (the
// xROT form used on complex data by the eigenvalue routines, with real c
// and s).
func RotG[T core.Scalar](n int, x []T, incX int, y []T, incY int, c, s float64) {
	if n <= 0 {
		return
	}
	checkInc(incX)
	checkInc(incY)
	ct, st := core.FromFloat[T](c), core.FromFloat[T](s)
	for i, ix, iy := 0, 0, 0; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
		tx := ct*x[ix] + st*y[iy]
		y[iy] = ct*y[iy] - st*x[ix]
		x[ix] = tx
	}
}
