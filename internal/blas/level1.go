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
		if asmF32() {
			if xs, ok := any(x).([]float32); ok {
				sscalFma(int64(n), any(alpha).(float32), &xs[0])
				return
			}
		}
		for i := 0; i < n; i++ {
			x[i] *= alpha
		}
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
		if xs, ok := any(x).([]float64); ok && asmF64() {
			ys := any(y).([]float64)
			daxpyFma(int64(n), any(alpha).(float64), &xs[0], &ys[0])
			return
		}
		if xs, ok := any(x).([]float32); ok && asmF32() {
			ys := any(y).([]float32)
			saxpyFma(int64(n), any(alpha).(float32), &xs[0], &ys[0])
			return
		}
		x, y := x[:n], y[:n]
		for i := range x {
			y[i] += alpha * x[i]
		}
		return
	}
	for i, ix, iy := 0, 0, 0; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
		y[iy] += alpha * x[ix]
	}
}

// DaxpyUnit computes y[0:n] += alpha·x[0:n] over unit-stride float64
// vectors, bypassing the generic Axpy wrapper: the small-matrix
// factorization paths issue thousands of short axpys per solve, and the
// generic entry's type switch and interface boxing are measurable at those
// lengths.
func DaxpyUnit(n int, alpha float64, x, y []float64) {
	if n <= 0 || alpha == 0 {
		return
	}
	if asmF64() {
		daxpyFma(int64(n), alpha, &x[0], &y[0])
		return
	}
	x, y = x[:n], y[:n]
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Dot computes the dot product xᵀy of two real vectors.
func Dot[T core.Float](n int, x []T, incX int, y []T, incY int) T {
	var sum T
	if n <= 0 {
		return sum
	}
	checkInc(incX)
	checkInc(incY)
	if incX == 1 && incY == 1 {
		x, y := x[:n], y[:n]
		for i := range x {
			sum += x[i] * y[i]
		}
		return sum
	}
	for i, ix, iy := 0, 0, 0; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
		sum += x[ix] * y[iy]
	}
	return sum
}

// Dotu computes the unconjugated dot product xᵀy of two vectors.
func Dotu[T core.Scalar](n int, x []T, incX int, y []T, incY int) T {
	var sum T
	if n <= 0 {
		return sum
	}
	checkInc(incX)
	checkInc(incY)
	for i, ix, iy := 0, 0, 0; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
		sum += x[ix] * y[iy]
	}
	return sum
}

// Dotc computes the conjugated dot product xᴴy; for real element types it
// equals Dot.
func Dotc[T core.Scalar](n int, x []T, incX int, y []T, incY int) T {
	var sum T
	if n <= 0 {
		return sum
	}
	checkInc(incX)
	checkInc(incY)
	for i, ix, iy := 0, 0, 0; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
		sum += core.Conj(x[ix]) * y[iy]
	}
	return sum
}

// Nrm2 returns the Euclidean norm of the n-element vector x. Unit-stride
// vectors whose plain sum of squares lands in a safe window return its
// square root (sumSquares); everything else — strided, huge, tiny, NaN or
// Inf data, no vector kernels — takes the scaled-sum-of-squares update of
// the reference xNRM2, which neither overflows nor underflows for
// representable results.
func Nrm2[T core.Scalar](n int, x []T, incX int) float64 {
	if n <= 0 {
		return 0
	}
	checkInc(incX)
	if incX == 1 {
		if s, ok := sumSquares(x[:n]); ok {
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

// sumSquares returns Σ|xᵢ|² from the FMA dot kernels (complex vectors through
// their real view) and whether it can stand in for the scaled loop: the
// kernels must be available and the sum must sit inside the window of the
// kernel's precision (1e±280 for float64 lanes, 1e±28 for float32). A sum of non-negative FMA terms is only ever wrong by
// overflow — then it is Inf, as it is for Inf input, and NaN input gives NaN —
// or by terms lost below the subnormal threshold, which cannot matter once
// the total is a factor 1/ε clear of it; both windows keep a wide margin on
// top of that.
func sumSquares[T core.Scalar](x []T) (float64, bool) {
	switch xs := any(x).(type) {
	case []float64:
		return sumSquaresF64(xs)
	case []complex128:
		return sumSquaresF64(realView128(xs))
	case []float32:
		return sumSquaresF32(xs)
	case []complex64:
		return sumSquaresF32(realView64(xs))
	}
	return 0, false
}

func sumSquaresF64(x []float64) (float64, bool) {
	if !asmF64() {
		return 0, false
	}
	s := ddotFma(int64(len(x)), &x[0], &x[0])
	return s, s > 1e-280 && s < 1e280
}

func sumSquaresF32(x []float32) (float64, bool) {
	if !asmF32() {
		return 0, false
	}
	s := float64(sdotFma(int64(len(x)), &x[0], &x[0]))
	return s, s > 1e-28 && s < 1e28
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
		// The unit-stride real cases run a branch-and-compare loop on the
		// native float type: LU pivot searches sweep whole columns through
		// here, and the per-element any-boxing of core.Abs1 is measurable.
		switch xs := any(x).(type) {
		case []float64:
			return IamaxUnitF64(n, xs)
		case []float32:
			if n >= iamaxAsmMin && asmF32() && !math.IsNaN(float64(xs[0])) {
				return int(siamaxF32(int64(n), &xs[0]))
			}
			return iamaxFloat(n, xs)
		}
	}
	best, bestVal := 0, core.Abs1(x[0])
	for i, ix := 1, incX; i < n; i, ix = i+1, ix+incX {
		if v := core.Abs1(x[ix]); v > bestVal {
			best, bestVal = i, v
		}
	}
	return best
}

// iamaxAsmMin is the vector length at which the two-pass assembly Iamax
// overtakes the single-pass scalar loop (the second pass and the call
// overhead cost roughly ten elements' worth of compares).
const iamaxAsmMin = 16

// IamaxUnitF64 is the unit-stride float64 Iamax without the generic entry's
// dispatch: the small-matrix LU calls it once per pivot column, where the
// wrapper overhead is a measurable share of the search itself. The two-pass
// vector kernel skips interior NaNs like the scalar loop but cannot
// reproduce the bestVal-poisoning of a NaN in x[0], so that case stays
// scalar. n must be positive.
func IamaxUnitF64(n int, x []float64) int {
	if n >= iamaxAsmMin && asmF64() && !math.IsNaN(x[0]) {
		return int(diamaxF64(int64(n), &x[0]))
	}
	return iamaxFloat(n, x)
}

func iamaxFloat[F float32 | float64](n int, x []F) int {
	// math.Abs compiles to a branch-free sign-bit mask; a compare-and-negate
	// here would mispredict on every sign change of random data.
	best := 0
	bestVal := math.Abs(float64(x[0]))
	for i := 1; i < n; i++ {
		if v := math.Abs(float64(x[i])); v > bestVal {
			best, bestVal = i, v
		}
	}
	return best
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
