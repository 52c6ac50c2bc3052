package la

// Mixed-precision opt-in for the linear-system drivers.
//
// With WithMixed (per call) or LA90_MIXED=1 (process, read at startup),
// LA_GESV and LA_POSV on float64/complex128 data factor a
// float32/complex64 demotion of A — riding the f32 GEMM kernels at roughly
// twice the f64 flop rate — and recover full float64 accuracy by iterative
// refinement (see internal/lapack/mixed.go for the convergence criterion
// and the silent-fallback policy). The solution delivered in B carries a
// backward error of at most n·eps64, the same class as the plain float64
// path; when the low-precision route cannot deliver (singular or
// ill-conditioned beyond float32, non-finite intermediates, stalled
// refinement) the driver silently re-solves with the full float64
// factorization, bit-identical to the plain driver.
//
// Two observable differences from the plain path, both covered by the
// opt-in: on a converged mixed solve A is returned unchanged instead of
// holding the float64 factors (a fallback leaves the float64 factors,
// exactly like the plain driver), and GESV's ipiv holds the pivots of
// whichever factorization ran. float32/complex64 element types have no
// lower precision to factor in; they silently use the plain path.

import (
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
)

// WithMixed enables the mixed-precision path for this call: factor in
// float32/complex64, refine the solution to full precision, silently fall
// back to the plain float64 factorization when refinement cannot deliver.
func WithMixed() Opt { return func(o *options) { o.mixed = true } }

// mixedGesv runs the mixed-precision engine for GESV when the element type
// has a lower-precision partner, writing the solution back into b.
// ok == false means the element type has no mixed route (float32/complex64)
// and the caller should run the plain path.
func mixedGesv[T Scalar](cfg *core.Config, a, b *Matrix[T], ipiv []int) (iter, info int, ok bool) {
	n, nrhs := a.Rows, b.Cols
	x := blas.GetScratch[T](n * nrhs)
	defer blas.PutScratch(x)
	ldx := max(1, n)
	switch ad := any(a.Data).(type) {
	case []float64:
		iter, info = lapack.GesvMixed(cfg, n, nrhs, ad, a.Stride, ipiv,
			any(b.Data).([]float64), b.Stride, any(x).([]float64), ldx)
	case []complex128:
		iter, info = lapack.GesvMixed(cfg, n, nrhs, ad, a.Stride, ipiv,
			any(b.Data).([]complex128), b.Stride, any(x).([]complex128), ldx)
	default:
		return 0, 0, false
	}
	if info == 0 {
		lapack.Lacpy('A', n, nrhs, x, ldx, b.Data, b.Stride)
	}
	return iter, info, true
}

// mixedPosv is mixedGesv for the Cholesky driver.
func mixedPosv[T Scalar](cfg *core.Config, uplo UpLo, a, b *Matrix[T]) (iter, info int, ok bool) {
	n, nrhs := a.Rows, b.Cols
	x := blas.GetScratch[T](n * nrhs)
	defer blas.PutScratch(x)
	ldx := max(1, n)
	switch ad := any(a.Data).(type) {
	case []float64:
		iter, info = lapack.PosvMixed(cfg, uplo, n, nrhs, ad, a.Stride,
			any(b.Data).([]float64), b.Stride, any(x).([]float64), ldx)
	case []complex128:
		iter, info = lapack.PosvMixed(cfg, uplo, n, nrhs, ad, a.Stride,
			any(b.Data).([]complex128), b.Stride, any(x).([]complex128), ldx)
	default:
		return 0, 0, false
	}
	if info == 0 {
		lapack.Lacpy('A', n, nrhs, x, ldx, b.Data, b.Stride)
	}
	return iter, info, true
}
