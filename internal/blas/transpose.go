package blas

import "repro/internal/core"

// transposeBlock is the square cache tile the out-of-place transpose walks:
// 32×32 float64 elements are two 8 KiB panels, so both the row-major reads
// and the column-major writes of a tile stay resident in L1.
const transposeBlock = 32

// ConjTransposeTo writes dst = srcᴴ for an m×n column-major matrix src
// (leading dimension lds); dst is n×m with leading dimension ldd. The copy
// runs over square cache tiles — the same blocking idiom the GEMM pack
// kernels use — instead of a strided element-by-element sweep, so one of
// the two access patterns in every tile is contiguous.
func ConjTransposeTo[T core.Scalar](m, n int, src []T, lds int, dst []T, ldd int) {
	cplx := core.IsComplex[T]()
	for j0 := 0; j0 < n; j0 += transposeBlock {
		j1 := min(j0+transposeBlock, n)
		for i0 := 0; i0 < m; i0 += transposeBlock {
			i1 := min(i0+transposeBlock, m)
			for j := j0; j < j1; j++ {
				col := src[j*lds:]
				for i := i0; i < i1; i++ {
					v := col[i]
					if cplx { // hoisted: Conj on real data is a type switch per element
						v = core.Conj(v)
					}
					dst[j+i*ldd] = v
				}
			}
		}
	}
}

// ConvertF64 copies the m×n column-major float64 matrix src (leading
// dimension lds) into the T matrix dst (leading dimension ldd). For complex
// T the imaginary parts are zero. This is the precision hop Gesdd crosses
// once per drive: the bidiagonal singular vectors are accumulated in f64 by
// Bdsdc and converted here so they can be applied to the Orgbr bases with
// one T-typed GEMM each.
func ConvertF64[T core.Scalar](m, n int, src []float64, lds int, dst []T, ldd int) {
	for j := 0; j < n; j++ {
		s := src[j*lds : j*lds+m]
		d := dst[j*ldd : j*ldd+m]
		for i, v := range s {
			d[i] = core.FromFloat[T](v)
		}
	}
}
