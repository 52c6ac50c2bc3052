package lapack

import (
	"repro/internal/blas"
	"repro/internal/core"
)

// The packed indefinite routines operate by expanding the packed triangle
// into a dense scratch triangle, running the dense Bunch–Kaufman kernels,
// and repacking. This trades the memory advantage of packed storage for a
// single shared implementation; the computed factors, pivots and info codes
// are identical to running the dense routines on the expanded matrix (see
// DESIGN.md, substitutions).

func unpackTri[T core.Scalar](uplo Uplo, n int, ap []T) []T {
	a := make([]T, n*n)
	for j := 0; j < n; j++ {
		if uplo == Upper {
			for i := 0; i <= j; i++ {
				a[i+j*n] = ap[blas.PackIdx(Upper, n, i, j)]
			}
		} else {
			for i := j; i < n; i++ {
				a[i+j*n] = ap[blas.PackIdx(Lower, n, i, j)]
			}
		}
	}
	return a
}

func repackTri[T core.Scalar](uplo Uplo, n int, a []T, ap []T) {
	for j := 0; j < n; j++ {
		if uplo == Upper {
			for i := 0; i <= j; i++ {
				ap[blas.PackIdx(Upper, n, i, j)] = a[i+j*n]
			}
		} else {
			for i := j; i < n; i++ {
				ap[blas.PackIdx(Lower, n, i, j)] = a[i+j*n]
			}
		}
	}
}

// Each packed routine has one body taking herm (false: xSP*, symmetric;
// true: xHP*, Hermitian), like the dense family in sytrf.go.

// sptrf computes the Bunch–Kaufman factorization of a symmetric (herm false,
// xSPTRF) or Hermitian (xHPTRF) matrix in packed storage.
func sptrf[T core.Scalar](herm bool, uplo Uplo, n int, ap []T, ipiv []int) int {
	a := unpackTri(uplo, n, ap)
	info := sytf2(herm, uplo, n, a, n, ipiv)
	repackTri(uplo, n, a, ap)
	return info
}

// Spsv solves A·X = B for a symmetric indefinite matrix in packed storage
// (the xSPSV driver).
func Spsv[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, ap []T, ipiv []int, b []T, ldb int) int {
	return spsv(cfg, false, uplo, n, nrhs, ap, ipiv, b, ldb)
}

// Hpsv is Spsv for a Hermitian matrix (the xHPSV driver).
func Hpsv[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, ap []T, ipiv []int, b []T, ldb int) int {
	return spsv(cfg, true, uplo, n, nrhs, ap, ipiv, b, ldb)
}

func spsv[T core.Scalar](cfg *core.Config, herm bool, uplo Uplo, n, nrhs int, ap []T, ipiv []int, b []T, ldb int) int {
	info := sptrf(herm, uplo, n, ap, ipiv)
	if info == 0 {
		sytrs(cfg, herm, uplo, n, nrhs, unpackTri(uplo, n, ap), n, ipiv, b, ldb)
	}
	return info
}

// spSystem describes the packed symmetric (herm false) or Hermitian
// indefinite matrix ap to the expert pipeline, with its Bunch–Kaufman
// factorization in afp/ipiv; the solves run on the factor expanded once.
func spSystem[T core.Scalar](cfg *core.Config, herm bool, uplo Uplo, n int, ap, afp []T, ipiv []int) *system[T] {
	mv := blas.Spmv[T]
	if herm {
		mv = blas.Hpmv[T]
	}
	var af []T
	return &system[T]{
		n: n, sym: true,
		cols: triSeg(uplo, n, ap, 0, -1),
		factor: func() int {
			copy(afp[:n*(n+1)/2], ap[:n*(n+1)/2])
			af = nil
			return sptrf(herm, uplo, n, afp, ipiv)
		},
		solve: func(_ Trans, nrhs int, x []T, ldx int) {
			if af == nil {
				af = unpackTri(uplo, n, afp)
			}
			sytrs(cfg, herm, uplo, n, nrhs, af, n, ipiv, x, ldx)
		},
		mul: func(_ Trans, alpha T, x []T, beta T, y []T) { mv(uplo, n, alpha, ap, x, 1, beta, y, 1) },
	}
}

// Spsvx is the expert driver for packed symmetric indefinite systems
// (xSPSVX); see Sysvx.
func Spsvx[T core.Scalar](cfg *core.Config, fact Fact, uplo Uplo, n, nrhs int, ap, afp []T, ipiv []int, b []T, ldb int, x []T, ldx int) SvxResult {
	return svx(spSystem(cfg, false, uplo, n, ap, afp, ipiv), fact, NoTrans, nrhs, b, ldb, x, ldx)
}

// Hpsvx is the expert driver for packed Hermitian indefinite systems
// (xHPSVX).
func Hpsvx[T core.Scalar](cfg *core.Config, fact Fact, uplo Uplo, n, nrhs int, ap, afp []T, ipiv []int, b []T, ldb int, x []T, ldx int) SvxResult {
	return svx(spSystem(cfg, true, uplo, n, ap, afp, ipiv), fact, NoTrans, nrhs, b, ldb, x, ldx)
}
