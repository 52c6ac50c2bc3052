package lapack

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
)

// Pptrf computes the Cholesky factorization of a symmetric/Hermitian
// positive definite matrix in packed storage (xPPTRF). Returns i > 0 if the
// leading minor of order i is not positive definite.
func Pptrf[T core.Scalar](uplo Uplo, n int, ap []T) int {
	if uplo == Upper {
		for j := 0; j < n; j++ {
			jc := j * (j + 1) / 2
			// Column solve: Uᴴ(0:j,0:j)·u_j = a_j.
			if j > 0 {
				blas.Tpsv(Upper, ConjTrans, NonUnit, j, ap, ap[jc:], 1)
			}
			ajj := core.Re(ap[jc+j]) - core.Re(blas.Dotc(j, ap[jc:], 1, ap[jc:], 1))
			if ajj <= 0 || math.IsNaN(ajj) {
				ap[jc+j] = core.FromFloat[T](ajj)
				return j + 1
			}
			ap[jc+j] = core.FromFloat[T](math.Sqrt(ajj))
		}
		return 0
	}
	jj := 0
	for j := 0; j < n; j++ {
		ajj := core.Re(ap[jj])
		if ajj <= 0 || math.IsNaN(ajj) {
			return j + 1
		}
		ajj = math.Sqrt(ajj)
		ap[jj] = core.FromFloat[T](ajj)
		if j < n-1 {
			blas.ScalReal(n-j-1, 1/ajj, ap[jj+1:], 1)
			blas.Hpr(Lower, n-j-1, -1, ap[jj+1:], 1, ap[jj+n-j:])
		}
		jj += n - j
	}
	return 0
}

// Pptrs solves A·X = B using the packed Cholesky factorization from Pptrf
// (xPPTRS).
func Pptrs[T core.Scalar](uplo Uplo, n, nrhs int, ap []T, b []T, ldb int) {
	if n == 0 {
		return // B has no elements, and may have no storage
	}
	for j := 0; j < nrhs; j++ {
		col := b[j*ldb:]
		if uplo == Upper {
			blas.Tpsv(Upper, ConjTrans, NonUnit, n, ap, col, 1)
			blas.Tpsv(Upper, NoTrans, NonUnit, n, ap, col, 1)
		} else {
			blas.Tpsv(Lower, NoTrans, NonUnit, n, ap, col, 1)
			blas.Tpsv(Lower, ConjTrans, NonUnit, n, ap, col, 1)
		}
	}
}

// Ppsv solves A·X = B for a positive definite matrix in packed storage (the
// xPPSV driver).
func Ppsv[T core.Scalar](uplo Uplo, n, nrhs int, ap []T, b []T, ldb int) int {
	info := Pptrf(uplo, n, ap)
	if info == 0 {
		Pptrs(uplo, n, nrhs, ap, b, ldb)
	}
	return info
}

// ppSystem describes the packed Hermitian positive definite matrix ap to the
// expert pipeline, with its Cholesky factor in afp.
func ppSystem[T core.Scalar](uplo Uplo, n int, ap, afp []T) *system[T] {
	return &system[T]{
		n: n, sym: true, equil: true,
		cols: triSeg(uplo, n, ap, 0, -1),
		factor: func() int {
			copy(afp[:n*(n+1)/2], ap[:n*(n+1)/2])
			return Pptrf(uplo, n, afp)
		},
		solve: func(_ Trans, nrhs int, x []T, ldx int) { Pptrs(uplo, n, nrhs, afp, x, ldx) },
		mul:   func(_ Trans, alpha T, x []T, beta T, y []T) { blas.Hpmv(uplo, n, alpha, ap, x, 1, beta, y, 1) },
	}
}

// Ppsvx is the expert driver for packed positive definite systems (xPPSVX);
// see Posvx.
func Ppsvx[T core.Scalar](fact Fact, uplo Uplo, n, nrhs int, ap, afp []T, b []T, ldb int, x []T, ldx int) SvxResult {
	return svx(ppSystem(uplo, n, ap, afp), fact, NoTrans, nrhs, b, ldb, x, ldx)
}
