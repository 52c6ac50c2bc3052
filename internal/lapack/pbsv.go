package lapack

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
)

// Pbtrf computes the Cholesky factorization of a symmetric/Hermitian
// positive definite band matrix with kd off-diagonals (xPBTRF, unblocked
// xPBTF2 algorithm). Returns i > 0 if the leading minor of order i is not
// positive definite.
func Pbtrf[T core.Scalar](uplo Uplo, n, kd int, ab []T, ldab int) int {
	kld := max(1, ldab-1)
	if uplo == Upper {
		for j := 0; j < n; j++ {
			ajj := core.Re(ab[kd+j*ldab])
			if ajj <= 0 || math.IsNaN(ajj) {
				return j + 1
			}
			ajj = math.Sqrt(ajj)
			ab[kd+j*ldab] = core.FromFloat[T](ajj)
			kn := min(kd, n-1-j)
			if kn > 0 {
				// Row j right of the diagonal, stored with stride ldab-1.
				row := ab[kd-1+(j+1)*ldab:]
				blas.ScalReal(kn, 1/ajj, row, kld)
				lacgv(kn, row, kld)
				blas.Her(Upper, kn, -1, row, kld, ab[kd+(j+1)*ldab:], kld)
				lacgv(kn, row, kld)
			}
		}
		return 0
	}
	for j := 0; j < n; j++ {
		ajj := core.Re(ab[j*ldab])
		if ajj <= 0 || math.IsNaN(ajj) {
			return j + 1
		}
		ajj = math.Sqrt(ajj)
		ab[j*ldab] = core.FromFloat[T](ajj)
		kn := min(kd, n-1-j)
		if kn > 0 {
			col := ab[1+j*ldab:]
			blas.ScalReal(kn, 1/ajj, col, 1)
			blas.Her(Lower, kn, -1, col, 1, ab[(j+1)*ldab:], kld)
		}
	}
	return 0
}

// Pbtrs solves A·X = B using the band Cholesky factorization from Pbtrf
// (xPBTRS).
func Pbtrs[T core.Scalar](uplo Uplo, n, kd, nrhs int, ab []T, ldab int, b []T, ldb int) {
	for j := 0; j < nrhs; j++ {
		col := b[j*ldb:]
		if uplo == Upper {
			blas.Tbsv(Upper, ConjTrans, NonUnit, n, kd, ab, ldab, col, 1)
			blas.Tbsv(Upper, NoTrans, NonUnit, n, kd, ab, ldab, col, 1)
		} else {
			blas.Tbsv(Lower, NoTrans, NonUnit, n, kd, ab, ldab, col, 1)
			blas.Tbsv(Lower, ConjTrans, NonUnit, n, kd, ab, ldab, col, 1)
		}
	}
}

// Pbsv solves A·X = B for a positive definite band matrix (the xPBSV
// driver).
func Pbsv[T core.Scalar](uplo Uplo, n, kd, nrhs int, ab []T, ldab int, b []T, ldb int) int {
	info := Pbtrf(uplo, n, kd, ab, ldab)
	if info == 0 {
		Pbtrs(uplo, n, kd, nrhs, ab, ldab, b, ldb)
	}
	return info
}

// pbSystem describes the Hermitian positive definite band matrix ab (kd
// off-diagonals of the uplo triangle) to the expert pipeline, with its
// Cholesky factor in afb.
func pbSystem[T core.Scalar](uplo Uplo, n, kd int, ab []T, ldab int, afb []T, ldafb int) *system[T] {
	return &system[T]{
		n: n, sym: true, equil: true,
		cols: triSeg(uplo, n, ab, ldab, kd),
		factor: func() int {
			for j := 0; j < n; j++ {
				copy(afb[j*ldafb:j*ldafb+kd+1], ab[j*ldab:j*ldab+kd+1])
			}
			return Pbtrf(uplo, n, kd, afb, ldafb)
		},
		solve: func(_ Trans, nrhs int, x []T, ldx int) { Pbtrs(uplo, n, kd, nrhs, afb, ldafb, x, ldx) },
		mul: func(_ Trans, alpha T, x []T, beta T, y []T) {
			blas.Hbmv(uplo, n, kd, alpha, ab, ldab, x, 1, beta, y, 1)
		},
	}
}

// Pbsvx is the expert driver for positive definite band systems (xPBSVX);
// see Posvx.
func Pbsvx[T core.Scalar](fact Fact, uplo Uplo, n, kd, nrhs int, ab []T, ldab int, afb []T, ldafb int, b []T, ldb int, x []T, ldx int) SvxResult {
	return svx(pbSystem(uplo, n, kd, ab, ldab, afb, ldafb), fact, NoTrans, nrhs, b, ldb, x, ldx)
}
