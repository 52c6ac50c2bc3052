package blas

import "repro/internal/core"

// Band storage convention (identical to the reference BLAS/LAPACK): an m×n
// band matrix with kl sub-diagonals and ku super-diagonals is stored in a
// column-major array ab with leading dimension ldab >= kl+ku+1, where
// element (i, j) of the matrix lives at ab[ku+i-j + j*ldab] for
// max(0, j-ku) <= i <= min(m-1, j+kl).

// Gbmv computes y = alpha*op(A)*x + beta*y for an m×n band matrix A with kl
// sub- and ku super-diagonals.
func Gbmv[T core.Scalar](trans Trans, m, n, kl, ku int, alpha T, ab []T, ldab int, x []T, incX int, beta T, y []T, incY int) {
	if m == 0 || n == 0 {
		return
	}
	checkLD(kl+ku+1, ldab)
	checkInc(incX)
	checkInc(incY)
	lenY := m
	if trans != NoTrans {
		lenY = n
	}
	for i, iy := 0, 0; i < lenY; i, iy = i+1, iy+incY {
		if beta == 0 {
			y[iy] = 0
		} else {
			y[iy] *= beta
		}
	}
	if alpha == 0 {
		return
	}
	conj := realTrans[T](trans) == ConjTrans
	for j := 0; j < n; j++ {
		lo := max(0, j-ku)
		hi := min(m-1, j+kl)
		var col []T // empty when column j lies wholly outside the band
		if hi >= lo {
			col = ab[j*ldab+ku+lo-j : j*ldab+ku+hi-j+1]
		}
		if trans == NoTrans {
			axpyInc(alpha*x[j*incX], col, from(y, lo, incY), incY, false)
		} else {
			y[j*incY] += alpha * dotAcc(0, col, from(x, lo, incX), incX, conj, false, false)
		}
	}
}

func bandTri[T core.Scalar](uplo Uplo, n, k int, ab []T, ldab int) *triCols[T] {
	if n > 0 {
		checkLD(k+1, ldab)
	}
	return &triCols[T]{ab, uplo, n, ldab, k}
}

// Sbmv computes y = alpha*A*x + beta*y for a symmetric band matrix A with k
// super-diagonals stored in the uplo triangle of band storage.
func Sbmv[T core.Scalar](uplo Uplo, n, k int, alpha T, ab []T, ldab int, x []T, incX int, beta T, y []T, incY int) {
	symHemv(bandTri(uplo, n, k, ab, ldab), alpha, x, incX, beta, y, incY, false)
}

// Hbmv is the Hermitian band analogue of Sbmv.
func Hbmv[T core.Scalar](uplo Uplo, n, k int, alpha T, ab []T, ldab int, x []T, incX int, beta T, y []T, incY int) {
	symHemv(bandTri(uplo, n, k, ab, ldab), alpha, x, incX, beta, y, incY, core.IsComplex[T]())
}

// Tbsv solves op(A)*x = b for a triangular band matrix A with k off-
// diagonals; b is passed in x and overwritten.
func Tbsv[T core.Scalar](uplo Uplo, trans Trans, diag Diag, n, k int, ab []T, ldab int, x []T, incX int) {
	triSolve(bandTri(uplo, n, k, ab, ldab), nil, trans, diag, x, incX)
}

// Tbmv computes x = op(A)*x for a triangular band matrix A with k
// off-diagonals. (Only the Upper sweep skips the axpy of a zero x_j.)
func Tbmv[T core.Scalar](uplo Uplo, trans Trans, diag Diag, n, k int, ab []T, ldab int, x []T, incX int) {
	triMulStored(bandTri(uplo, n, k, ab, ldab), uplo == Upper, trans, diag, x, incX)
}
