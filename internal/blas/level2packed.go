package blas

import "repro/internal/core"

// Packed storage convention (identical to the reference BLAS/LAPACK): the
// uplo triangle of an n×n matrix is stored column by column in a slice ap of
// length n(n+1)/2. For Upper, element (i, j), i <= j, lives at
// ap[i + j(j+1)/2]; for Lower, element (i, j), i >= j, lives at
// ap[i-j + (2n-j+1)j/2].

// PackIdx returns the packed-storage index of element (i, j) of the uplo
// triangle of an n×n matrix.
func PackIdx(uplo Uplo, n, i, j int) int {
	if uplo == Upper {
		return i + j*(j+1)/2
	}
	return i - j + j*(2*n-j+1)/2
}

func packedTri[T core.Scalar](uplo Uplo, n int, ap []T) *triCols[T] {
	return &triCols[T]{ap, uplo, n, 0, -1}
}

// Spmv computes y = alpha*A*x + beta*y for a symmetric matrix A in packed
// storage.
func Spmv[T core.Scalar](uplo Uplo, n int, alpha T, ap []T, x []T, incX int, beta T, y []T, incY int) {
	symHemv(packedTri(uplo, n, ap), alpha, x, incX, beta, y, incY, false)
}

// Hpmv computes y = alpha*A*x + beta*y for a Hermitian matrix A in packed
// storage.
func Hpmv[T core.Scalar](uplo Uplo, n int, alpha T, ap []T, x []T, incX int, beta T, y []T, incY int) {
	symHemv(packedTri(uplo, n, ap), alpha, x, incX, beta, y, incY, core.IsComplex[T]())
}

// Spr computes the symmetric packed rank-one update A += alpha*x*xᵀ.
func Spr[T core.Scalar](uplo Uplo, n int, alpha T, x []T, incX int, ap []T) {
	syrHer(packedTri(uplo, n, ap), alpha, x, incX, false)
}

// Hpr computes the Hermitian packed rank-one update A += alpha*x*xᴴ with
// real alpha.
func Hpr[T core.Scalar](uplo Uplo, n int, alpha float64, x []T, incX int, ap []T) {
	syrHer(packedTri(uplo, n, ap), core.FromFloat[T](alpha), x, incX, true)
}

// Spr2 computes the symmetric packed rank-two update
// A += alpha*x*yᵀ + alpha*y*xᵀ.
func Spr2[T core.Scalar](uplo Uplo, n int, alpha T, x []T, incX int, y []T, incY int, ap []T) {
	syr2Her2(packedTri(uplo, n, ap), alpha, x, incX, y, incY, false)
}

// Hpr2 computes the Hermitian packed rank-two update
// A += alpha*x*yᴴ + conj(alpha)*y*xᴴ.
func Hpr2[T core.Scalar](uplo Uplo, n int, alpha T, x []T, incX int, y []T, incY int, ap []T) {
	syr2Her2(packedTri(uplo, n, ap), alpha, x, incX, y, incY, core.IsComplex[T]())
}

// Tpmv computes x = op(A)*x for a triangular matrix A in packed storage.
func Tpmv[T core.Scalar](uplo Uplo, trans Trans, diag Diag, n int, ap []T, x []T, incX int) {
	triMulStored(packedTri(uplo, n, ap), true, trans, diag, x, incX)
}

// Tpsv solves op(A)*x = b for a triangular matrix A in packed storage; b is
// passed in x and overwritten.
func Tpsv[T core.Scalar](uplo Uplo, trans Trans, diag Diag, n int, ap []T, x []T, incX int) {
	triSolve(packedTri(uplo, n, ap), nil, trans, diag, x, incX)
}

// triMulStored is x ← op(A)·x for the packed and band layouts (the dense
// Trmv differs in its zero shortcut and in the order of its dots). skipZero
// says whether a zero x_j skips its column's axpy.
func triMulStored[T core.Scalar](cols *triCols[T], skipZero bool, trans Trans, diag Diag, x []T, incX int) {
	checkInc(incX)
	n := cols.n
	conj := realTrans[T](trans) == ConjTrans
	j, step := 0, 1
	if (cols.uplo == Upper) != (trans == NoTrans) {
		j, step = n-1, -1
	}
	for ; j >= 0 && j < n; j += step {
		off, lo, d := cols.offDiag(j)
		xj := &x[j*incX]
		if trans == NoTrans {
			if *xj != 0 || !skipZero {
				axpyInc(*xj, off, from(x, lo, incX), incX, false)
			}
			if diag == NonUnit {
				*xj *= d
			}
			continue
		}
		t := *xj
		if diag == NonUnit {
			if conj {
				d = core.Conj(d)
			}
			t = d * t
		}
		*xj = dotAcc(t, off, from(x, lo, incX), incX, conj, false, false)
	}
}
