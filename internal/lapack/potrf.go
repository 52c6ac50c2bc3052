package lapack

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
)

// Potf2 computes the unblocked Cholesky factorization of a symmetric
// (Hermitian, for complex element types) positive definite matrix:
// A = Uᴴ·U or A = L·Lᴴ (xPOTF2). Returns i > 0 if the leading minor of
// order i is not positive definite.
func Potf2[T core.Scalar](cfg *core.Config, uplo Uplo, n int, a []T, lda int) int {
	one := core.FromFloat[T](1)
	if uplo == Upper {
		for j := 0; j < n; j++ {
			col := a[j*lda:]
			ajj := core.Re(col[j]) - core.Re(blas.Dotc(j, col, 1, col, 1))
			if ajj <= 0 || math.IsNaN(ajj) {
				col[j] = core.FromFloat[T](ajj)
				return j + 1
			}
			ajj = math.Sqrt(ajj)
			col[j] = core.FromFloat[T](ajj)
			if j < n-1 {
				// Row j of U to the right of the diagonal:
				// A(j, j+1:) = (A(j, j+1:) - A(0:j, j)ᴴ·A(0:j, j+1:)) / ajj
				if j > 0 {
					lacgv(j, a[j*lda:], 1)
					blas.Gemv(cfg, TransT, j, n-j-1, -one, a[(j+1)*lda:], lda, a[j*lda:], 1, one, a[j+(j+1)*lda:], lda)
					lacgv(j, a[j*lda:], 1)
				}
				blas.ScalReal(n-j-1, 1/ajj, a[j+(j+1)*lda:], lda)
			}
		}
		return 0
	}
	for j := 0; j < n; j++ {
		// ajj = A(j,j) - A(j, 0:j)·A(j, 0:j)ᴴ (row of L).
		rowDot := 0.0
		for k := 0; k < j; k++ {
			v := a[j+k*lda]
			rowDot += core.Re(v)*core.Re(v) + core.Im(v)*core.Im(v)
		}
		ajj := core.Re(a[j+j*lda]) - rowDot
		if ajj <= 0 || math.IsNaN(ajj) {
			a[j+j*lda] = core.FromFloat[T](ajj)
			return j + 1
		}
		ajj = math.Sqrt(ajj)
		a[j+j*lda] = core.FromFloat[T](ajj)
		if j < n-1 {
			// Column j of L below the diagonal:
			// A(j+1:, j) = (A(j+1:, j) - A(j+1:, 0:j)·A(j, 0:j)ᴴ) / ajj
			if j > 0 {
				lacgv(j, a[j:], lda)
				blas.Gemv(cfg, NoTrans, n-j-1, j, -one, a[j+1:], lda, a[j:], lda, one, a[j+1+j*lda:], 1)
				lacgv(j, a[j:], lda)
			}
			blas.ScalReal(n-j-1, 1/ajj, a[j+1+j*lda:], 1)
		}
	}
	return 0
}

// lacgv conjugates a vector in place (xLACGV); a no-op for real types.
func lacgv[T core.Scalar](n int, x []T, incX int) {
	if !core.IsComplex[T]() {
		return
	}
	for i, ix := 0, 0; i < n; i, ix = i+1, ix+incX {
		x[ix] = core.Conj(x[ix])
	}
}

// Potrf computes the Cholesky factorization of a positive definite matrix
// by recursion on the order (xPOTRF2 style): the leading half is factored
// recursively, the off-diagonal block is one triangular solve, the trailing
// half is one Herk plus the trailing recursion. Halving keeps the Trsm and
// Herk operands as square as possible, so nearly all flops reach the packed
// GEMM engine at its favourite shapes instead of as rank-nb updates.
// Semantics are identical to Potf2.
func Potrf[T core.Scalar](cfg *core.Config, uplo Uplo, n int, a []T, lda int) int {
	nb := Ilaenv(1, "POTRF", n, -1, -1, -1)
	if n <= nb {
		if blas.SmallOK(n) {
			return potrfSmall(uplo, n, a, lda)
		}
		return Potf2(cfg, uplo, n, a, lda)
	}
	// Cancellation checkpoint: once per recursion node, between the
	// half-sized factorizations and their Level-3 updates.
	cfg.Checkpoint()
	one := core.FromFloat[T](1)
	n1 := n / 2
	n2 := n - n1
	if info := Potrf(cfg, uplo, n1, a, lda); info != 0 {
		return info
	}
	if uplo == Upper {
		// A12 := U11⁻ᴴ·A12; A22 := A22 − A12ᴴ·A12.
		blas.Trsm(cfg, Left, Upper, ConjTrans, NonUnit, n1, n2, one, a, lda, a[n1*lda:], lda)
		blas.Herk(cfg, Upper, ConjTrans, n2, n1, -1, a[n1*lda:], lda, 1, a[n1+n1*lda:], lda)
	} else {
		// A21 := A21·L11⁻ᴴ; A22 := A22 − A21·A21ᴴ.
		blas.Trsm(cfg, Right, Lower, ConjTrans, NonUnit, n2, n1, one, a, lda, a[n1:], lda)
		blas.Herk(cfg, Lower, NoTrans, n2, n1, -1, a[n1:], lda, 1, a[n1+n1*lda:], lda)
	}
	if info := Potrf(cfg, uplo, n2, a[n1+n1*lda:], lda); info != 0 {
		return info + n1
	}
	return 0
}

// Potrs solves A·X = B using the Cholesky factorization from Potrf
// (xPOTRS). B is overwritten with the solution.
func Potrs[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, a []T, lda int, b []T, ldb int) {
	if n == 0 || nrhs == 0 {
		return
	}
	if nrhs < blas.CholNB && blas.SmallOK(n) {
		potrsSmall(uplo, n, nrhs, a, lda, b, ldb)
		return
	}
	one := core.FromFloat[T](1)
	if uplo == Upper {
		blas.Trsm(cfg, Left, Upper, ConjTrans, NonUnit, n, nrhs, one, a, lda, b, ldb)
		blas.Trsm(cfg, Left, Upper, NoTrans, NonUnit, n, nrhs, one, a, lda, b, ldb)
	} else {
		blas.Trsm(cfg, Left, Lower, NoTrans, NonUnit, n, nrhs, one, a, lda, b, ldb)
		blas.Trsm(cfg, Left, Lower, ConjTrans, NonUnit, n, nrhs, one, a, lda, b, ldb)
	}
}

// Posv solves A·X = B for a symmetric/Hermitian positive definite matrix
// (the xPOSV driver). On exit a holds the Cholesky factor and b the
// solution.
func Posv[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, a []T, lda int, b []T, ldb int) int {
	info := Potrf(cfg, uplo, n, a, lda)
	if info == 0 {
		Potrs(cfg, uplo, n, nrhs, a, lda, b, ldb)
	}
	return info
}

// poSystem describes the uplo triangle of the dense Hermitian positive
// definite matrix a to the expert pipeline (expert.go), with its Cholesky
// factor in af.
func poSystem[T core.Scalar](cfg *core.Config, uplo Uplo, n int, a []T, lda int, af []T, ldaf int) *system[T] {
	return &system[T]{
		n: n, sym: true, equil: true,
		cols: triSeg(uplo, n, a, lda, -1),
		factor: func() int {
			Lacpy('A', n, n, a, lda, af, ldaf)
			return Potrf(cfg, uplo, n, af, ldaf)
		},
		solve: func(_ Trans, nrhs int, x []T, ldx int) { Potrs(cfg, uplo, n, nrhs, af, ldaf, x, ldx) },
		mul:   func(_ Trans, alpha T, x []T, beta T, y []T) { blas.Hemv(uplo, n, alpha, a, lda, x, 1, beta, y, 1) },
	}
}

// Pocon estimates the reciprocal 1-norm condition number of a positive
// definite matrix from its Cholesky factorization (xPOCON).
func Pocon[T core.Scalar](cfg *core.Config, uplo Uplo, n int, a []T, lda int, anorm float64) float64 {
	return poSystem(cfg, uplo, n, nil, 0, a, lda).con(OneNorm, anorm)
}

// Posvx is the expert driver for positive definite systems (xPOSVX); see
// Gesvx. The equilibration is the symmetric diag(S)·A·diag(S).
func Posvx[T core.Scalar](cfg *core.Config, fact Fact, uplo Uplo, n, nrhs int, a []T, lda int, af []T, ldaf int, b []T, ldb int, x []T, ldx int) SvxResult {
	return svx(poSystem(cfg, uplo, n, a, lda, af, ldaf), fact, NoTrans, nrhs, b, ldb, x, ldx)
}
