// Package testutil provides the shared numerical quality metrics used by
// the test suite and by cmd/la90test, the port of the paper's "easy-to-use
// test programs" (paper §6, Appendix F). The metrics are the classical
// LAPACK test ratios: a result passes when the ratio is below a threshold
// (the paper uses 10.0), since a backward-stable solver keeps these ratios
// O(1).
package testutil

import (

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
)

// RandGeneral fills an m×n column-major matrix with uniform (-1,1) entries.
func RandGeneral[T core.Scalar](rng *lapack.Rng, m, n, lda int) []T {
	a := make([]T, lda*n)
	for j := 0; j < n; j++ {
		lapack.Larnv(2, rng, m, a[j*lda:])
	}
	return a
}

// RandSPD returns an n×n symmetric (Hermitian) positive definite matrix,
// built as B·Bᴴ + n·I from a random B.
func RandSPD[T core.Scalar](rng *lapack.Rng, n, lda int) []T {
	b := RandGeneral[T](rng, n, n, n)
	a := make([]T, lda*n)
	blas.Herk(nil, blas.Upper, blas.NoTrans, n, n, 1, b, n, 0, a, lda)
	for j := 0; j < n; j++ {
		a[j+j*lda] += core.FromFloat[T](float64(n))
		for i := 0; i < j; i++ {
			a[j+i*lda] = core.Conj(a[i+j*lda])
		}
	}
	return a
}

// SolveResidual returns the LAPACK solve test ratio
// ‖B − A·X‖₁ / (‖A‖₁ · ‖X‖₁ · n · ε) for an n×n system with nrhs
// right-hand sides. a, x and b are column-major.
func SolveResidual[T core.Scalar](n, nrhs int, a []T, lda int, x []T, ldx int, b []T, ldb int) float64 {
	if n == 0 || nrhs == 0 {
		return 0
	}
	r := make([]T, n*nrhs)
	lapack.Lacpy('A', n, nrhs, b, ldb, r, n)
	one := core.FromFloat[T](1)
	blas.Gemm(nil, blas.NoTrans, blas.NoTrans, n, nrhs, n, -one, a, lda, x, ldx, one, r, n)
	anorm := lapack.Lange(lapack.OneNorm, n, n, a, lda)
	xnorm := lapack.Lange(lapack.OneNorm, n, nrhs, x, ldx)
	rnorm := lapack.Lange(lapack.OneNorm, n, nrhs, r, n)
	eps := core.Eps[T]()
	if anorm == 0 || xnorm == 0 {
		if rnorm == 0 {
			return 0
		}
		return 1 / eps
	}
	return rnorm / anorm / xnorm / (float64(n) * eps)
}

// LUResidual returns ‖P·L·U − A‖₁ / (‖A‖₁ · n · ε) for the factorization
// produced by Getrf: af holds the packed L\U factors and ipiv the 0-based
// pivots; a is the original matrix.
func LUResidual[T core.Scalar](m, n int, a []T, lda int, af []T, ldaf int, ipiv []int) float64 {
	mn := min(m, n)
	// Build L (m×mn, unit lower) and U (mn×n, upper).
	l := make([]T, m*mn)
	u := make([]T, mn*n)
	for j := 0; j < mn; j++ {
		l[j+j*m] = core.FromFloat[T](1)
		for i := j + 1; i < m; i++ {
			l[i+j*m] = af[i+j*ldaf]
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= min(j, mn-1); i++ {
			u[i+j*mn] = af[i+j*ldaf]
		}
	}
	// R = L·U, then apply P (undo the row interchanges).
	r := make([]T, m*n)
	blas.Gemm(nil, blas.NoTrans, blas.NoTrans, m, n, mn, core.FromFloat[T](1), l, m, u, mn, core.FromFloat[T](0), r, m)
	lapack.LaswpInv(n, r, m, 0, mn, ipiv)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			r[i+j*m] -= a[i+j*lda]
		}
	}
	anorm := lapack.Lange(lapack.OneNorm, m, n, a, lda)
	rnorm := lapack.Lange(lapack.OneNorm, m, n, r, m)
	eps := core.Eps[T]()
	if anorm == 0 {
		if rnorm == 0 {
			return 0
		}
		return 1 / eps
	}
	return rnorm / anorm / (float64(n) * eps)
}

// CholeskyResidual returns ‖A − Uᴴ·U‖₁ / (‖A‖₁ · n · ε) (or the L·Lᴴ form)
// for the factor produced by Potrf.
func CholeskyResidual[T core.Scalar](uplo blas.Uplo, n int, a []T, lda int, af []T, ldaf int) float64 {
	r := make([]T, n*n)
	if uplo == blas.Upper {
		// R = Uᴴ·U using only the upper triangle of af.
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				var s T
				for k := 0; k <= min(i, j); k++ {
					s += core.Conj(af[k+i*ldaf]) * af[k+j*ldaf]
				}
				r[i+j*n] = s
			}
		}
	} else {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				var s T
				for k := 0; k <= min(i, j); k++ {
					s += af[i+k*ldaf] * core.Conj(af[j+k*ldaf])
				}
				r[i+j*n] = s
			}
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			var aij T
			if (uplo == blas.Upper) == (i <= j) {
				aij = a[i+j*lda]
			} else {
				aij = core.Conj(a[j+i*lda])
			}
			r[i+j*n] -= aij
		}
	}
	anorm := lapack.Lansy(lapack.OneNorm, uplo, n, a, lda)
	rnorm := lapack.Lange(lapack.OneNorm, n, n, r, n)
	eps := core.Eps[T]()
	if anorm == 0 {
		if rnorm == 0 {
			return 0
		}
		return 1 / eps
	}
	return rnorm / anorm / (float64(n) * eps)
}

// OrthoResidual returns ‖Qᴴ·Q − I‖₁ / (n · ε) for an m×n matrix Q with
// orthonormal columns.
func OrthoResidual[T core.Scalar](m, n int, q []T, ldq int) float64 {
	r := make([]T, n*n)
	blas.Gemm(nil, blas.ConjTrans, blas.NoTrans, n, n, m, core.FromFloat[T](1), q, ldq, q, ldq, core.FromFloat[T](0), r, n)
	for i := 0; i < n; i++ {
		r[i+i*n] -= core.FromFloat[T](1)
	}
	return lapack.Lange(lapack.OneNorm, n, n, r, n) / (float64(max(1, n)) * core.Eps[T]())
}

// EigResidual returns ‖A·Z − Z·diag(w)‖₁ / (‖A‖₁ · n · ε) for a symmetric
// eigendecomposition.
func EigResidual[T core.Scalar](n int, a []T, lda int, w []float64, z []T, ldz int) float64 {
	if n == 0 {
		return 0
	}
	r := make([]T, n*n)
	one := core.FromFloat[T](1)
	blas.Gemm(nil, blas.NoTrans, blas.NoTrans, n, n, n, one, a, lda, z, ldz, core.FromFloat[T](0), r, n)
	for j := 0; j < n; j++ {
		wj := core.FromFloat[T](w[j])
		for i := 0; i < n; i++ {
			r[i+j*n] -= wj * z[i+j*ldz]
		}
	}
	anorm := lapack.Lange(lapack.OneNorm, n, n, a, lda)
	rnorm := lapack.Lange(lapack.OneNorm, n, n, r, n)
	eps := core.Eps[T]()
	if anorm == 0 {
		anorm = 1
	}
	return rnorm / anorm / (float64(n) * eps)
}
