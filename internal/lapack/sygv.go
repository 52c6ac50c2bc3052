package lapack

import (
	"repro/internal/blas"
	"repro/internal/core"
)

// Sygst reduces a symmetric/Hermitian-definite generalized eigenproblem to
// standard form (xSYGS2/xHEGS2, unblocked). itype 1 transforms
// A·x = λ·B·x into C·y = λ·y with C = inv(Uᴴ)·A·inv(U) (or
// inv(L)·A·inv(Lᴴ)); itype 2 or 3 transforms A·B·x = λ·x or B·A·x = λ·x
// with C = U·A·Uᴴ (or Lᴴ·A·L). b must hold the Cholesky factor from
// Potrf.
func Sygst[T core.Scalar](itype int, uplo Uplo, n int, a []T, lda int, b []T, ldb int) {
	one := core.FromFloat[T](1)
	if itype == 1 {
		if uplo == Upper {
			for k := 0; k < n; k++ {
				akk := core.Re(a[k+k*lda])
				bkk := core.Re(b[k+k*ldb])
				akk /= bkk * bkk
				a[k+k*lda] = core.FromFloat[T](akk)
				if k < n-1 {
					blas.ScalReal(n-k-1, 1/bkk, a[k+(k+1)*lda:], lda)
					ct := core.FromFloat[T](-0.5 * akk)
					lacgv(n-k-1, a[k+(k+1)*lda:], lda)
					lacgv(n-k-1, b[k+(k+1)*ldb:], ldb)
					blas.Axpy(n-k-1, ct, b[k+(k+1)*ldb:], ldb, a[k+(k+1)*lda:], lda)
					blas.Her2(Upper, n-k-1, -one, a[k+(k+1)*lda:], lda, b[k+(k+1)*ldb:], ldb, a[k+1+(k+1)*lda:], lda)
					blas.Axpy(n-k-1, ct, b[k+(k+1)*ldb:], ldb, a[k+(k+1)*lda:], lda)
					lacgv(n-k-1, b[k+(k+1)*ldb:], ldb)
					blas.Trsv(Upper, ConjTrans, NonUnit, n-k-1, b[k+1+(k+1)*ldb:], ldb, a[k+(k+1)*lda:], lda)
					lacgv(n-k-1, a[k+(k+1)*lda:], lda)
				}
			}
			return
		}
		for k := 0; k < n; k++ {
			akk := core.Re(a[k+k*lda])
			bkk := core.Re(b[k+k*ldb])
			akk /= bkk * bkk
			a[k+k*lda] = core.FromFloat[T](akk)
			if k < n-1 {
				blas.ScalReal(n-k-1, 1/bkk, a[k+1+k*lda:], 1)
				ct := core.FromFloat[T](-0.5 * akk)
				blas.Axpy(n-k-1, ct, b[k+1+k*ldb:], 1, a[k+1+k*lda:], 1)
				blas.Her2(Lower, n-k-1, -one, a[k+1+k*lda:], 1, b[k+1+k*ldb:], 1, a[k+1+(k+1)*lda:], lda)
				blas.Axpy(n-k-1, ct, b[k+1+k*ldb:], 1, a[k+1+k*lda:], 1)
				blas.Trsv(Lower, NoTrans, NonUnit, n-k-1, b[k+1+(k+1)*ldb:], ldb, a[k+1+k*lda:], 1)
			}
		}
		return
	}
	// itype 2 or 3.
	if uplo == Upper {
		for k := 0; k < n; k++ {
			akk := core.Re(a[k+k*lda])
			bkk := core.Re(b[k+k*ldb])
			blas.Trmv(Upper, NoTrans, NonUnit, k, b, ldb, a[k*lda:], 1)
			ct := core.FromFloat[T](0.5 * akk)
			blas.Axpy(k, ct, b[k*ldb:], 1, a[k*lda:], 1)
			blas.Her2(Upper, k, one, a[k*lda:], 1, b[k*ldb:], 1, a, lda)
			blas.Axpy(k, ct, b[k*ldb:], 1, a[k*lda:], 1)
			blas.ScalReal(k, bkk, a[k*lda:], 1)
			a[k+k*lda] = core.FromFloat[T](akk * bkk * bkk)
		}
		return
	}
	for k := 0; k < n; k++ {
		akk := core.Re(a[k+k*lda])
		bkk := core.Re(b[k+k*ldb])
		lacgv(k, a[k:], lda)
		blas.Trmv(Lower, ConjTrans, NonUnit, k, b, ldb, a[k:], lda)
		ct := core.FromFloat[T](0.5 * akk)
		lacgv(k, b[k:], ldb)
		blas.Axpy(k, ct, b[k:], ldb, a[k:], lda)
		blas.Her2(Lower, k, one, a[k:], lda, b[k:], ldb, a, lda)
		blas.Axpy(k, ct, b[k:], ldb, a[k:], lda)
		lacgv(k, b[k:], ldb)
		blas.ScalReal(k, bkk, a[k:], lda)
		lacgv(k, a[k:], lda)
		a[k+k*lda] = core.FromFloat[T](akk * bkk * bkk)
	}
}

// Sygv computes all eigenvalues and, optionally, eigenvectors of a
// symmetric/Hermitian-definite generalized eigenproblem (the xSYGV/xHEGV
// driver). itype selects A·x = λ·B·x (1), A·B·x = λ·x (2) or B·A·x = λ·x
// (3); B must be positive definite. On exit a holds the eigenvectors (if
// jobz) and w the eigenvalues; b holds the Cholesky factor of B. Returns
// the LAPACK info convention: 0, i <= n for a Syev failure, or n+i if the
// leading minor of order i of B is not positive definite.
func Sygv[T core.Scalar](cfg *core.Config, itype int, jobz bool, uplo Uplo, n int, a []T, lda int, b []T, ldb int, w []float64) int {
	if n == 0 {
		return 0
	}
	if info := Potrf(cfg, uplo, n, b, ldb); info != 0 {
		return n + info
	}
	Sygst(itype, uplo, n, a, lda, b, ldb)
	if info := Syev[T](cfg, jobz, uplo, n, a, lda, w); info != 0 {
		return info
	}
	if jobz {
		one := core.FromFloat[T](1)
		if itype == 1 || itype == 2 {
			// x = inv(U)·y or inv(Lᴴ)·y.
			tr := NoTrans
			if uplo == Lower {
				tr = ConjTrans
			}
			blas.Trsm(cfg, Left, uplo, tr, NonUnit, n, n, one, b, ldb, a, lda)
		} else {
			// x = Uᴴ·y or L·y.
			if uplo == Upper {
				blas.Trmm(Left, Upper, ConjTrans, NonUnit, n, n, one, b, ldb, a, lda)
			} else {
				blas.Trmm(Left, Lower, NoTrans, NonUnit, n, n, one, b, ldb, a, lda)
			}
		}
	}
	return 0
}

// Spgv computes all eigenvalues and, optionally, eigenvectors of a
// generalized symmetric-definite eigenproblem in packed storage (the
// xSPGV/xHPGV driver, via dense expansion — see DESIGN.md). z (n×n)
// receives the eigenvectors when jobz is true; bp is overwritten with the
// packed Cholesky factor.
func Spgv[T core.Scalar](cfg *core.Config, itype int, jobz bool, uplo Uplo, n int, ap, bp []T, w []float64, z []T, ldz int) int {
	a := unpackTri(uplo, n, ap)
	b := unpackTri(uplo, n, bp)
	info := Sygv(cfg, itype, jobz, uplo, n, a, n, b, n, w)
	repackTri(uplo, n, b, bp)
	repackTri(uplo, n, a, ap)
	if jobz && info == 0 {
		Lacpy('A', n, n, a, n, z, ldz)
	}
	return info
}

// Sbgv computes all eigenvalues and, optionally, eigenvectors of a
// generalized symmetric-definite banded eigenproblem (the xSBGV/xHBGV
// driver, via dense expansion — see DESIGN.md). ab/bb are in symmetric
// band storage with ka/kb off-diagonals.
func Sbgv[T core.Scalar](cfg *core.Config, jobz bool, uplo Uplo, n, ka, kb int, ab []T, ldab int, bb []T, ldbb int, w []float64, z []T, ldz int) int {
	a := expandSymBand(uplo, n, ka, ab, ldab)
	b := expandSymBand(uplo, n, kb, bb, ldbb)
	info := Sygv(cfg, 1, jobz, uplo, n, a, n, b, n, w)
	if jobz && info == 0 {
		Lacpy('A', n, n, a, n, z, ldz)
	}
	return info
}

// expandSymBand expands symmetric band storage into a full dense triangle.
func expandSymBand[T core.Scalar](uplo Uplo, n, k int, ab []T, ldab int) []T {
	a := make([]T, n*n)
	for j := 0; j < n; j++ {
		if uplo == Upper {
			for i := max(0, j-k); i <= j; i++ {
				a[i+j*n] = ab[k+i-j+j*ldab]
			}
		} else {
			for i := j; i <= min(n-1, j+k); i++ {
				a[i+j*n] = ab[i-j+j*ldab]
			}
		}
	}
	return a
}
