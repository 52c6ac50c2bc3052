package lapack

import (
	"repro/internal/blas"
	"repro/internal/core"
)

// LU band storage (identical to LAPACK xGBTRF): the factorization of an
// n×n band matrix with kl sub- and ku super-diagonals is held in an array
// ab with ldab >= 2*kl+ku+1. On entry the matrix occupies rows kl..2*kl+ku
// (element (i,j) at ab[kl+ku+i-j + j*ldab]); the top kl rows provide space
// for the fill-in super-diagonals of U created by pivoting.

// Gbtf2 computes the unblocked LU factorization with partial pivoting of a
// band matrix (xGBTF2). ipiv is 0-based. Returns i > 0 when U(i,i) is
// exactly zero.
func Gbtf2[T core.Scalar](m, n, kl, ku int, ab []T, ldab int, ipiv []int) int {
	kv := kl + ku
	info := 0
	// Zero the fill-in rows of the initial columns.
	for j := ku + 1; j < min(kv, n); j++ {
		for i := kv - j; i < kl; i++ {
			ab[i+j*ldab] = 0
		}
	}
	ju := 0 // last column affected by interchanges so far
	one := core.FromFloat[T](1)
	for j := 0; j < min(m, n); j++ {
		if j+kv < n {
			for i := 0; i < kl; i++ {
				ab[i+(j+kv)*ldab] = 0
			}
		}
		km := min(kl, m-1-j)
		jp := blas.Iamax(km+1, ab[kv+j*ldab:], 1)
		ipiv[j] = jp + j
		if ab[kv+jp+j*ldab] != 0 {
			ju = max(ju, min(j+ku+jp, n-1))
			if jp != 0 {
				blas.Swap(ju-j+1, ab[kv+jp+j*ldab:], ldab-1, ab[kv+j*ldab:], ldab-1)
			}
			if km > 0 {
				inv := core.Div(one, ab[kv+j*ldab])
				blas.Scal(km, inv, ab[kv+1+j*ldab:], 1)
				if ju > j {
					blas.Ger(km, ju-j, -one, ab[kv+1+j*ldab:], 1,
						ab[kv-1+(j+1)*ldab:], ldab-1, ab[kv+(j+1)*ldab:], ldab-1)
				}
			}
		} else if info == 0 {
			info = j + 1
		}
	}
	return info
}

// Gbtrf computes the LU factorization with partial pivoting of a band
// matrix (xGBTRF; delegates to the unblocked algorithm, which is efficient
// for the narrow bands this library targets).
func Gbtrf[T core.Scalar](m, n, kl, ku int, ab []T, ldab int, ipiv []int) int {
	return Gbtf2(m, n, kl, ku, ab, ldab, ipiv)
}

// Gbtrs solves op(A)·X = B using the band LU factorization from Gbtrf
// (xGBTRS).
func Gbtrs[T core.Scalar](trans Trans, n, kl, ku, nrhs int, ab []T, ldab int, ipiv []int, b []T, ldb int) {
	if n == 0 || nrhs == 0 {
		return
	}
	kv := kl + ku
	one := core.FromFloat[T](1)
	if trans == NoTrans {
		if kl > 0 {
			for j := 0; j < n-1; j++ {
				lm := min(kl, n-1-j)
				if l := ipiv[j]; l != j {
					blas.Swap(nrhs, b[l:], ldb, b[j:], ldb)
				}
				blas.Ger(lm, nrhs, -one, ab[kv+1+j*ldab:], 1, b[j:], ldb, b[j+1:], ldb)
			}
		}
		for j := 0; j < nrhs; j++ {
			blas.Tbsv(Upper, NoTrans, NonUnit, n, kv, ab, ldab, b[j*ldb:], 1)
		}
		return
	}
	// Transposed / conjugate-transposed solve.
	for j := 0; j < nrhs; j++ {
		blas.Tbsv(Upper, trans, NonUnit, n, kv, ab, ldab, b[j*ldb:], 1)
	}
	if kl > 0 {
		for j := n - 2; j >= 0; j-- {
			lm := min(kl, n-1-j)
			for k := 0; k < nrhs; k++ {
				var s T
				if trans == ConjTrans {
					s = blas.Dotc(lm, ab[kv+1+j*ldab:], 1, b[j+1+k*ldb:], 1)
				} else {
					s = blas.Dotu(lm, ab[kv+1+j*ldab:], 1, b[j+1+k*ldb:], 1)
				}
				b[j+k*ldb] -= s
			}
			if l := ipiv[j]; l != j {
				blas.Swap(nrhs, b[l:], ldb, b[j:], ldb)
			}
		}
	}
}

// Gbsv solves A·X = B for a general band matrix (the xGBSV driver).
func Gbsv[T core.Scalar](n, kl, ku, nrhs int, ab []T, ldab int, ipiv []int, b []T, ldb int) int {
	info := Gbtrf(n, n, kl, ku, ab, ldab, ipiv)
	if info == 0 {
		Gbtrs(NoTrans, n, kl, ku, nrhs, ab, ldab, ipiv, b, ldb)
	}
	return info
}

// gbSystem describes the band matrix ab, in plain band storage (ldab >=
// kl+ku+1, row offset ku), to the expert pipeline, with its LU factorization
// in afb (LU band storage, ldafb >= 2*kl+ku+1) and ipiv.
func gbSystem[T core.Scalar](n, kl, ku int, ab []T, ldab int, afb []T, ldafb int, ipiv []int) *system[T] {
	return &system[T]{
		n: n, equil: true,
		cols: func(j int) ([]T, int) {
			lo, hi := max(0, j-ku), min(n-1, j+kl)
			return ab[ku+lo-j+j*ldab : ku+hi-j+j*ldab+1], lo
		},
		factor: func() int {
			for j := 0; j < n; j++ { // the band goes under the kl fill rows
				copy(afb[kl+j*ldafb:kl+j*ldafb+kl+ku+1], ab[j*ldab:j*ldab+kl+ku+1])
			}
			return Gbtrf(n, n, kl, ku, afb, ldafb, ipiv)
		},
		solve: func(tr Trans, nrhs int, x []T, ldx int) { Gbtrs(tr, n, kl, ku, nrhs, afb, ldafb, ipiv, x, ldx) },
		mul: func(tr Trans, alpha T, x []T, beta T, y []T) {
			blas.Gbmv(tr, n, n, kl, ku, alpha, ab, ldab, x, 1, beta, y, 1)
		},
	}
}

// Gbsvx is the expert driver for general band systems (xGBSVX); see Gesvx.
func Gbsvx[T core.Scalar](fact Fact, trans Trans, n, kl, ku, nrhs int, ab []T, ldab int, afb []T, ldafb int, ipiv []int, b []T, ldb int, x []T, ldx int) SvxResult {
	return svx(gbSystem(n, kl, ku, ab, ldab, afb, ldafb, ipiv), fact, trans, nrhs, b, ldb, x, ldx)
}
