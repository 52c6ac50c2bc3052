// Package f77 is the F77_LAPACK interface layer of the paper: a generic
// front end that keeps the explicit FORTRAN 77 calling sequences — every
// dimension, leading dimension and pivot array is passed by the caller,
// and the result status is an INFO integer rather than an error value.
//
// The paper's Example 1 uses exactly this interface
// (CALL LA_GESV( N, NRHS, A, LDA, IPIV, B, LDB, INFO )), and its Example 3
// times it against the simplified F90 interface; package la is that
// simplified interface. Both packages drive the same computational core,
// so the timing difference between them is pure wrapper overhead — the
// measurement the paper reports.
//
// Conventions retained from FORTRAN: ipiv is 1-based (the paper's
// LAPACK77 semantics; package la uses 0-based pivots), matrices are
// column-major flat slices with an explicit leading dimension, and the
// arguments are validated as LAPACK 77 validates them: a negative dimension,
// a leading dimension below the rows of its matrix, or an array too short
// for the matrix it holds (the stored-matrix rule, core.Stored, that
// package la applies to its *Matrix arguments) returns INFO = -i, i the
// argument's position in the LAPACK 77 calling sequence, before any work.
package f77

import (
	"strings"

	"repro/internal/core"
	"repro/internal/lapack"
)

// Scalar is the element-type constraint shared with package la.
type Scalar = interface {
	float32 | float64 | complex64 | complex128
}

// Storage and operation selectors, re-exported so callers need only this
// package.
type (
	// UpLo selects a triangle ('U' or 'L' in FORTRAN terms).
	UpLo = lapack.Uplo
	// Trans selects op(A) ('N', 'T' or 'C').
	Trans = lapack.Trans
)

// Selector values.
const (
	Upper     = lapack.Upper
	Lower     = lapack.Lower
	NoTrans   = lapack.NoTrans
	TransT    = lapack.TransT
	ConjTrans = lapack.ConjTrans
)

// check returns the first non-zero INFO of infos, the results of dim and mat
// for a routine's arguments in calling order.
func check(infos ...int) int {
	for _, info := range infos {
		if info != 0 {
			return info
		}
	}
	return 0
}

// dim is LAPACK 77's check of the dimension argument n at position pos.
func dim(n, pos int) int {
	if n < 0 {
		return -pos
	}
	return 0
}

// mat applies the stored-matrix rule to the rows×cols matrix a at position
// pos, its leading dimension at pos+1: -(pos+1) for a short leading
// dimension, as LAPACK 77, and -pos for an array too short for the matrix.
// Negative dimensions are dim's to report.
func mat[T any](rows, cols int, a []T, ld, pos int) int {
	switch core.Stored(rows, cols, ld, len(a)) {
	case core.ShortLD:
		return -(pos + 1)
	case core.ShortData:
		return -pos
	}
	return 0
}

// wanted is the order n of an optional output matrix (eigen- or Schur
// vectors) when it is wanted, and 0, leaving only LDV ≥ 1, when it is not.
func wanted(want bool, n int) int {
	if want {
		return n
	}
	return 0
}

// pivIn converts a caller-supplied 1-based pivot array to 0-based.
func pivIn(ipiv []int) []int {
	out := make([]int, len(ipiv))
	for i, p := range ipiv {
		out[i] = p - 1
	}
	return out
}

// pivOut writes 0-based pivots back as 1-based.
func pivOut(src, dst []int) {
	for i, p := range src {
		dst[i] = p + 1
	}
}

// GETRF computes an LU factorization with partial pivoting
// (xGETRF: M, N, A, LDA, IPIV, INFO). ipiv is 1-based on return.
func GETRF[T Scalar](m, n int, a []T, lda int, ipiv []int) (info int) {
	if info = check(dim(m, 1), dim(n, 2), mat(m, n, a, lda, 3)); info != 0 {
		return info
	}
	cfg := core.Default()
	p := make([]int, min(m, n))
	info = lapack.Getrf(cfg, m, n, a, lda, p)
	pivOut(p, ipiv)
	return info
}

// GETRS solves op(A)·X = B from a GETRF factorization
// (xGETRS: TRANS, N, NRHS, A, LDA, IPIV, B, LDB, INFO).
func GETRS[T Scalar](trans Trans, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) (info int) {
	if info = check(dim(n, 2), dim(nrhs, 3), mat(n, n, a, lda, 4), mat(n, nrhs, b, ldb, 7)); info != 0 {
		return info
	}
	cfg := core.Default()
	lapack.Getrs(cfg, trans, n, nrhs, a, lda, pivIn(ipiv), b, ldb)
	return 0
}

// GETRI computes the matrix inverse from a GETRF factorization
// (xGETRI: N, A, LDA, IPIV, WORK, LWORK, INFO).
func GETRI[T Scalar](n int, a []T, lda int, ipiv []int, work []T, lwork int) (info int) {
	if info = check(dim(n, 1), mat(n, n, a, lda, 2)); info != 0 {
		return info
	}
	cfg := core.Default()
	if lwork < n {
		return -6
	}
	return lapack.Getri(cfg, n, a, lda, pivIn(ipiv), work)
}

// GESV solves A·X = B by LU factorization with partial pivoting
// (xGESV: N, NRHS, A, LDA, IPIV, B, LDB, INFO) — the call of the paper's
// Example 1, Statement 14. ipiv is 1-based on return.
func GESV[T Scalar](n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) (info int) {
	if info = check(dim(n, 1), dim(nrhs, 2), mat(n, n, a, lda, 3), mat(n, nrhs, b, ldb, 6)); info != 0 {
		return info
	}
	cfg := core.Default()
	p := make([]int, n)
	info = lapack.Gesv(cfg, n, nrhs, a, lda, p, b, ldb)
	pivOut(p, ipiv)
	return info
}

// POTRF computes a Cholesky factorization (xPOTRF: UPLO, N, A, LDA, INFO).
func POTRF[T Scalar](uplo UpLo, n int, a []T, lda int) (info int) {
	if info = check(dim(n, 2), mat(n, n, a, lda, 3)); info != 0 {
		return info
	}
	cfg := core.Default()
	return lapack.Potrf(cfg, uplo, n, a, lda)
}

// POTRS solves from a Cholesky factorization
// (xPOTRS: UPLO, N, NRHS, A, LDA, B, LDB, INFO).
func POTRS[T Scalar](uplo UpLo, n, nrhs int, a []T, lda int, b []T, ldb int) (info int) {
	if info = check(dim(n, 2), dim(nrhs, 3), mat(n, n, a, lda, 4), mat(n, nrhs, b, ldb, 6)); info != 0 {
		return info
	}
	cfg := core.Default()
	lapack.Potrs(cfg, uplo, n, nrhs, a, lda, b, ldb)
	return 0
}

// POSV solves a positive definite system
// (xPOSV: UPLO, N, NRHS, A, LDA, B, LDB, INFO).
func POSV[T Scalar](uplo UpLo, n, nrhs int, a []T, lda int, b []T, ldb int) (info int) {
	if info = check(dim(n, 2), dim(nrhs, 3), mat(n, n, a, lda, 4), mat(n, nrhs, b, ldb, 6)); info != 0 {
		return info
	}
	cfg := core.Default()
	return lapack.Posv(cfg, uplo, n, nrhs, a, lda, b, ldb)
}

// GBSV solves a general band system
// (xGBSV: N, KL, KU, NRHS, AB, LDAB, IPIV, B, LDB, INFO).
func GBSV[T Scalar](n, kl, ku, nrhs int, ab []T, ldab int, ipiv []int, b []T, ldb int) (info int) {
	if info = check(dim(n, 1), dim(kl, 2), dim(ku, 3), dim(nrhs, 4), mat(2*kl+ku+1, n, ab, ldab, 5), mat(n, nrhs, b, ldb, 8)); info != 0 {
		return info
	}
	p := make([]int, n)
	info = lapack.Gbsv(n, kl, ku, nrhs, ab, ldab, p, b, ldb)
	pivOut(p, ipiv)
	return info
}

// GTSV solves a general tridiagonal system
// (xGTSV: N, NRHS, DL, D, DU, B, LDB, INFO).
func GTSV[T Scalar](n, nrhs int, dl, d, du []T, b []T, ldb int) (info int) {
	if info = check(dim(n, 1), dim(nrhs, 2), mat(n, nrhs, b, ldb, 6)); info != 0 {
		return info
	}
	return lapack.Gtsv(n, nrhs, dl, d, du, b, ldb)
}

// PTSV solves a positive definite tridiagonal system
// (xPTSV: N, NRHS, D, E, B, LDB, INFO).
func PTSV[T Scalar](n, nrhs int, d []float64, e []T, b []T, ldb int) (info int) {
	if info = check(dim(n, 1), dim(nrhs, 2), mat(n, nrhs, b, ldb, 5)); info != 0 {
		return info
	}
	return lapack.Ptsv(n, nrhs, d, e, b, ldb)
}

// PPSV solves a packed positive definite system
// (xPPSV: UPLO, N, NRHS, AP, B, LDB, INFO).
func PPSV[T Scalar](uplo UpLo, n, nrhs int, ap []T, b []T, ldb int) (info int) {
	if info = check(dim(n, 2), dim(nrhs, 3), mat(n, nrhs, b, ldb, 5)); info != 0 {
		return info
	}
	return lapack.Ppsv(uplo, n, nrhs, ap, b, ldb)
}

// PBSV solves a positive definite band system
// (xPBSV: UPLO, N, KD, NRHS, AB, LDAB, B, LDB, INFO).
func PBSV[T Scalar](uplo UpLo, n, kd, nrhs int, ab []T, ldab int, b []T, ldb int) (info int) {
	if info = check(dim(n, 2), dim(kd, 3), dim(nrhs, 4), mat(kd+1, n, ab, ldab, 5), mat(n, nrhs, b, ldb, 7)); info != 0 {
		return info
	}
	return lapack.Pbsv(uplo, n, kd, nrhs, ab, ldab, b, ldb)
}

// SYSV solves a symmetric indefinite system
// (xSYSV: UPLO, N, NRHS, A, LDA, IPIV, B, LDB, INFO). The pivot encoding
// follows LAPACK, shifted to 1-based.
func SYSV[T Scalar](uplo UpLo, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) (info int) {
	if info = check(dim(n, 2), dim(nrhs, 3), mat(n, n, a, lda, 4), mat(n, nrhs, b, ldb, 7)); info != 0 {
		return info
	}
	cfg := core.Default()
	p := make([]int, n)
	info = lapack.Sysv(cfg, uplo, n, nrhs, a, lda, p, b, ldb)
	for i, v := range p {
		if v >= 0 {
			ipiv[i] = v + 1
		} else {
			ipiv[i] = v // 2×2 block markers stay negative
		}
	}
	return info
}

// HESV solves a Hermitian indefinite system
// (xHESV: UPLO, N, NRHS, A, LDA, IPIV, B, LDB, INFO).
func HESV[T Scalar](uplo UpLo, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) (info int) {
	if info = check(dim(n, 2), dim(nrhs, 3), mat(n, n, a, lda, 4), mat(n, nrhs, b, ldb, 7)); info != 0 {
		return info
	}
	cfg := core.Default()
	p := make([]int, n)
	info = lapack.Hesv(cfg, uplo, n, nrhs, a, lda, p, b, ldb)
	for i, v := range p {
		if v >= 0 {
			ipiv[i] = v + 1
		} else {
			ipiv[i] = v
		}
	}
	return info
}

// GELS solves full-rank least squares problems by QR or LQ factorization
// (xGELS: TRANS, M, N, NRHS, A, LDA, B, LDB, WORK, LWORK, INFO; the
// workspace arguments are accepted for signature fidelity and ignored —
// workspace is managed internally).
func GELS[T Scalar](trans Trans, m, n, nrhs int, a []T, lda int, b []T, ldb int, work []T, lwork int) (info int) {
	if info = check(dim(m, 2), dim(n, 3), dim(nrhs, 4), mat(m, n, a, lda, 5), mat(max(m, n), nrhs, b, ldb, 7)); info != 0 {
		return info
	}
	cfg := core.Default()
	return lapack.Gels(cfg, trans, m, n, nrhs, a, lda, b, ldb)
}

// SYEV computes the spectrum of a symmetric/Hermitian matrix
// (xSYEV: JOBZ, UPLO, N, A, LDA, W, WORK, LWORK, INFO with jobz as a
// boolean; W is float64 for every element type).
func SYEV[T Scalar](jobz bool, uplo UpLo, n int, a []T, lda int, w []float64) (info int) {
	if info = check(dim(n, 3), mat(n, n, a, lda, 4)); info != 0 {
		return info
	}
	cfg := core.Default()
	return lapack.Syev[T](cfg, jobz, uplo, n, a, lda, w)
}

// GESVD computes a singular value decomposition
// (xGESVD: JOBU, JOBVT, M, N, A, LDA, S, U, LDU, VT, LDVT, INFO with the
// job characters 'A', 'S' or 'N'). It runs the library's one SVD drive,
// lapack.Gesdd, the body of LA_GESVD, so both interfaces return the same
// bits.
func GESVD[T Scalar](jobu, jobvt byte, m, n int, a []T, lda int, s []float64, u []T, ldu int, vt []T, ldvt int) (info int) {
	k := min(m, n)
	if info = check(dim(m, 3), dim(n, 4), mat(m, n, a, lda, 5), mat(svdDim(jobu, m, m), svdDim(jobu, m, k), u, ldu, 8),
		mat(svdDim(jobvt, n, k), svdDim(jobvt, n, n), vt, ldvt, 10)); info != 0 {
		return info
	}
	cfg := core.Default()
	return lapack.Gesdd(cfg, lapack.SVDJob(jobu), lapack.SVDJob(jobvt), m, n, a, lda, s, u, ldu, vt, ldvt)
}

// svdDim is an extent of U or Vᴴ under its job: all for 'A', some for 'S',
// and 0 for 'N', which leaves the array unreferenced but LDU ≥ 1 checked.
func svdDim(job byte, all, some int) int {
	switch job {
	case 'A':
		return all
	case 'N':
		return 0
	}
	return some
}

// GEQRF computes a QR factorization (xGEQRF: M, N, A, LDA, TAU, INFO).
func GEQRF[T Scalar](m, n int, a []T, lda int, tau []T) (info int) {
	if info = check(dim(m, 1), dim(n, 2), mat(m, n, a, lda, 3)); info != 0 {
		return info
	}
	cfg := core.Default()
	lapack.Geqrf(cfg, m, n, a, lda, tau)
	return 0
}

// ILAENV returns tuning parameters, the hook the paper's LA_GETRI listing
// queries for its workspace size. NAME is spelled as in LAPACK, in either
// case: a type letter and the routine (DGETRF, ZUNGQR), the complex UN…
// routines taking the values of their real OR… twins; the bare routine
// (GETRF, SYTRF) is read as it stands. An ispec outside 1..17 returns −1,
// the reference ILAENV's "argument 1 is illegal".
func ILAENV(ispec int, name string, n1, n2, n3, n4 int) int {
	if ispec < 1 || ispec > 17 {
		return -1
	}
	name = strings.ToUpper(name)
	// Every bare name of the table has five letters but GETRF2, which no
	// type letter starts, so only a longer name carries one: SYTRF keeps
	// its S.
	if len(name) > 5 && strings.IndexByte("SDCZ", name[0]) >= 0 {
		name = name[1:]
	}
	if rest, ok := strings.CutPrefix(name, "UN"); ok {
		name = "OR" + rest
	}
	return lapack.Ilaenv(ispec, name, n1, n2, n3, n4)
}

// LAMCH returns machine parameters in the FORTRAN 90 EPSILON convention
// used throughout the paper ('E' the relative machine epsilon, 'S' the
// safe minimum, 'O' the overflow threshold) for the element type T.
func LAMCH[T Scalar](cmach byte) float64 {
	switch cmach {
	case 'E', 'e':
		return core.Eps[T]()
	case 'S', 's':
		return core.SafeMin[T]()
	case 'O', 'o':
		return core.Overflow[T]()
	}
	return 0
}
