package lapack

import "repro/internal/core"

// Packed and band symmetric eigensolvers. These expand the compact storage
// into a dense triangle and delegate to the dense drivers; the results are
// identical to running the dense algorithms on the expanded matrix (see
// DESIGN.md, substitutions: the asymptotic memory advantage of the
// compact storage is traded for a single shared implementation).

// Spev computes all eigenvalues and, optionally, eigenvectors of a
// symmetric/Hermitian matrix in packed storage: the body of the xSPEV/xHPEV
// and xSPEVD/xHPEVD drivers, Syev on the unpacked matrix. If jobz is true, z
// (n×n, ldz) receives the orthonormal eigenvectors; ap is left as it was
// (LAPACK calls it destroyed).
func Spev[T core.Scalar](cfg *core.Config, jobz bool, uplo Uplo, n int, ap []T, w []float64, z []T, ldz int) int {
	return syevInto(cfg, jobz, uplo, n, unpackTri(uplo, n, ap), w, z, ldz)
}

// Spevx computes selected eigenvalues/eigenvectors of a packed
// symmetric/Hermitian matrix (the xSPEVX/xHPEVX driver).
func Spevx[T core.Scalar](cfg *core.Config, jobz bool, rng EigRange, uplo Uplo, n int, ap []T, vl, vu float64, il, iu int, abstol float64, z []T, ldz int) SyevxResult {
	a := unpackTri(uplo, n, ap)
	return Syevx(cfg, jobz, rng, uplo, n, a, n, vl, vu, il, iu, abstol, z, ldz)
}

// Sbev computes all eigenvalues and, optionally, eigenvectors of a
// symmetric/Hermitian band matrix: the body of the xSBEV/xHBEV and
// xSBEVD/xHBEVD drivers, Syev on the expanded matrix.
func Sbev[T core.Scalar](cfg *core.Config, jobz bool, uplo Uplo, n, kd int, ab []T, ldab int, w []float64, z []T, ldz int) int {
	return syevInto(cfg, jobz, uplo, n, expandSymBand(uplo, n, kd, ab, ldab), w, z, ldz)
}

// syevInto runs Syev on the expanded n×n matrix a and copies the
// eigenvectors, when wanted, into z.
func syevInto[T core.Scalar](cfg *core.Config, jobz bool, uplo Uplo, n int, a []T, w []float64, z []T, ldz int) int {
	info := Syev(cfg, jobz, uplo, n, a, n, w)
	if jobz && info == 0 {
		Lacpy('A', n, n, a, n, z, ldz)
	}
	return info
}

// Sbevx computes selected eigenvalues/eigenvectors of a symmetric/Hermitian
// band matrix (the xSBEVX/xHBEVX driver).
func Sbevx[T core.Scalar](cfg *core.Config, jobz bool, rng EigRange, uplo Uplo, n, kd int, ab []T, ldab int, vl, vu float64, il, iu int, abstol float64, z []T, ldz int) SyevxResult {
	a := expandSymBand(uplo, n, kd, ab, ldab)
	return Syevx(cfg, jobz, rng, uplo, n, a, n, vl, vu, il, iu, abstol, z, ldz)
}
