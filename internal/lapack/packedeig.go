package lapack

import "repro/internal/core"

// Packed and band symmetric eigensolvers. These expand the compact storage
// into a dense triangle and delegate to the dense drivers; the results are
// identical to running the dense algorithms on the expanded matrix (see
// DESIGN.md, substitutions: the asymptotic memory advantage of the
// compact storage is traded for a single shared implementation).

// Spev computes all eigenvalues and, optionally, eigenvectors of a
// symmetric/Hermitian matrix in packed storage (the xSPEV/xHPEV driver).
// If jobz is true, z (n×n, ldz) receives the orthonormal eigenvectors.
func Spev[T core.Scalar](cfg *core.Config, jobz bool, uplo Uplo, n int, ap []T, w []float64, z []T, ldz int) int {
	a := unpackTri(uplo, n, ap)
	info := Syev[T](cfg, jobz, uplo, n, a, n, w)
	if jobz && info == 0 {
		Lacpy('A', n, n, a, n, z, ldz)
	}
	repackTri(uplo, n, a, ap)
	return info
}

// Spevd is the divide & conquer variant of Spev (the xSPEVD/xHPEVD driver);
// ap is left as it was.
func Spevd[T core.Scalar](cfg *core.Config, jobz bool, uplo Uplo, n int, ap []T, w []float64, z []T, ldz int) int {
	a := unpackTri(uplo, n, ap)
	info := Syevd[T](cfg, jobz, uplo, n, a, n, w)
	if jobz && info == 0 {
		Lacpy('A', n, n, a, n, z, ldz)
	}
	return info
}

// Spevx computes selected eigenvalues/eigenvectors of a packed
// symmetric/Hermitian matrix (the xSPEVX/xHPEVX driver).
func Spevx[T core.Scalar](cfg *core.Config, jobz bool, rng EigRange, uplo Uplo, n int, ap []T, vl, vu float64, il, iu int, abstol float64, z []T, ldz int) SyevxResult {
	a := unpackTri(uplo, n, ap)
	return Syevx(cfg, jobz, rng, uplo, n, a, n, vl, vu, il, iu, abstol, z, ldz)
}

// Sbev computes all eigenvalues and, optionally, eigenvectors of a
// symmetric/Hermitian band matrix (the xSBEV/xHBEV driver).
func Sbev[T core.Scalar](cfg *core.Config, jobz bool, uplo Uplo, n, kd int, ab []T, ldab int, w []float64, z []T, ldz int) int {
	a := expandSymBand(uplo, n, kd, ab, ldab)
	info := Syev[T](cfg, jobz, uplo, n, a, n, w)
	if jobz && info == 0 {
		Lacpy('A', n, n, a, n, z, ldz)
	}
	return info
}

// Sbevd is the divide & conquer variant of Sbev (the xSBEVD/xHBEVD driver).
func Sbevd[T core.Scalar](cfg *core.Config, jobz bool, uplo Uplo, n, kd int, ab []T, ldab int, w []float64, z []T, ldz int) int {
	a := expandSymBand(uplo, n, kd, ab, ldab)
	info := Syevd[T](cfg, jobz, uplo, n, a, n, w)
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
