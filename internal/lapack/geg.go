package lapack

import (
	"repro/internal/blas"
	"repro/internal/core"
)

// Generalized nonsymmetric eigenproblem drivers (xGEGS/xGEGV). As
// documented in DESIGN.md, these use the QZ-lite construction instead of
// the full Hessenberg-triangular QZ iteration: with B nonsingular, the
// standard Schur decomposition of B⁻¹·A supplies Z, and a QR factorization
// of B·Z supplies Q and the triangular T, giving the generalized Schur
// pair Qᴴ·A·Z = S (= T·S′, still (quasi-)triangular) and Qᴴ·B·Z = T. The
// wrapper layer — the paper's subject — is exercised identically; the
// difference from reference QZ is numerical behaviour when B is
// ill-conditioned, which the info return flags.

// Gegs computes the generalized real Schur decomposition of the pencil
// (A, B): A = Q·S·Zᵀ, B = Q·T·Zᵀ with S quasi-triangular and T upper
// triangular. On exit a holds S and b holds T; the generalized eigenvalues
// are (alphar[i], alphai[i]) / beta[i]. vsl (Q) and vsr (Z) may be nil.
// Returns info > 0 if B is singular to working precision or the QR
// iteration fails.
func Gegs[T core.Float](cfg *core.Config, n int, a []T, lda int, b []T, ldb int, alphar, alphai, beta []float64, vsl []T, ldvsl int, vsr []T, ldvsr int) int {
	if n == 0 {
		return 0
	}
	// Promote to float64 (as the other nonsymmetric drivers do).
	af := promoteReal(n, n, a, lda)
	bf := promoteReal(n, n, b, ldb)
	// M = B⁻¹·A.
	blu := append([]float64(nil), bf...)
	ipiv := make([]int, n)
	if info := Getrf(cfg, n, n, blu, n, ipiv); info != 0 {
		return info
	}
	m := append([]float64(nil), af...)
	Getrs(cfg, NoTrans, n, n, blu, n, ipiv, m, n)
	// Real Schur of M: M = Z·S′·Zᵀ.
	wr := make([]float64, n)
	wi := make([]float64, n)
	z := make([]float64, n*n)
	if _, info := Gees[float64](cfg, true, nil, n, m, n, wr, wi, z, n); info != 0 {
		return info
	}
	// Q·T = B·Z.
	bz := make([]float64, n*n)
	blas.Gemm(cfg, NoTrans, NoTrans, n, n, n, 1.0, bf, n, z, n, 0.0, bz, n)
	tau := make([]float64, n)
	Geqrf(cfg, n, n, bz, n, tau)
	tmat := make([]float64, n*n)
	Lacpy('U', n, n, bz, n, tmat, n)
	q := append([]float64(nil), bz...)
	Orgqr(cfg, n, n, n, q, n, tau)
	// S = T·S′ (upper-triangular times quasi-triangular).
	s := make([]float64, n*n)
	blas.Gemm(cfg, NoTrans, NoTrans, n, n, n, 1.0, tmat, n, m, n, 0.0, s, n)
	// Zero the below-subdiagonal roundoff so S is exactly quasi-triangular.
	for j := 0; j < n; j++ {
		for i := j + 2; i < n; i++ {
			s[i+j*n] = 0
		}
		if j > 0 && m[j+(j-1)*n] == 0 {
			s[j+(j-1)*n] = 0
		}
	}
	// Eigenvalue pairs: 1×1 blocks give (s_ii, t_ii); 2×2 blocks give the
	// complex pair of the block pencil with beta = 1 (see DESIGN.md).
	for i := 0; i < n; {
		if i < n-1 && s[i+1+i*n] != 0 {
			alphar[i], alphar[i+1] = wr[i], wr[i+1]
			alphai[i], alphai[i+1] = wi[i], wi[i+1]
			beta[i], beta[i+1] = 1, 1
			i += 2
		} else {
			alphar[i] = s[i+i*n]
			alphai[i] = 0
			beta[i] = tmat[i+i*n]
			i++
		}
	}
	demoteReal(n, n, s, a, lda)
	demoteReal(n, n, tmat, b, ldb)
	if vsl != nil {
		demoteReal(n, n, q, vsl, ldvsl)
	}
	if vsr != nil {
		demoteReal(n, n, z, vsr, ldvsr)
	}
	return 0
}

// GegsC is the complex counterpart of Gegs: A = Q·S·Zᴴ, B = Q·T·Zᴴ with
// both S and T upper triangular; alpha[i]/beta[i] are the generalized
// eigenvalues.
func GegsC[T core.Cmplx](cfg *core.Config, n int, a []T, lda int, b []T, ldb int, alpha, beta []complex128, vsl []T, ldvsl int, vsr []T, ldvsr int) int {
	if n == 0 {
		return 0
	}
	af := promoteCmplx(n, n, a, lda)
	bf := promoteCmplx(n, n, b, ldb)
	blu := append([]complex128(nil), bf...)
	ipiv := make([]int, n)
	if info := Getrf(cfg, n, n, blu, n, ipiv); info != 0 {
		return info
	}
	m := append([]complex128(nil), af...)
	Getrs(cfg, NoTrans, n, n, blu, n, ipiv, m, n)
	w := make([]complex128, n)
	z := make([]complex128, n*n)
	if _, info := GeesC[complex128](cfg, true, nil, n, m, n, w, z, n); info != 0 {
		return info
	}
	bz := make([]complex128, n*n)
	blas.Gemm(cfg, NoTrans, NoTrans, n, n, n, 1, bf, n, z, n, 0, bz, n)
	tau := make([]complex128, n)
	Geqrf(cfg, n, n, bz, n, tau)
	tmat := make([]complex128, n*n)
	Lacpy('U', n, n, bz, n, tmat, n)
	q := append([]complex128(nil), bz...)
	Orgqr(cfg, n, n, n, q, n, tau)
	s := make([]complex128, n*n)
	blas.Gemm(cfg, NoTrans, NoTrans, n, n, n, 1, tmat, n, m, n, 0, s, n)
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			s[i+j*n] = 0
		}
	}
	for i := 0; i < n; i++ {
		alpha[i] = s[i+i*n]
		beta[i] = tmat[i+i*n]
	}
	demoteCmplx(n, n, s, a, lda)
	demoteCmplx(n, n, tmat, b, ldb)
	if vsl != nil {
		demoteCmplx(n, n, q, vsl, ldvsl)
	}
	if vsr != nil {
		demoteCmplx(n, n, z, vsr, ldvsr)
	}
	return 0
}

// Gegv computes the generalized eigenvalues and, optionally, the left
// and/or right generalized eigenvectors of the real pencil (A, B):
// A·v = λ·B·v and uᴴ·A = λ·uᴴ·B, with λᵢ = (alphar[i] + i·alphai[i]) /
// beta[i]. Eigenvectors use the LAPACK real packing (see TrevcRight).
// a and b are destroyed. Requires B nonsingular (info > 0 otherwise).
func Gegv[T core.Float](cfg *core.Config, jobvl, jobvr bool, n int, a []T, lda int, b []T, ldb int, alphar, alphai, beta []float64, vl []T, ldvl int, vr []T, ldvr int) int {
	if n == 0 {
		return 0
	}
	af := promoteReal(n, n, a, lda)
	bf := promoteReal(n, n, b, ldb)
	blu := append([]float64(nil), bf...)
	ipiv := make([]int, n)
	if info := Getrf(cfg, n, n, blu, n, ipiv); info != 0 {
		return info
	}
	// Right eigenvectors of the pencil = eigenvectors of M = B⁻¹·A.
	m := append([]float64(nil), af...)
	Getrs(cfg, NoTrans, n, n, blu, n, ipiv, m, n)
	var vrf, vlf []float64
	if jobvr {
		vrf = make([]float64, n*n)
	}
	if jobvl {
		vlf = make([]float64, n*n)
	}
	if info := Geev[float64](cfg, jobvl, jobvr, n, m, n, alphar, alphai, vlf, n, vrf, n); info != 0 {
		return info
	}
	for i := range beta {
		beta[i] = 1
	}
	if jobvr {
		demoteReal(n, n, vrf, vr, ldvr)
	}
	if jobvl {
		// Left eigenvectors of the pencil: v = B⁻ᴴ·u where u is a left
		// eigenvector of M (uᴴ·B⁻¹·A = λ·uᴴ ⇒ vᴴ·A = λ·vᴴ·B).
		Getrs(cfg, TransT, n, n, blu, n, ipiv, vlf, n)
		// Renormalize each (possibly paired) column set.
		normalizeEvecs(n, alphai, vlf, n)
		demoteReal(n, n, vlf, vl, ldvl)
	}
	return 0
}

// GegvC is the complex counterpart of Gegv.
func GegvC[T core.Cmplx](cfg *core.Config, jobvl, jobvr bool, n int, a []T, lda int, b []T, ldb int, alpha, beta []complex128, vl []T, ldvl int, vr []T, ldvr int) int {
	if n == 0 {
		return 0
	}
	af := promoteCmplx(n, n, a, lda)
	bf := promoteCmplx(n, n, b, ldb)
	blu := append([]complex128(nil), bf...)
	ipiv := make([]int, n)
	if info := Getrf(cfg, n, n, blu, n, ipiv); info != 0 {
		return info
	}
	m := append([]complex128(nil), af...)
	Getrs(cfg, NoTrans, n, n, blu, n, ipiv, m, n)
	var vrf, vlf []complex128
	if jobvr {
		vrf = make([]complex128, n*n)
	}
	if jobvl {
		vlf = make([]complex128, n*n)
	}
	if info := GeevC[complex128](cfg, jobvl, jobvr, n, m, n, alpha, vlf, n, vrf, n); info != 0 {
		return info
	}
	for i := range beta {
		beta[i] = 1
	}
	if jobvr {
		demoteCmplx(n, n, vrf, vr, ldvr)
	}
	if jobvl {
		Getrs(cfg, ConjTrans, n, n, blu, n, ipiv, vlf, n)
		for j := 0; j < n; j++ {
			nrm := blas.Nrm2(n, vlf[j*n:j*n+n], 1)
			if nrm > 0 {
				blas.ScalReal(n, 1/nrm, vlf[j*n:], 1)
			}
		}
		demoteCmplx(n, n, vlf, vl, ldvl)
	}
	return 0
}

// Gerq2 computes an RQ factorization A = R·Q of an m×n matrix (xGERQ2).
// The reflectors are stored in the rows of a and tau (length min(m,n)).
func Gerq2[T core.Scalar](cfg *core.Config, m, n int, a []T, lda int, tau []T) {
	k := min(m, n)
	work := make([]T, max(m, n))
	for i := k - 1; i >= 0; i-- {
		row := m - k + i // global row of reflector i
		col := n - k + i // its diagonal column
		// Annihilate A(row, 0:col-1).
		lacgv(col+1, a[row:], lda)
		alpha := a[row+col*lda]
		tau[i] = Larfg(col+1, &alpha, a[row:], lda)
		a[row+col*lda] = core.FromFloat[T](1)
		// Apply H(i) from the right to rows 0..row-1.
		Larf(cfg, Right, row, col+1, a[row:], lda, tau[i], a, lda, work)
		a[row+col*lda] = alpha
		lacgv(col, a[row:], lda)
	}
}

// Orgr2 generates the m×n matrix Q (m <= n) with orthonormal rows from an
// RQ factorization computed by Gerq2 (xORGR2/xUNGR2), overwriting a.
func Orgr2[T core.Scalar](cfg *core.Config, m, n, k int, a []T, lda int, tau []T) {
	if m == 0 {
		return
	}
	work := make([]T, max(m, n))
	if k < m {
		for j := 0; j < n; j++ {
			for l := 0; l < m-k; l++ {
				a[l+j*lda] = 0
			}
			if j >= n-m && j < n-k {
				a[m-n+j+j*lda] = core.FromFloat[T](1)
			}
		}
	}
	for i := 0; i < k; i++ {
		ii := m - k + i  // 0-based row of reflector i
		jj := n - m + ii // its diagonal column
		lacgv(jj, a[ii:], lda)
		a[ii+jj*lda] = core.FromFloat[T](1)
		// Apply H(i)ᴴ from the right to rows 0..ii-1, columns 0..jj.
		Larf(cfg, Right, ii, jj+1, a[ii:], lda, core.Conj(tau[i]), a, lda, work)
		blas.Scal(jj, -tau[i], a[ii:], lda)
		lacgv(jj, a[ii:], lda)
		a[ii+jj*lda] = core.FromFloat[T](1) - core.Conj(tau[i])
		for l := jj + 1; l < n; l++ {
			a[ii+l*lda] = 0
		}
	}
}
