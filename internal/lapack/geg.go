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

// Gegs computes the generalized Schur decomposition of the pencil (A, B):
// A = Q·S·Zᴴ, B = Q·T·Zᴴ with T upper triangular and S upper triangular —
// for the real types quasi-triangular, in real Schur form. On exit a holds S
// and b holds T; the generalized eigenvalues are alpha[i]/beta[i], a complex
// pair of a real S (a 2×2 block) with beta = 1. vsl (Q) and vsr (Z) may be
// nil. Returns info > 0 if B is singular to working precision or the QR
// iteration fails.
func Gegs[T core.Scalar](cfg *core.Config, n int, a []T, lda int, b []T, ldb int, alpha, beta []complex128, vsl []T, ldvsl int, vsr []T, ldvsr int) int {
	if core.IsComplex[T]() {
		return gegs[T, complex128](cfg, n, a, lda, b, ldb, alpha, beta, vsl, ldvsl, vsr, ldvsr)
	}
	return gegs[T, float64](cfg, n, a, lda, b, ldb, alpha, beta, vsl, ldvsl, vsr, ldvsr)
}

// gegs is Gegs in geev's work type E.
func gegs[T, E core.Scalar](cfg *core.Config, n int, a []T, lda int, b []T, ldb int, alpha, beta []complex128, vsl []T, ldvsl int, vsr []T, ldvsr int) int {
	if n == 0 {
		return 0
	}
	// M = B⁻¹·A.
	m, bf, blu := make([]E, n*n), make([]E, n*n), make([]E, n*n)
	convertMat(n, n, a, lda, m, n)
	convertMat(n, n, b, ldb, bf, n)
	copy(blu, bf)
	ipiv := make([]int, n)
	if info := Getrf(cfg, n, n, blu, n, ipiv); info != 0 {
		return info
	}
	Getrs(cfg, NoTrans, n, n, blu, n, ipiv, m, n)
	// Schur form of M: M = Z·S′·Zᴴ.
	z := make([]E, n*n)
	if info := geev[E, E](cfg, eigJob{schur: true}, n, m, n, alpha, nil, 1, z, n).Info; info != 0 {
		return info
	}
	// Q·T = B·Z.
	q := make([]E, n*n)
	blas.Gemm(cfg, NoTrans, NoTrans, n, n, n, 1, bf, n, z, n, 0, q, n)
	tau := make([]E, n)
	Geqrf(cfg, n, n, q, n, tau)
	tmat := make([]E, n*n)
	Lacpy('U', n, n, q, n, tmat, n)
	Orgqr(cfg, n, n, n, q, n, tau)
	// S = T·S′ (upper triangular times quasi-triangular), the roundoff below
	// S′'s pattern zeroed.
	s := make([]E, n*n)
	blas.Gemm(cfg, NoTrans, NoTrans, n, n, n, 1, tmat, n, m, n, 0, s, n)
	for j := 0; j < n; j++ {
		for i := j + 2; i < n; i++ {
			s[i+j*n] = 0
		}
		if j > 0 && m[j+(j-1)*n] == 0 {
			s[j+(j-1)*n] = 0
		}
	}
	// A 1×1 block gives (s_ii, t_ii); a 2×2 one the complex pair of the
	// block pencil with beta = 1 (see DESIGN.md), whose alpha geev set.
	for i := 0; i < n; {
		if i < n-1 && s[i+1+i*n] != 0 {
			beta[i], beta[i+1] = 1, 1
			i += 2
		} else {
			alpha[i], beta[i] = core.ToComplex(s[i+i*n]), core.ToComplex(tmat[i+i*n])
			i++
		}
	}
	convertMat(n, n, s, n, a, lda)
	convertMat(n, n, tmat, n, b, ldb)
	if vsl != nil {
		convertMat(n, n, q, n, vsl, ldvsl)
	}
	if vsr != nil {
		convertMat(n, n, z, n, vsr, ldvsr)
	}
	return 0
}

// Gegv computes the generalized eigenvalues and, optionally, the left
// and/or right generalized eigenvectors of the pencil (A, B): A·v = λ·B·v
// and uᴴ·A = λ·uᴴ·B, with λᵢ = alpha[i]/beta[i] (beta = 1). The eigenvectors
// of the real types use the real packing (see Trevc). a and b are destroyed.
// Requires B nonsingular (info > 0 otherwise).
func Gegv[T core.Scalar](cfg *core.Config, jobvl, jobvr bool, n int, a []T, lda int, b []T, ldb int, alpha, beta []complex128, vl []T, ldvl int, vr []T, ldvr int) int {
	if core.IsComplex[T]() {
		return gegv[T, complex128](cfg, jobvl, jobvr, n, a, lda, b, ldb, alpha, beta, vl, ldvl, vr, ldvr)
	}
	return gegv[T, float64](cfg, jobvl, jobvr, n, a, lda, b, ldb, alpha, beta, vl, ldvl, vr, ldvr)
}

// gegv is Gegv in geev's work type E.
func gegv[T, E core.Scalar](cfg *core.Config, jobvl, jobvr bool, n int, a []T, lda int, b []T, ldb int, alpha, beta []complex128, vl []T, ldvl int, vr []T, ldvr int) int {
	if n == 0 {
		return 0
	}
	// The right eigenvectors of the pencil are those of M = B⁻¹·A.
	m, blu := make([]E, n*n), make([]E, n*n)
	convertMat(n, n, a, lda, m, n)
	convertMat(n, n, b, ldb, blu, n)
	ipiv := make([]int, n)
	if info := Getrf(cfg, n, n, blu, n, ipiv); info != 0 {
		return info
	}
	Getrs(cfg, NoTrans, n, n, blu, n, ipiv, m, n)
	var vrf, vlf []E
	if jobvr {
		vrf = make([]E, n*n)
	}
	if jobvl {
		vlf = make([]E, n*n)
	}
	if info := geev[E, E](cfg, eigJob{vl: jobvl, vr: jobvr}, n, m, n, alpha, vlf, n, vrf, n).Info; info != 0 {
		return info
	}
	for i := range beta {
		beta[i] = 1
	}
	if jobvr {
		convertMat(n, n, vrf, n, vr, ldvr)
	}
	if jobvl {
		// The left ones are v = B⁻ᴴ·u for u a left eigenvector of M
		// (uᴴ·B⁻¹·A = λ·uᴴ ⇒ vᴴ·A = λ·vᴴ·B), normalised again — a complex
		// column to unit norm only, without xGEEV's rotation.
		Getrs(cfg, ConjTrans, n, n, blu, n, ipiv, vlf, n)
		if core.IsComplex[E]() {
			for j := 0; j < n; j++ {
				if nrm := blas.Nrm2(n, vlf[j*n:j*n+n], 1); nrm > 0 {
					blas.ScalReal(n, 1/nrm, vlf[j*n:], 1)
				}
			}
		} else {
			normalizeEvecs(n, alpha, vlf, n)
		}
		convertMat(n, n, vlf, n, vl, ldvl)
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
