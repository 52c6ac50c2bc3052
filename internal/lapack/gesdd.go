package lapack

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
)

// svdQRCross reports whether the tall QR-first preprocessing pays off: for
// m ≥ 5n/3 (xGESDD path 1, same crossover as xGESVD's MNTHR) a blocked QR
// plus an n×n SVD plus one GEMM beats bidiagonalizing the full m×n matrix.
func svdQRCross(m, n int) bool {
	return m > n && 3*m >= 5*n
}

// svdTallQRFirst implements xGESDD path 1 for m ≥ 5n/3: factor A = Q·R
// with a blocked Geqrf, SVD the n×n R, and recover U = Q·U_R with one
// GEMM. Vᴴ comes out of the inner drive directly. The wide mirror
// (LQ-first) is reached through the callers' conjugate transpose path.
//
// With vectors the SVD of R is Gesdd, which scales R again if the QR took
// it out of the safely squarable range (‖R‖max can reach √m·‖A‖max). The
// values-only drive, Gebrd and Bdsqr, squares entries only in its shifts,
// which stay finite for the R of any scaled A, so it runs on R as it stands.
func svdTallQRFirst[T core.Scalar](cfg *core.Config, jobu, jobvt SVDJob, m, n int, a []T, lda int, s []float64, u []T, ldu int, vt []T, ldvt int) int {
	one := core.FromFloat[T](1)
	zero := core.FromFloat[T](0)
	tau := make([]T, n)
	ts := geqrfT(cfg, m, n, a, lda, tau)
	defer ts.release()
	r := blas.GetScratch[T](n * n)
	defer blas.PutScratch(r)
	Laset('A', n, n, 0, 0, r, n)
	Lacpy('U', n, n, a, lda, r, n)
	jobuR := SVDNone
	var ur []T
	var ldur int
	if jobu != SVDNone {
		jobuR = SVDSome
		ur = blas.GetScratch[T](n * n)
		defer blas.PutScratch(ur)
		ldur = n
	}
	inner := Gesdd[T]
	if jobu == SVDNone && jobvt == SVDNone {
		inner = gesddScaled[T]
	}
	if info := inner(cfg, jobuR, jobvt, n, n, r, n, s, ur, ldur, vt, ldvt); info != 0 {
		return info
	}
	if jobu != SVDNone {
		ucols := n
		if jobu == SVDAll {
			ucols = m
		}
		Lacpy('L', m, n, a, lda, u, ldu)
		orgqr(cfg, m, ucols, n, u, ldu, tau, ts)
		// First n columns become Q(:, 0:n)·U_R; for jobu 'A' the trailing
		// m−n columns of Q are already the remaining left vectors.
		tmp := blas.GetScratch[T](m * n)
		defer blas.PutScratch(tmp)
		blas.Gemm(cfg, NoTrans, NoTrans, m, n, n, one, u, ldu, ur, n, zero, tmp, m)
		Lacpy('A', m, n, tmp, m, u, ldu)
	}
	return 0
}

// Gesdd computes the singular value decomposition A = U·Σ·Vᴴ of an m×n
// matrix (the xGESDD driver, and every SVD of the library: f77's GESVD,
// la's GESVD and Ggsvd's step 2). s receives the min(m,n) singular values
// in descending order and jobu/jobvt select how much of U (m×m or
// m×min(m,n)) and Vᴴ (n×n or min(m,n)×n) is formed. a is destroyed.
// Returns non-zero if the bidiagonal iteration fails.
//
// There is one drive: A is scaled into the safely squarable range, wide
// matrices transpose into the tall path, matrices with m ≥ 5n/3 take a
// blocked Geqrf first and run the SVD on the n×n R (U = Q·U_R with one
// GEMM), and the rest is bidiagonalized. With vectors the bidiagonal
// singular vectors are accumulated in float64 by Bdsdc (divide & conquer)
// and applied to the Orgbr bases with one GEMM each; with neither U nor Vᴴ
// wanted the values-only Bdsqr iteration does less work than the D&C merge
// tree and runs instead.
func Gesdd[T core.Scalar](cfg *core.Config, jobu, jobvt SVDJob, m, n int, a []T, lda int, s []float64, u []T, ldu int, vt []T, ldvt int) int {
	mn := min(m, n)
	if mn == 0 {
		return 0
	}
	// Scale A into [smlnum, bignum] first (xGESDD's xLASCL step). The D&C
	// secular solve works on squared singular values, so entries anywhere
	// near sqrt(overflow) would take the recursion to Inf even though the
	// true σ are representable; symmetrically, subnormal-range entries lose
	// their low bits when squared. Singular vectors are scale-invariant;
	// the σ are multiplied back on the way out (overflowing to Inf only
	// when the true value does).
	if anrm, target := svdScaleTarget[T](Lange(MaxAbs, m, n, a, lda)); target != 0 {
		Lascl(MatGeneral, anrm, target, m, n, a, lda)
		info := gesddScaled(cfg, jobu, jobvt, m, n, a, lda, s, u, ldu, vt, ldvt)
		if info == 0 {
			scl := anrm / target
			for i := 0; i < mn; i++ {
				s[i] *= scl
			}
		}
		return info
	}
	return gesddScaled(cfg, jobu, jobvt, m, n, a, lda, s, u, ldu, vt, ldvt)
}

// svdScaleTarget returns anrm and the magnitude ‖A‖max should be scaled to
// before a drive that squares singular values: sqrt(safmin)/ε when anrm is
// below it, its reciprocal when above, 0 (leave A alone) when anrm is inside
// that range, zero, Inf or NaN.
func svdScaleTarget[T core.Scalar](anrm float64) (float64, float64) {
	if !(anrm > 0) || math.IsInf(anrm, 0) {
		return anrm, 0
	}
	smlnum := math.Sqrt(core.SafeMin[T]()) / core.Eps[T]()
	switch bignum := 1 / smlnum; {
	case anrm < smlnum:
		return anrm, smlnum
	case anrm > bignum:
		return anrm, bignum
	}
	return anrm, 0
}

// gesddScaled is the Gesdd drive proper, entered once the input is known to
// sit in the safely-squarable range.
func gesddScaled[T core.Scalar](cfg *core.Config, jobu, jobvt SVDJob, m, n int, a []T, lda int, s []float64, u []T, ldu int, vt []T, ldvt int) int {
	mn := min(m, n)
	one := core.FromFloat[T](1)
	zero := core.FromFloat[T](0)
	if m < n {
		// Wide case: Aᴴ = V·Σ·Uᴴ, so run the tall path on the blocked
		// conjugate transpose and swap the roles of U and Vᴴ.
		ah := blas.GetScratch[T](n * m)
		defer blas.PutScratch(ah)
		blas.ConjTransposeTo(m, n, a, lda, ah, n)
		var up, vtp []T
		var ldup, ldvtp int
		if jobvt != SVDNone {
			cols := mn
			if jobvt == SVDAll {
				cols = n
			}
			up = blas.GetScratch[T](n * cols)
			defer blas.PutScratch(up)
			ldup = n
		}
		if jobu != SVDNone {
			rows := mn
			if jobu == SVDAll {
				rows = m
			}
			vtp = blas.GetScratch[T](rows * m)
			defer blas.PutScratch(vtp)
			ldvtp = rows
		}
		info := Gesdd(cfg, jobvt, jobu, n, m, ah, n, s, up, ldup, vtp, ldvtp)
		if jobu != SVDNone {
			cols := mn
			if jobu == SVDAll {
				cols = m
			}
			// U of A = (V'ᴴ)ᴴ.
			blas.ConjTransposeTo(cols, m, vtp, ldvtp, u, ldu)
		}
		if jobvt != SVDNone {
			rows := mn
			if jobvt == SVDAll {
				rows = n
			}
			// Vᴴ of A = U'ᴴ.
			blas.ConjTransposeTo(n, rows, up, ldup, vt, ldvt)
		}
		return info
	}
	if svdQRCross(m, n) {
		// Path 1: A = Q·R, SVD the n×n R, then U = Q·U_R with one GEMM.
		return svdTallQRFirst(cfg, jobu, jobvt, m, n, a, lda, s, u, ldu, vt, ldvt)
	}
	// Square / moderately tall: bidiagonalize, run the f64 D&C, and apply
	// the accumulated singular vector matrices to the Orgbr bases with one
	// GEMM on each side.
	de, tau := blas.GetScratch[float64](2*n), blas.GetScratch[T](2*n)
	defer blas.PutScratch(de)
	defer blas.PutScratch(tau)
	d, e, tauq, taup := de[:n], de[n:2*n-1], tau[:n], tau[n:]
	Gebrd(cfg, m, n, a, lda, d, e, tauq, taup)
	if jobu == SVDNone && jobvt == SVDNone {
		// Values only: the QR iteration without vectors.
		info := Bdsqr[T](cfg, n, d, e, nil, 0, 0, nil, 0, 0)
		copy(s[:n], d)
		return info
	}
	u0 := blas.GetScratch[float64](n * n)
	defer blas.PutScratch(u0)
	vt0 := blas.GetScratch[float64](n * n)
	defer blas.PutScratch(vt0)
	if info := Bdsdc(cfg, n, d, e, u0, n, vt0, n); info != 0 {
		return info
	}
	copy(s[:n], d[:n])
	if jobu != SVDNone {
		ucols := n
		if jobu == SVDAll {
			ucols = m
		}
		Lacpy('L', m, n, a, lda, u, ldu)
		Orgbr(cfg, 'Q', m, ucols, n, u, ldu, tauq)
		u0t := blas.GetScratch[T](n * n)
		defer blas.PutScratch(u0t)
		blas.ConvertF64(n, n, u0, n, u0t, n)
		tmp := blas.GetScratch[T](m * n)
		defer blas.PutScratch(tmp)
		blas.Gemm(cfg, NoTrans, NoTrans, m, n, n, one, u, ldu, u0t, n, zero, tmp, m)
		Lacpy('A', m, n, tmp, m, u, ldu)
	}
	if jobvt != SVDNone {
		Lacpy('U', n, n, a, lda, vt, ldvt)
		Orgbr(cfg, 'P', n, n, n, vt, ldvt, taup)
		vt0t := blas.GetScratch[T](n * n)
		defer blas.PutScratch(vt0t)
		blas.ConvertF64(n, n, vt0, n, vt0t, n)
		tmp := blas.GetScratch[T](n * n)
		defer blas.PutScratch(tmp)
		blas.Gemm(cfg, NoTrans, NoTrans, n, n, n, one, vt0t, n, vt, ldvt, zero, tmp, n)
		Lacpy('A', n, n, tmp, n, vt, ldvt)
	}
	return 0
}

// Gelsd computes the minimum-norm solution to a possibly rank-deficient
// least squares problem min ‖b − A·x‖₂ using the divide-and-conquer SVD
// (the xGELSD driver, and f77's GELSS and la's GELSS/GELSD): b is
// max(m, n)×nrhs and is overwritten with the solution, s receives the
// singular values, and rank counts σᵢ > rcond·σ₀ (rcond < 0 means ε).
//
// The pseudo-inverse application x = V·Σ⁺·Uᴴ·b runs as two multi-RHS GEMM
// calls, so the whole drive — bidiagonal D&C included — stays on the
// Level-3 engine. Tall problems past the svdQRCross crossover never form U
// at all (gelsdTall).
func Gelsd[T core.Scalar](cfg *core.Config, m, n, nrhs int, a []T, lda int, b []T, ldb int, s []float64, rcond float64) (rank, info int) {
	if svdQRCross(m, n) && n > 0 {
		return gelsdTall(cfg, m, n, nrhs, a, lda, b, ldb, s, rcond)
	}
	return gelsdSVD(cfg, m, n, nrhs, a, lda, b, ldb, s, rcond)
}

// gelsdTall is Gelsd for m well above n, the way xGELSD does it: A = Q·R,
// B := Qᴴ·B applied from the factored form, then the n×n problem
// min ‖(QᴴB)(0:n) − R·x‖. Q is never generated, so the m×n products of the
// direct drive (Q·U_R and Uᴴ·B) and their scratch disappear. The ‖A‖max
// pre-scaling of Gesdd comes first, in front of the QR, so entries near the
// overflow or underflow thresholds are safe to square from the first
// reflector on; x and σ are scaled back at the end.
func gelsdTall[T core.Scalar](cfg *core.Config, m, n, nrhs int, a []T, lda int, b []T, ldb int, s []float64, rcond float64) (rank, info int) {
	anrm, target := svdScaleTarget[T](Lange(MaxAbs, m, n, a, lda))
	if target != 0 {
		Lascl(MatGeneral, anrm, target, m, n, a, lda)
	}
	tau := blas.GetScratch[T](n)
	defer blas.PutScratch(tau)
	ts := geqrfT(cfg, m, n, a, lda, tau)
	ormqr(cfg, Left, ConjTrans, m, nrhs, n, a, lda, tau, b, ldb, ts)
	ts.release()
	r := blas.GetScratch[T](n * n)
	defer blas.PutScratch(r)
	Laset('A', n, n, 0, 0, r, n)
	Lacpy('U', n, n, a, lda, r, n)
	rank, info = gelsdSVD(cfg, n, n, nrhs, r, n, b, ldb, s, rcond)
	if info == 0 && target != 0 {
		// (c·A)·x' = b has x = c·x' and σ = σ'/c, c = target/anrm.
		Lascl(MatGeneral, anrm, target, n, nrhs, b, ldb)
		Lascl(MatGeneral, target, anrm, n, 1, s, n)
	}
	return rank, info
}

// gelsdSVD is the direct Gelsd drive: SVD of A by Gesdd, then the
// pseudo-inverse as two GEMMs.
func gelsdSVD[T core.Scalar](cfg *core.Config, m, n, nrhs int, a []T, lda int, b []T, ldb int, s []float64, rcond float64) (rank, info int) {
	mn := min(m, n)
	if mn == 0 {
		return 0, 0
	}
	if rcond < 0 {
		rcond = core.Eps[T]()
	}
	u := blas.GetScratch[T](m * mn)
	defer blas.PutScratch(u)
	vt := blas.GetScratch[T](mn * n)
	defer blas.PutScratch(vt)
	info = Gesdd(cfg, SVDSome, SVDSome, m, n, a, lda, s, u, m, vt, mn)
	if info != 0 {
		return 0, info
	}
	for i := 0; i < mn; i++ {
		if s[i] > rcond*s[0] {
			rank++
		}
	}
	if rank == 0 {
		for j := 0; j < nrhs; j++ {
			for i := 0; i < n; i++ {
				b[i+j*ldb] = 0
			}
		}
		return 0, 0
	}
	one := core.FromFloat[T](1)
	zero := core.FromFloat[T](0)
	// w = Uᴴ·B, row-scaled by Σ⁺.
	w := blas.GetScratch[T](mn * nrhs)
	defer blas.PutScratch(w)
	blas.Gemm(cfg, ConjTrans, NoTrans, mn, nrhs, m, one, u, m, b, ldb, zero, w, mn)
	for i := 0; i < rank; i++ {
		inv := core.FromFloat[T](1 / s[i])
		for j := 0; j < nrhs; j++ {
			w[i+j*mn] *= inv
		}
	}
	// x = Vᴴᵀ·w over the leading rank rows of Vᴴ.
	x := blas.GetScratch[T](n * nrhs)
	defer blas.PutScratch(x)
	blas.Gemm(cfg, ConjTrans, NoTrans, n, nrhs, rank, one, vt, mn, w, mn, zero, x, n)
	for j := 0; j < nrhs; j++ {
		copy(b[j*ldb:j*ldb+n], x[j*n:j*n+n])
	}
	return rank, 0
}
