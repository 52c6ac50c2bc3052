package lapack

import (
	"repro/internal/blas"
	"repro/internal/core"
)

// Trtrs solves op(A)·X = B for a triangular matrix, checking for exact
// singularity first (xTRTRS). Returns i > 0 if A(i,i) is exactly zero.
func Trtrs[T core.Scalar](cfg *core.Config, uplo Uplo, trans Trans, diag Diag, n, nrhs int, a []T, lda int, b []T, ldb int) int {
	if diag == NonUnit {
		for i := 0; i < n; i++ {
			if a[i+i*lda] == 0 {
				return i + 1
			}
		}
	}
	blas.Trsm(cfg, Left, uplo, trans, diag, n, nrhs, core.FromFloat[T](1), a, lda, b, ldb)
	return 0
}

// Gels solves over- or under-determined systems op(A)·X = B using a QR or
// LQ factorization, assuming A has full rank (the xGELS driver). A is m×n;
// B is max(m, n)×nrhs: on entry its first rows hold B, on exit its first
// rows hold the solution (and, for the overdetermined case, the trailing
// rows of B hold residual information). Returns i > 0 if the triangular
// factor is exactly singular.
func Gels[T core.Scalar](cfg *core.Config, trans Trans, m, n, nrhs int, a []T, lda int, b []T, ldb int) int {
	mn := min(m, n)
	if mn == 0 || nrhs == 0 {
		return 0
	}
	tau := make([]T, mn)
	ctrans := ConjTrans
	if m >= n {
		// The factorization's block triangles go straight to the apply.
		ts := geqrfT(cfg, m, n, a, lda, tau)
		defer ts.release()
		if trans == NoTrans {
			// Least squares: x = R⁻¹·(Qᴴ·b)(1:n).
			ormqr(cfg, Left, ctrans, m, nrhs, n, a, lda, tau, b, ldb, ts)
			return Trtrs(cfg, Upper, NoTrans, NonUnit, n, nrhs, a, lda, b, ldb)
		}
		// Minimum-norm solution of Aᴴ·x = b: x = Q·[R⁻ᴴ·b; 0].
		if info := Trtrs(cfg, Upper, ctrans, NonUnit, n, nrhs, a, lda, b, ldb); info != 0 {
			return info
		}
		for j := 0; j < nrhs; j++ {
			for i := n; i < m; i++ {
				b[i+j*ldb] = 0
			}
		}
		ormqr(cfg, Left, NoTrans, m, nrhs, n, a, lda, tau, b, ldb, ts)
		return 0
	}
	Gelqf(cfg, m, n, a, lda, tau)
	if trans == NoTrans {
		// Minimum-norm solution: x = Qᴴ·[L⁻¹·b; 0].
		if info := Trtrs(cfg, Lower, NoTrans, NonUnit, m, nrhs, a, lda, b, ldb); info != 0 {
			return info
		}
		for j := 0; j < nrhs; j++ {
			for i := m; i < n; i++ {
				b[i+j*ldb] = 0
			}
		}
		Ormlq(cfg, Left, ctrans, n, nrhs, m, a, lda, tau, b, ldb)
		return 0
	}
	// Overdetermined Aᴴ·x = b: x = L⁻ᴴ·(Q·b)(1:m).
	Ormlq(cfg, Left, NoTrans, n, nrhs, m, a, lda, tau, b, ldb)
	return Trtrs(cfg, Lower, ctrans, NonUnit, m, nrhs, a, lda, b, ldb)
}

// Gelsx computes the minimum-norm solution to a possibly rank-deficient
// least squares problem using a complete orthogonal factorization
// (the xGELSX driver, implemented with the xGELSY algorithm: column-pivoted
// QR, rank decision against rcond on the R diagonal, RZ factorization of
// the leading rows, triangular solve and back-permutation). Returns the
// determined rank. B is max(m, n)×nrhs.
func Gelsx[T core.Scalar](cfg *core.Config, m, n, nrhs int, a []T, lda int, jpvt []int, rcond float64, b []T, ldb int) (rank int) {
	mn := min(m, n)
	if mn == 0 {
		return 0
	}
	if rcond <= 0 {
		rcond = core.Eps[T]()
	}
	tau := make([]T, mn)
	Geqpf(cfg, m, n, a, lda, jpvt, tau)
	// Determine the numerical rank from the R diagonal.
	rank = 0
	r00 := core.Abs(a[0])
	for i := 0; i < mn; i++ {
		if core.Abs(a[i+i*lda]) > rcond*r00 {
			rank++
		} else {
			break
		}
	}
	if rank == 0 {
		for j := 0; j < nrhs; j++ {
			for i := 0; i < n; i++ {
				b[i+j*ldb] = 0
			}
		}
		return 0
	}
	// B := Qᴴ·B.
	Ormqr(cfg, Left, ConjTrans, m, nrhs, mn, a, lda, tau, b, ldb)
	var tauz []T
	if rank < n {
		// Complete orthogonal factorization: R(1:rank, 1:n) = [T 0]·Z.
		tauz = make([]T, rank)
		Tzrzf(cfg, rank, n, a, lda, tauz)
	}
	// Solve T(1:rank,1:rank)·y = (QᴴB)(1:rank).
	Trtrs(cfg, Upper, NoTrans, NonUnit, rank, nrhs, a, lda, b, ldb)
	for j := 0; j < nrhs; j++ {
		for i := rank; i < n; i++ {
			b[i+j*ldb] = 0
		}
	}
	if rank < n {
		// B := Zᴴ·[y; 0].
		Ormrz(cfg, Left, ConjTrans, n, nrhs, rank, n-rank, a, lda, tauz, b, ldb)
	}
	// Undo the column permutation: x(jpvt[i]) = y(i).
	tmp := make([]T, n)
	for j := 0; j < nrhs; j++ {
		for i := 0; i < n; i++ {
			tmp[jpvt[i]] = b[i+j*ldb]
		}
		for i := 0; i < n; i++ {
			b[i+j*ldb] = tmp[i]
		}
	}
	return rank
}

// Gglse solves the linear equality-constrained least squares problem
//
//	minimize ‖c − A·x‖₂  subject to  B·x = d
//
// (the xGGLSE driver). A is m×n, B is p×n with p <= n <= m+p, c has length
// m and d length p. The solution is written to x (length n). The method is
// the textbook null-space approach: a QR factorization of Bᴴ splits x into
// a particular solution of the constraint plus a free part solved by
// unconstrained least squares (see DESIGN.md, substitutions). Returns
// info > 0 if B or the reduced A lacks full rank.
func Gglse[T core.Scalar](cfg *core.Config, m, n, p int, a []T, lda int, b []T, ldb int, c, d, x []T) int {
	one := core.FromFloat[T](1)
	// Factor Bᴴ = Q·[R; 0], so B = [Rᴴ 0]·Qᴴ and x = Q·[y1; y2].
	bh := make([]T, n*p)
	for i := 0; i < p; i++ {
		for j := 0; j < n; j++ {
			bh[j+i*n] = core.Conj(b[i+j*ldb])
		}
	}
	tau := make([]T, min(n, p))
	Geqrf(cfg, n, p, bh, n, tau)
	// Constraint: B·x = Rᴴ·y1 = d.
	y := make([]T, n)
	copy(y[:p], d[:p])
	if info := Trtrs(cfg, Upper, ConjTrans, NonUnit, p, 1, bh, n, y, n); info != 0 {
		return info
	}
	// A·Q splits into [A1 A2]: c̃ = c − A1·y1; minimize over y2.
	aq := make([]T, m*n)
	Lacpy('A', m, n, a, lda, aq, m)
	Ormqr(cfg, Right, NoTrans, m, n, min(n, p), bh, n, tau, aq, m)
	ct := make([]T, m)
	copy(ct, c[:m])
	blas.Gemv(cfg, NoTrans, m, p, -one, aq, m, y, 1, one, ct, 1)
	// Unconstrained LS for y2 in the trailing n−p columns.
	if n > p {
		a2 := make([]T, m*(n-p))
		Lacpy('A', m, n-p, aq[p*m:], m, a2, m)
		rhs := make([]T, max(m, n-p))
		copy(rhs, ct)
		if info := Gels(cfg, NoTrans, m, n-p, 1, a2, m, rhs, max(m, n-p)); info != 0 {
			return p + info
		}
		copy(y[p:n], rhs[:n-p])
	}
	// x = Q·y.
	copy(x[:n], y)
	Ormqr(cfg, Left, NoTrans, n, 1, min(n, p), bh, n, tau, x, n)
	return 0
}

// Ggglm solves the general Gauss–Markov linear model problem
//
//	minimize ‖y‖₂  subject to  d = A·x + B·y
//
// (the xGGGLM driver). A is n×m, B is n×p with m <= n <= m+p; d has length
// n. The solutions are written to x (length m) and y (length p). The
// method factors A = Q·[R; 0] and solves the reduced problem for y by
// minimum-norm least squares (see DESIGN.md, substitutions). Returns
// info > 0 on rank deficiency.
func Ggglm[T core.Scalar](cfg *core.Config, n, m, p int, a []T, lda int, b []T, ldb int, d, x, y []T) int {
	// Factor A = Q·[R; 0].
	tau := make([]T, min(n, m))
	Geqrf(cfg, n, m, a, lda, tau)
	// Transform: Qᴴ·d and Qᴴ·B.
	qd := make([]T, n)
	copy(qd, d[:n])
	Ormqr(cfg, Left, ConjTrans, n, 1, min(n, m), a, lda, tau, qd, n)
	qb := make([]T, n*p)
	Lacpy('A', n, p, b, ldb, qb, n)
	Ormqr(cfg, Left, ConjTrans, n, p, min(n, m), a, lda, tau, qb, n)
	// Bottom block: (QᴴB)(m+1:n, :)·y = (Qᴴd)(m+1:n) with minimum ‖y‖.
	if n > m {
		b2 := make([]T, (n-m)*p)
		Lacpy('A', n-m, p, qb[m:], n, b2, n-m)
		rhs := make([]T, max(n-m, p))
		copy(rhs[:n-m], qd[m:n])
		if info := Gels(cfg, NoTrans, n-m, p, 1, b2, n-m, rhs, max(n-m, p)); info != 0 {
			return m + info
		}
		copy(y[:p], rhs[:p])
	} else {
		for i := 0; i < p; i++ {
			y[i] = 0
		}
	}
	// Top block: R·x = (Qᴴd)(1:m) − (QᴴB)(1:m,:)·y.
	one := core.FromFloat[T](1)
	blas.Gemv(cfg, NoTrans, m, p, -one, qb, n, y, 1, one, qd, 1)
	if info := Trtrs(cfg, Upper, NoTrans, NonUnit, m, 1, a, lda, qd, n); info != 0 {
		return info
	}
	copy(x[:m], qd[:m])
	return 0
}
