package lapack

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
)

// GgsvdResult carries the outputs of Ggsvd, the decomposition
//
//	A = U · diag(Alpha) · X      X = R·Qᴴ   (A is m×n, X is n×n)
//	B = V · diag(Beta)  · X                 (B is p×n)
//
// with Alpha² + Beta² = 1 componentwise, Alpha descending and Beta
// ascending. Columns of U (m×n) with Alpha > 0 are orthonormal, as are
// columns of V (p×n) with Beta > 0; columns multiplied by a zero
// generalized singular value are zero. R is n×n upper triangular and Q is
// n×n unitary. The generalized singular values are Alpha[i]/Beta[i].
//
// K and L follow the xGGSVD convention loosely: L is the numerical rank of
// B and K = n − L (see DESIGN.md — this driver is the Van Loan
// CS-decomposition route, assuming the stacked [A; B] has full column
// rank).
type GgsvdResult struct {
	K, L  int
	Alpha []float64
	Beta  []float64
	Info  int
}

// Ggsvd computes the generalized singular value decomposition of the pair
// (A, B) (the xGGSVD driver). u, v, q, r may be nil to skip an output;
// a and b are destroyed. Requires m+p >= n.
func Ggsvd[T core.Scalar](cfg *core.Config, m, p, n int, a []T, lda int, b []T, ldb int, u []T, ldu int, v []T, ldv int, q []T, ldq int, r []T, ldr int) GgsvdResult {
	res := GgsvdResult{Alpha: make([]float64, n), Beta: make([]float64, n)}
	if n == 0 {
		return res
	}
	if m+p < n {
		res.Info = -3
		return res
	}
	one := core.FromFloat[T](1)
	zero := core.FromFloat[T](0)

	// Step 1: QR of the stacked matrix, Z0 = [A; B] = Qs·Rs.
	mp := m + p
	z0 := make([]T, mp*n)
	Lacpy('A', m, n, a, lda, z0, mp)
	Lacpy('A', p, n, b, ldb, z0[m:], mp)
	tau := make([]T, n)
	Geqrf(cfg, mp, n, z0, mp, tau)
	rs := make([]T, n*n)
	Lacpy('U', n, n, z0, mp, rs, n)
	Orgqr(cfg, mp, n, n, z0, mp, tau)
	q1 := z0     // the A block of the orthonormal factor (m×n)
	q2 := z0[m:] // the B block (p×n)

	// Step 2: SVD of the B block: Q2 = V2·S2·W1ᴴ with W1ᴴ full n×n.
	minpn := min(p, n)
	var v2 []T
	ldv2 := max(1, p)
	if p > 0 {
		v2 = make([]T, p*minpn)
	}
	w1t := make([]T, n*n)
	s2 := make([]float64, minpn)
	q2c := make([]T, max(1, p)*n)
	Lacpy('A', p, n, q2, mp, q2c, max(1, p))
	if p > 0 {
		if info := Gesdd(cfg, SVDSome, SVDAll, p, n, q2c, max(1, p), s2, v2, ldv2, w1t, n); info != 0 {
			res.Info = info
			return res
		}
	} else {
		Laset('A', n, n, zero, one, w1t, n)
	}

	// Step 3: reorder so Beta ascends (zero sines, from the null rows of
	// W1ᴴ, come first): reverse the n W-directions.
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		blas.Swap(n, w1t[i:], n, w1t[j:], n)
	}
	for i := 0; i < n; i++ {
		j := n - 1 - i // original SVD index of direction i after reversal
		if j < minpn {
			res.Beta[i] = math.Min(1, s2[j])
		}
		res.Alpha[i] = math.Sqrt(math.Max(0, 1-res.Beta[i]*res.Beta[i]))
	}

	// Step 4: X = W1ᴴ·Rs, RQ-factored as X = R·Qrq.
	x := make([]T, n*n)
	blas.Gemm(cfg, NoTrans, NoTrans, n, n, n, one, w1t, n, rs, n, zero, x, n)
	if r != nil || q != nil {
		xc := make([]T, n*n)
		Lacpy('A', n, n, x, n, xc, n)
		taur := make([]T, n)
		Gerq2(cfg, n, n, xc, n, taur)
		if r != nil {
			Laset('A', n, n, zero, zero, r, ldr)
			Lacpy('U', n, n, xc, n, r, ldr)
		}
		if q != nil {
			qrq := make([]T, n*n)
			Lacpy('A', n, n, xc, n, qrq, n)
			Orgr2(cfg, n, n, n, qrq, n, taur)
			// Q of the GSVD is Qrqᴴ.
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					q[j+i*ldq] = core.Conj(qrq[i+j*n])
				}
			}
		}
	}

	// Step 5: U from the cosine block. The columns of Q1·W are orthogonal
	// with norms Alpha (CS structure); normalizing the significant ones
	// gives U directly, and zero-Alpha columns stay zero.
	tol := float64(n) * core.Eps[T]()
	if u != nil && m > 0 {
		w := make([]T, n*n) // W = (W1ᴴ)ᴴ after the reordering
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				w[i+j*n] = core.Conj(w1t[j+i*n])
			}
		}
		q1w := make([]T, m*n)
		blas.Gemm(cfg, NoTrans, NoTrans, m, n, n, one, q1, mp, w, n, zero, q1w, m)
		Laset('A', m, n, zero, zero, u, ldu)
		for j := 0; j < n; j++ {
			if res.Alpha[j] > tol {
				blas.Copy(m, q1w[j*m:], 1, u[j*ldu:], 1)
				blas.ScalReal(m, 1/res.Alpha[j], u[j*ldu:], 1)
			}
		}
	}

	// Step 6: V columns paired with the reordered Beta.
	if v != nil && p > 0 {
		Laset('A', p, n, zero, zero, v, ldv)
		for i := 0; i < n; i++ {
			j := n - 1 - i
			if j < minpn && res.Beta[i] > tol {
				blas.Copy(p, v2[j*ldv2:], 1, v[i*ldv:], 1)
			}
		}
	}

	for i := 0; i < n; i++ {
		if res.Beta[i] > tol {
			res.L++
		}
	}
	res.K = n - res.L
	return res
}
