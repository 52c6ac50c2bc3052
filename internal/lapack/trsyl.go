package lapack

import (
	"math"

	"repro/internal/core"
)

// lasy2Work is lasy2g's scratch: the Kronecker system, its right-hand side
// and pivots. Getrf and Getrs keep what they are handed, so a system on the
// stack would move to the heap at every solve; one of these per Trsyl or
// reorder call serves all its blocks.
type lasy2Work[E core.Scalar] struct {
	m    [16]E
	rhs  [4]E
	ipiv [4]int
}

// lasy2g solves the small Sylvester equation TL·X + isgn·X·TR = B for
// n1×n2 blocks with n1, n2 ∈ {1, 2} (xLASY2 without its scale, which is
// always 1 here). Element (i, k) of TL is tl[i+k·ldtl], or tl[k+i·ldtl] with
// trans, and likewise for TR, so the transposed blocks of Trsyl's second op
// are read in place. The Kronecker system is assembled explicitly in w and
// solved with the dense LU kernel; if the system is numerically singular the
// pivot is perturbed, as in the reference (see DESIGN.md).
func lasy2g[E core.Scalar](cfg *core.Config, w *lasy2Work[E], trans bool, isgn, n1, n2 int, tl []E, ldtl int, tr []E, ldtr int, b []E, ldb int) (x [4]E) {
	nn := n1 * n2
	rl, cl, rr, cr := 1, ldtl, 1, ldtr // element (i, k) of TL is tl[i·rl+k·cl]
	if trans {
		rl, cl, rr, cr = ldtl, 1, ldtr, 1
	}
	m, rhs := w.m[:nn*nn], w.rhs[:nn]
	clear(m)
	sg := core.FromFloat[E](float64(isgn))
	for j := 0; j < n2; j++ {
		for i := 0; i < n1; i++ {
			row := i + j*n1
			rhs[row] = b[i+j*ldb]
			for l := 0; l < n2; l++ {
				for k := 0; k < n1; k++ {
					col := k + l*n1
					var v E
					if j == l {
						v += tl[i*rl+k*cl]
					}
					if i == k {
						v += sg * tr[l*rr+j*cr]
					}
					m[row+col*nn] += v
				}
			}
		}
	}
	mnorm := 0.0
	for _, v := range m {
		mnorm = math.Max(mnorm, core.Abs(v))
	}
	if info := Getrf(cfg, nn, nn, m, nn, w.ipiv[:nn]); info != 0 {
		k := info - 1
		m[k+k*nn] = core.FromFloat[E](math.Max(core.EpsDouble*mnorm, core.SafeMin[float64]()))
	}
	Getrs(cfg, NoTrans, nn, 1, m, nn, w.ipiv[:nn], rhs, nn)
	copy(x[:], rhs)
	return x
}

// blockEnd returns the end (exclusive) of the diagonal block of a Schur form
// that starts at k: k+2 where the subdiagonal is nonzero, a 2×2 block of a
// real quasi-triangular t, else k+1 — always for a complex triangular t.
func blockEnd[E core.Scalar](n int, t []E, ldt, k int) int {
	if k < n-1 && t[k+1+k*ldt] != 0 {
		return k + 2
	}
	return k + 1
}

// blockStart returns the start of the diagonal block that ends (exclusive)
// at k.
func blockStart[E core.Scalar](t []E, ldt, k int) int {
	if k > 1 && t[k-1+(k-2)*ldt] != 0 {
		return k - 2
	}
	return k - 1
}

// Trsyl solves the Sylvester equation
//
//	op(A)·X + isgn·X·op(B) = C
//
// for X (m×n), where A (m×m) and B (n×n) are Schur forms — upper
// quasi-triangular for the real types, upper triangular for the complex ones
// — and op is the identity (trans false) or, applied to both A and B as
// xTRSEN requires, the transpose (trans true; the conjugate transpose for
// complex E) (xTRSYL). C is overwritten by X. The solve is blockwise: a
// block with a 2×2 side runs the xLASY2 kernel, a 1×1 block is one division
// whose divisor is raised to SafeMin when its modulus lies below. Near-singular
// systems are perturbed rather than scaled, so the scale factor of the
// reference interface is always reported as 1 (see DESIGN.md).
func Trsyl[E core.Scalar](cfg *core.Config, trans bool, isgn, m, n int, a []E, lda int, b []E, ldb int, c []E, ldc int) float64 {
	if m == 0 || n == 0 {
		return 1
	}
	if trans && core.IsComplex[E]() {
		// conj(Aᴴ·X + isgn·X·Bᴴ − C) = Aᵀ·X̄ + isgn·X̄·Bᵀ − C̄: the transposed
		// loops below solve for X̄ from C̄, with no conjugation inside them.
		conjC := func() {
			for j := 0; j < n; j++ {
				lacgv(m, c[j*ldc:], 1)
			}
		}
		conjC()
		defer conjC()
	}
	sg := core.FromFloat[E](float64(isgn))
	safmin := core.SafeMin[float64]()
	var w *lasy2Work[E]
	// solve overwrites C(K, L), K = k1:k2 and L = l1:l2, with the solution of
	// the diagonal block's equation for the right-hand side rhs.
	solve := func(k1, k2, l1, l2 int, rhs *[4]E) {
		nk := k2 - k1
		if nk == 1 && l2-l1 == 1 {
			d := a[k1+k1*lda] + sg*b[l1+l1*ldb]
			if core.Abs(d) < safmin {
				d = core.FromFloat[E](safmin)
			}
			c[k1+l1*ldc] = rhs[0] / d
			return
		}
		if w == nil {
			w = new(lasy2Work[E])
		}
		x := lasy2g(cfg, w, trans, isgn, nk, l2-l1, a[k1+k1*lda:], lda, b[l1+l1*ldb:], ldb, rhs[:], nk)
		for j := l1; j < l2; j++ {
			for i := k1; i < k2; i++ {
				c[i+j*ldc] = x[(i-k1)+(j-l1)*nk]
			}
		}
	}
	if !trans {
		// A·X + isgn·X·B = C: K from bottom to top, L from left to right.
		for l1, l2 := 0, 0; l1 < n; l1 = l2 {
			l2 = blockEnd(n, b, ldb, l1)
			for k1, k2 := m, m; k2 > 0; k2 = k1 {
				k1 = blockStart(a, lda, k2)
				// RHS block = C(K,L) − A(K, K2:)·X(K2:, L) − isgn·X(K, :L1)·B(:L1, L).
				var rhs [4]E
				for j := l1; j < l2; j++ {
					for i := k1; i < k2; i++ {
						s := c[i+j*ldc]
						for p := k2; p < m; p++ {
							s -= a[i+p*lda] * c[p+j*ldc]
						}
						for q := 0; q < l1; q++ {
							s -= sg * c[i+q*ldc] * b[q+j*ldb]
						}
						rhs[(i-k1)+(j-l1)*(k2-k1)] = s
					}
				}
				solve(k1, k2, l1, l2, &rhs)
			}
		}
		return 1
	}
	// Aᵀ·X + isgn·X·Bᵀ = C: K from top to bottom, L from right to left.
	for l1, l2 := n, n; l2 > 0; l2 = l1 {
		l1 = blockStart(b, ldb, l2)
		for k1, k2 := 0, 0; k1 < m; k1 = k2 {
			k2 = blockEnd(m, a, lda, k1)
			var rhs [4]E
			for j := l1; j < l2; j++ {
				for i := k1; i < k2; i++ {
					s := c[i+j*ldc]
					for p := 0; p < k1; p++ {
						s -= a[p+i*lda] * c[p+j*ldc]
					}
					for q := l2; q < n; q++ {
						s -= sg * c[i+q*ldc] * b[j+q*ldb]
					}
					rhs[(i-k1)+(j-l1)*(k2-k1)] = s
				}
			}
			solve(k1, k2, l1, l2, &rhs)
		}
	}
	return 1
}
