package lapack

import (
	"math"
	"math/cmplx"

	"repro/internal/core"
)

// lasy2g solves the small Sylvester equation TL·X + isgn·X·TR = B for
// n1×n2 blocks with n1, n2 ∈ {1, 2} (xLASY2 without its scale, which is
// always 1 here). The Kronecker system is assembled explicitly and solved
// with the dense LU kernel; if the system is numerically singular the pivot
// is perturbed, as in the reference (see DESIGN.md). Returns the solution
// and max|X|.
func lasy2g(cfg *core.Config, isgn int, n1, n2 int, tl []float64, ldtl int, tr []float64, ldtr int, b []float64, ldb int) (x [4]float64, xnorm float64) {
	nn := n1 * n2
	var m [16]float64
	var rhs [4]float64
	sg := float64(isgn)
	for j := 0; j < n2; j++ {
		for i := 0; i < n1; i++ {
			row := i + j*n1
			rhs[row] = b[i+j*ldb]
			for l := 0; l < n2; l++ {
				for k := 0; k < n1; k++ {
					col := k + l*n1
					v := 0.0
					if j == l {
						v += tl[i+k*ldtl]
					}
					if i == k {
						v += sg * tr[l+j*ldtr]
					}
					m[row+col*nn] += v
				}
			}
		}
	}
	mnorm := 0.0
	for i := 0; i < nn*nn; i++ {
		mnorm = math.Max(mnorm, math.Abs(m[i]))
	}
	smin := math.Max(core64eps*mnorm, math.SmallestNonzeroFloat64*0x1p52)
	ipiv := make([]int, nn)
	if info := Getrf(cfg, nn, nn, m[:nn*nn], nn, ipiv); info != 0 {
		k := info - 1
		m[k+k*nn] = smin
	}
	Getrs(cfg, NoTrans, nn, 1, m[:nn*nn], nn, ipiv, rhs[:nn], nn)
	for i := 0; i < nn; i++ {
		x[i] = rhs[i]
		xnorm = math.Max(xnorm, math.Abs(rhs[i]))
	}
	return x, xnorm
}

// schurBlocks returns the starting indices of the diagonal blocks of a
// real quasi-triangular matrix.
func schurBlocks(n int, t []float64, ldt int) []int {
	var starts []int
	for i := 0; i < n; {
		starts = append(starts, i)
		if i < n-1 && t[i+1+i*ldt] != 0 {
			i += 2
		} else {
			i++
		}
	}
	return starts
}

// Trsyl solves the real quasi-triangular Sylvester equation
//
//	op(A)·X + isgn·X·op(B) = C
//
// for X (m×n), where A (m×m) and B (n×n) are upper quasi-triangular Schur
// forms and op is the identity (trans false) or the transpose (trans true,
// applied to both A and B as xTRSEN requires) (xTRSYL). C is overwritten
// by X. The solve is blockwise with the xLASY2 kernel; near-singular small
// systems are perturbed rather than scaled, so the scale factor of the
// reference interface is always reported as 1 (see DESIGN.md).
func Trsyl(cfg *core.Config, trans bool, isgn, m, n int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) float64 {
	if m == 0 || n == 0 {
		return 1
	}
	ab := schurBlocks(m, a, lda)
	bb := schurBlocks(n, b, ldb)
	sg := float64(isgn)
	blockSize := func(starts []int, idx, n int) int {
		if idx == len(starts)-1 {
			return n - starts[idx]
		}
		return starts[idx+1] - starts[idx]
	}
	if !trans {
		// A·X + isgn·X·B = C: K from bottom to top, L from left to right.
		for li := 0; li < len(bb); li++ {
			l1 := bb[li]
			l2 := l1 + blockSize(bb, li, n) // exclusive
			for ki := len(ab) - 1; ki >= 0; ki-- {
				k1 := ab[ki]
				k2 := k1 + blockSize(ab, ki, m)
				// RHS block = C(K,L) − A(K, K2:)·X(K2:, L) − isgn·X(K, :L1)·B(:L1, L).
				var rhs [4]float64
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
				x, _ := lasy2g(cfg, isgn, k2-k1, l2-l1, a[k1+k1*lda:], lda, b[l1+l1*ldb:], ldb, rhs[:], k2-k1)
				for j := l1; j < l2; j++ {
					for i := k1; i < k2; i++ {
						c[i+j*ldc] = x[(i-k1)+(j-l1)*(k2-k1)]
					}
				}
			}
		}
		return 1
	}
	// Aᵀ·X + isgn·X·Bᵀ = C: K from top to bottom, L from right to left.
	for li := len(bb) - 1; li >= 0; li-- {
		l1 := bb[li]
		l2 := l1 + blockSize(bb, li, n)
		for ki := 0; ki < len(ab); ki++ {
			k1 := ab[ki]
			k2 := k1 + blockSize(ab, ki, m)
			var rhs [4]float64
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
			// Transposed diagonal blocks.
			var tlt, trt [4]float64
			nk := k2 - k1
			nl := l2 - l1
			for i := 0; i < nk; i++ {
				for j := 0; j < nk; j++ {
					tlt[i+j*nk] = a[k1+j+(k1+i)*lda]
				}
			}
			for i := 0; i < nl; i++ {
				for j := 0; j < nl; j++ {
					trt[i+j*nl] = b[l1+j+(l1+i)*ldb]
				}
			}
			x, _ := lasy2g(cfg, isgn, nk, nl, tlt[:], nk, trt[:], nl, rhs[:], nk)
			for j := l1; j < l2; j++ {
				for i := k1; i < k2; i++ {
					c[i+j*ldc] = x[(i-k1)+(j-l1)*nk]
				}
			}
		}
	}
	return 1
}

// TrsylC solves the complex triangular Sylvester equation
// op(A)·X + isgn·X·op(B) = C with upper triangular A (m×m) and B (n×n);
// op is the identity or the conjugate transpose. C is overwritten by X.
func TrsylC(conjTrans bool, isgn, m, n int, a []complex128, lda int, b []complex128, ldb int, c []complex128, ldc int) float64 {
	if m == 0 || n == 0 {
		return 1
	}
	sg := complex(float64(isgn), 0)
	smin := math.SmallestNonzeroFloat64 * 0x1p52
	guard := func(d complex128) complex128 {
		if cmplx.Abs(d) < smin {
			return complex(smin, 0)
		}
		return d
	}
	if !conjTrans {
		for l := 0; l < n; l++ {
			for k := m - 1; k >= 0; k-- {
				s := c[k+l*ldc]
				for p := k + 1; p < m; p++ {
					s -= a[k+p*lda] * c[p+l*ldc]
				}
				for q := 0; q < l; q++ {
					s -= sg * c[k+q*ldc] * b[q+l*ldb]
				}
				c[k+l*ldc] = s / guard(a[k+k*lda]+sg*b[l+l*ldb])
			}
		}
		return 1
	}
	for l := n - 1; l >= 0; l-- {
		for k := 0; k < m; k++ {
			s := c[k+l*ldc]
			for p := 0; p < k; p++ {
				s -= cmplx.Conj(a[p+k*lda]) * c[p+l*ldc]
			}
			for q := l + 1; q < n; q++ {
				s -= sg * c[k+q*ldc] * cmplx.Conj(b[l+q*ldb])
			}
			c[k+l*ldc] = s / guard(cmplx.Conj(a[k+k*lda])+sg*cmplx.Conj(b[l+l*ldb]))
		}
	}
	return 1
}
