package lapack

import (
	"math"
	"math/cmplx"

	"repro/internal/core"
)

// The condition stage of the nonsymmetric drivers with sense (xGEESX,
// xGEEVX), one body for both fields in geev's work type E.

// sepEstimates computes the xTRSEN condition estimates for a Schur form
// partitioned after column m: RCONDE = 1/sqrt(1+‖X‖F²) with X the solution
// of T11·X − X·T22 = T12 (Trsyl), and RCONDV = sep(T11, T22) estimated
// through the 1-norm estimator on the inverse Sylvester operator.
func sepEstimates[E core.Scalar](cfg *core.Config, n, m int, t []E, ldt int) (rconde, rcondv float64) {
	if m == 0 || m == n {
		return 1, Lange(OneNorm, n, n, t, ldt)
	}
	n2 := n - m
	solve := func(conjTrans bool, x []E) {
		Trsyl(cfg, conjTrans, -1, m, n2, t, ldt, t[m+m*ldt:], ldt, x, m)
	}
	x := make([]E, m*n2)
	Lacpy('A', m, n2, t[m*ldt:], ldt, x, m)
	solve(false, x)
	fro := 0.0
	for _, v := range x {
		fro += abs2(v)
	}
	rconde = 1 / math.Sqrt(1+fro)
	if est := Lacn2(m*n2, solve); est != 0 {
		return rconde, 1 / est
	}
	return rconde, Lange(OneNorm, n, n, t, ldt)
}

// abs2 is |v|².
func abs2[E core.Scalar](v E) float64 {
	re, im := core.Re(v), core.Im(v)
	return re*re + im*im
}

// condFromVectors computes RCONDE_j = |u_jᴴ·v_j| / (‖u_j‖·‖v_j‖) from the
// left and right eigenvectors in the columns of vl and vr; for real E a
// complex w[j] marks a pair of the real packing.
func condFromVectors[E core.Scalar](n int, w []complex128, vl, vr []E, ldv int, rconde []float64) {
	for j := 0; j < n; j++ {
		var num complex128
		nu, nv := 0.0, 0.0
		pair := !core.IsComplex[E]() && imag(w[j]) != 0
		for i := 0; i < n; i++ {
			u, v := core.ToComplex(vl[i+j*ldv]), core.ToComplex(vr[i+j*ldv])
			if pair {
				u = complex(real(u), core.Re(vl[i+(j+1)*ldv]))
				v = complex(real(v), core.Re(vr[i+(j+1)*ldv]))
			}
			num += cmplx.Conj(u) * v
			nu += abs2(u)
			nv += abs2(v)
		}
		rconde[j] = cmplx.Abs(num) / math.Max(math.Sqrt(nu*nv), 1e-300)
		if pair {
			j++
			rconde[j] = rconde[j-1]
		}
	}
}

// sepPerEigenvalue estimates RCONDV_i = 1/‖(T̃ᵢ − λᵢI)⁻¹‖₁ where T̃ᵢ is the
// complex triangular Schur form with row and column i deleted — the deletion
// approximation of sep(λᵢ, T22) documented in DESIGN.md. A real
// quasi-triangular t is first made triangular by schurToComplex.
func sepPerEigenvalue[E core.Scalar](cfg *core.Config, n int, t []E, ldt int, w []complex128, rcondv []float64) {
	tc := make([]complex128, n*n)
	convertMat(n, n, t, ldt, tc, n)
	if !core.IsComplex[E]() {
		schurToComplex(n, tc, n, w, nil, 0)
	}
	if n == 1 {
		rcondv[0] = cmplx.Abs(tc[0])
		if rcondv[0] == 0 {
			rcondv[0] = 1
		}
		return
	}
	m := n - 1
	sub := make([]complex128, m*m)
	for i := 0; i < n; i++ {
		// Build T with row/column i deleted (still upper triangular).
		for jj := 0; jj < m; jj++ {
			col := tc[jj*n : jj*n+n]
			if jj >= i {
				col = tc[(jj+1)*n : (jj+1)*n+n]
			}
			copy(sub[jj*m:jj*m+i], col)
			copy(sub[jj*m+i:jj*m+m], col[i+1:])
		}
		lam := []complex128{w[i]}
		est := Lacn2(m, func(conjTrans bool, v []complex128) {
			// Solve (sub − λI) x = v (or its conjugate transpose).
			Trsyl(cfg, conjTrans, -1, m, 1, sub, m, lam, 1, v, m)
		})
		if est == 0 {
			rcondv[i] = Lange(OneNorm, m, m, sub, m)
		} else {
			rcondv[i] = 1 / est
		}
	}
}

// schurToComplex makes the real Schur form held in the complex matrix tc
// (n×n) upper triangular with the eigenvalues w on its diagonal, in order.
// A standardized 2×2 block [a b; c a] (b·c < 0) has for its eigenvalue
// w[i] = a + iμ the eigenvector (√|b|, iσ·√|c|), σ = sign(μ·b), so the complex
// rotation G with that vector's direction as its first column gives
// Gᴴ·B·G = [w[i] *; 0 w[i+1]]: tc ← Gᴴ·tc·G on rows and columns i and i+1,
// and z ← z·G if z is non-nil.
func schurToComplex(n int, tc []complex128, ldt int, w []complex128, z []complex128, ldz int) {
	for i := 0; i < n-1; i++ {
		b, c := math.Abs(real(tc[i+(i+1)*ldt])), math.Abs(real(tc[i+1+i*ldt]))
		if c == 0 {
			continue
		}
		g1 := complex(math.Sqrt(b/(b+c)), 0)
		g2 := complex(0, math.Sqrt(c/(b+c)))
		if (imag(w[i]) < 0) != (real(tc[i+(i+1)*ldt]) < 0) {
			g2 = -g2
		}
		planeRot(n-i, tc[i+i*ldt:], ldt, tc[i+1+i*ldt:], ldt, g1, cmplx.Conj(g2), g2)
		planeRot(i+2, tc[i*ldt:], 1, tc[(i+1)*ldt:], 1, g1, g2, cmplx.Conj(g2))
		if z != nil {
			planeRot(n, z[i*ldz:], 1, z[(i+1)*ldz:], 1, g1, g2, cmplx.Conj(g2))
		}
		tc[i+i*ldt], tc[i+1+i*ldt], tc[i+1+(i+1)*ldt] = w[i], 0, w[i+1]
		i++
	}
}
