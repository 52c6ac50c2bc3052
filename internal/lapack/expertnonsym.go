package lapack

import (
	"math"
	"math/cmplx"

	"repro/internal/core"
)

// The condition stage of the nonsymmetric drivers with sense (xGEESX,
// xGEEVX), in geev's work type E.

// sepEstimates computes the xTRSEN condition estimates for a Schur form
// partitioned after column m: RCONDE = 1/sqrt(1+‖X‖F²) with X the solution
// of T11·X − X·T22 = T12 (Trsyl, or TrsylC for complex E), and RCONDV =
// sep(T11, T22) estimated through the 1-norm estimator on the inverse
// Sylvester operator.
func sepEstimates[E core.Scalar](cfg *core.Config, n, m int, t []E, ldt int) (rconde, rcondv float64) {
	if m == 0 || m == n {
		return 1, Lange(OneNorm, n, n, t, ldt)
	}
	n2 := n - m
	solve := func(conjTrans bool, x []E) {
		switch x := any(x).(type) {
		case []float64:
			tr := any(t).([]float64)
			Trsyl(cfg, conjTrans, -1, m, n2, tr, ldt, tr[m+m*ldt:], ldt, x, m)
		case []complex128:
			tc := any(t).([]complex128)
			TrsylC(conjTrans, -1, m, n2, tc, ldt, tc[m+m*ldt:], ldt, x, m)
		}
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
// quasi-triangular t is first triangularised by its own HseqrC, whose
// eigenvalues are matched to w.
func sepPerEigenvalue[E core.Scalar](cfg *core.Config, n int, t []E, ldt int, w []complex128, rcondv []float64) {
	tc, ok := any(t).([]complex128)
	if !ok {
		tc = make([]complex128, n*n)
		convertMat(n, n, t, ldt, tc, n)
		wc := make([]complex128, n)
		if HseqrC(cfg, true, n, 0, n-1, tc, n, wc, nil, 0) != 0 {
			return
		}
		rcv := make([]float64, n)
		sepPerEigenvalue(cfg, n, tc, n, wc, rcv)
		for i, p := range matchEigenvalues(w, wc) {
			rcondv[i] = rcv[p]
		}
		return
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
		for jj, js := 0, 0; js < n; js++ {
			if js == i {
				continue
			}
			for ii, is := 0, 0; is < n; is++ {
				if is == i {
					continue
				}
				sub[ii+jj*m] = tc[is+js*ldt]
				ii++
			}
			jj++
		}
		lam := []complex128{w[i]}
		est := Lacn2(m, func(conjTrans bool, v []complex128) {
			// Solve (sub − λI) x = v (or its conjugate transpose).
			TrsylC(conjTrans, -1, m, 1, sub, m, lam, 1, v, m)
		})
		if est == 0 {
			rcondv[i] = Lange(OneNorm, m, m, sub, m)
		} else {
			rcondv[i] = 1 / est
		}
	}
}

// matchEigenvalues pairs each eigenvalue of w with the closest unused entry
// of wc, greedily, and returns the index map.
func matchEigenvalues(w, wc []complex128) []int {
	used := make([]bool, len(wc))
	perm := make([]int, len(w))
	for i, target := range w {
		best, bd := -1, math.Inf(1)
		for j, c := range wc {
			if d := cmplx.Abs(c - target); !used[j] && d < bd {
				best, bd = j, d
			}
		}
		used[best] = true
		perm[i] = best
	}
	return perm
}
