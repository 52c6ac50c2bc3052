package lapack

import (
	"math"
	"math/cmplx"

	"repro/internal/core"
)

// GeesxResult carries the extra outputs of the expert Schur drivers
// (xGEESX): reciprocal condition numbers for the average of the selected
// eigenvalue cluster (RCondE) and for the corresponding right invariant
// subspace (RCondV).
type GeesxResult struct {
	SDim   int
	RCondE float64
	RCondV float64
	Info   int
}

// sepEstimates computes the xTRSEN condition estimates for a real Schur
// form partitioned after column m: RCONDE = 1/sqrt(1+‖X‖F²) with X the
// solution of T11·X − X·T22 = T12, and RCONDV = sep(T11, T22) estimated
// through the 1-norm estimator on the inverse Sylvester operator.
func sepEstimates(cfg *core.Config, n, m int, t []float64, ldt int) (rconde, rcondv float64) {
	if m == 0 || m == n {
		return 1, Lange(OneNorm, n, n, t, ldt)
	}
	n2 := n - m
	// X solves T11·X − X·T22 = T12.
	x := make([]float64, m*n2)
	Lacpy('A', m, n2, t[m*ldt:], ldt, x, m)
	Trsyl(cfg, false, -1, m, n2, t, ldt, t[m+m*ldt:], ldt, x, m)
	fro := 0.0
	for _, v := range x {
		fro += v * v
	}
	rconde = 1 / math.Sqrt(1+fro)
	// sep: 1/‖inv(Sylvester operator)‖₁ via Lacn2 on the vectorized solve.
	est := Lacn2(m*n2, func(conjTrans bool, v []float64) {
		Trsyl(cfg, conjTrans, -1, m, n2, t, ldt, t[m+m*ldt:], ldt, v, m)
	})
	if est == 0 {
		return rconde, Lange(OneNorm, n, n, t, ldt)
	}
	return rconde, 1 / est
}

// sepEstimatesC is the complex counterpart of sepEstimates.
func sepEstimatesC(n, m int, t []complex128, ldt int) (rconde, rcondv float64) {
	if m == 0 || m == n {
		return 1, Lange(OneNorm, n, n, t, ldt)
	}
	n2 := n - m
	x := make([]complex128, m*n2)
	Lacpy('A', m, n2, t[m*ldt:], ldt, x, m)
	TrsylC(false, -1, m, n2, t, ldt, t[m+m*ldt:], ldt, x, m)
	fro := 0.0
	for _, v := range x {
		fro += real(v)*real(v) + imag(v)*imag(v)
	}
	rconde = 1 / math.Sqrt(1+fro)
	est := Lacn2(m*n2, func(conjTrans bool, v []complex128) {
		TrsylC(conjTrans, -1, m, n2, t, ldt, t[m+m*ldt:], ldt, v, m)
	})
	if est == 0 {
		return rconde, Lange(OneNorm, n, n, t, ldt)
	}
	return rconde, 1 / est
}

// Geesx computes the real Schur factorization with eigenvalue reordering
// and condition estimates (the xGEESX expert driver). sel must be non-nil;
// the selected eigenvalues are moved to the top-left and RCondE/RCondV
// describe the sensitivity of their cluster and invariant subspace.
func Geesx[T core.Float](cfg *core.Config, jobvs bool, sel func(wr, wi float64) bool, n int, a []T, lda int, wr, wi []float64, vs []T, ldvs int) GeesxResult {
	var res GeesxResult
	if n == 0 {
		res.RCondE, res.RCondV = 1, 0
		return res
	}
	h := promoteReal(n, n, a, lda)
	tau := make([]float64, max(0, n-1))
	Gehrd(cfg, n, 0, n-1, h, n, tau)
	z := make([]float64, n*n)
	Lacpy('A', n, n, h, n, z, n)
	Orghr(cfg, n, 0, n-1, z, n, tau)
	if info := Hseqr(cfg, true, n, 0, n-1, h, n, wr, wi, z, n); info != 0 {
		res.Info = info
		return res
	}
	if sel != nil {
		res.SDim = reorderSchur(cfg, n, h, n, z, n, wr, wi, sel)
	}
	res.RCondE, res.RCondV = sepEstimates(cfg, n, res.SDim, h, n)
	demoteReal(n, n, h, a, lda)
	if jobvs {
		demoteReal(n, n, z, vs, ldvs)
	}
	return res
}

// GeesxC is the complex counterpart of Geesx.
func GeesxC[T core.Cmplx](cfg *core.Config, jobvs bool, sel func(w complex128) bool, n int, a []T, lda int, w []complex128, vs []T, ldvs int) GeesxResult {
	var res GeesxResult
	if n == 0 {
		res.RCondE, res.RCondV = 1, 0
		return res
	}
	h := promoteCmplx(n, n, a, lda)
	vsc := make([]complex128, n*n)
	sdim, info := GeesC[complex128](cfg, true, sel, n, h, n, w, vsc, n)
	if info != 0 {
		res.Info = info
		return res
	}
	res.SDim = sdim
	res.RCondE, res.RCondV = sepEstimatesC(n, sdim, h, n)
	demoteCmplx(n, n, h, a, lda)
	if jobvs {
		demoteCmplx(n, n, vsc, vs, ldvs)
	}
	return res
}

// GeevxResult carries the extra outputs of the expert eigendrivers
// (xGEEVX): balancing information and per-eigenvalue reciprocal condition
// numbers for the eigenvalues (RCondE, the cosine between left and right
// eigenvectors) and for the right eigenvectors (RCondV, a sep estimate —
// see DESIGN.md for the estimator used).
type GeevxResult struct {
	ILo, IHi int
	Scale    []float64
	ABNrm    float64
	RCondE   []float64
	RCondV   []float64
	Info     int
}

// condFromVectors computes RCONDE_i = |uᵢᴴ·vᵢ| for unit left/right
// eigenvector pairs in the LAPACK real packing.
func condFromVectors(n int, wi []float64, vl, vr []float64, ldv int, rconde []float64) {
	for j := 0; j < n; j++ {
		if wi[j] == 0 {
			num, nu, nv := 0.0, 0.0, 0.0
			for i := 0; i < n; i++ {
				num += vl[i+j*ldv] * vr[i+j*ldv]
				nu += vl[i+j*ldv] * vl[i+j*ldv]
				nv += vr[i+j*ldv] * vr[i+j*ldv]
			}
			rconde[j] = math.Abs(num) / math.Max(math.Sqrt(nu*nv), 1e-300)
			continue
		}
		var num complex128
		nu, nv := 0.0, 0.0
		for i := 0; i < n; i++ {
			u := complex(vl[i+j*ldv], vl[i+(j+1)*ldv])
			v := complex(vr[i+j*ldv], vr[i+(j+1)*ldv])
			num += cmplx.Conj(u) * v
			nu += real(u)*real(u) + imag(u)*imag(u)
			nv += real(v)*real(v) + imag(v)*imag(v)
		}
		rconde[j] = cmplx.Abs(num) / math.Max(math.Sqrt(nu*nv), 1e-300)
		rconde[j+1] = rconde[j]
		j++
	}
}

// sepPerEigenvalue estimates RCONDV_i = 1/‖(T̃ᵢ − λᵢI)⁻¹‖₁ where T̃ᵢ is the
// complex triangular Schur form with row and column i deleted — the
// deletion approximation of sep(λᵢ, T22) documented in DESIGN.md.
func sepPerEigenvalue(n int, t []complex128, ldt int, w []complex128, rcondv []float64) {
	if n == 1 {
		rcondv[0] = cmplx.Abs(t[0])
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
				sub[ii+jj*m] = t[is+js*ldt]
				ii++
			}
			jj++
		}
		lam := w[i]
		smin := math.SmallestNonzeroFloat64 * 0x1p52
		est := Lacn2(m, func(conjTrans bool, v []complex128) {
			// Solve (sub − λI) x = v (or its conjugate transpose).
			if !conjTrans {
				for k := m - 1; k >= 0; k-- {
					s := v[k]
					for p := k + 1; p < m; p++ {
						s -= sub[k+p*m] * v[p]
					}
					d := sub[k+k*m] - lam
					if cmplx.Abs(d) < smin {
						d = complex(smin, 0)
					}
					v[k] = s / d
				}
			} else {
				for k := 0; k < m; k++ {
					s := v[k]
					for p := 0; p < k; p++ {
						s -= cmplx.Conj(sub[p+k*m]) * v[p]
					}
					d := cmplx.Conj(sub[k+k*m] - lam)
					if cmplx.Abs(d) < smin {
						d = complex(smin, 0)
					}
					v[k] = s / d
				}
			}
		})
		if est == 0 {
			rcondv[i] = Lange(OneNorm, m, m, sub, m)
		} else {
			rcondv[i] = 1 / est
		}
	}
}

// Geevx computes eigenvalues, optional eigenvectors, balancing details and
// condition numbers for a real general matrix (the xGEEVX expert driver).
// Balancing 'B' is always applied, as in the paper's LA_GEEVX default.
func Geevx[T core.Float](cfg *core.Config, jobvl, jobvr bool, n int, a []T, lda int, wr, wi []float64, vl []T, ldvl int, vr []T, ldvr int) GeevxResult {
	res := GeevxResult{
		Scale:  make([]float64, n),
		RCondE: make([]float64, n),
		RCondV: make([]float64, n),
	}
	if n == 0 {
		return res
	}
	// Condition numbers need both eigenvector sets; compute them even if
	// the caller asked for fewer.
	h := promoteReal(n, n, a, lda)
	res.ILo, res.IHi = Gebal[float64]('B', n, h, n, res.Scale)
	res.ABNrm = Lange(OneNorm, n, n, h, n)
	tau := make([]float64, max(0, n-1))
	Gehrd(cfg, n, res.ILo, res.IHi, h, n, tau)
	z := make([]float64, n*n)
	Lacpy('A', n, n, h, n, z, n)
	Orghr(cfg, n, res.ILo, res.IHi, z, n, tau)
	if info := Hseqr(cfg, true, n, res.ILo, res.IHi, h, n, wr, wi, z, n); info != 0 {
		res.Info = info
		return res
	}
	vrw := make([]float64, n*n)
	vlw := make([]float64, n*n)
	TrevcRight(cfg, n, h, n, wr, wi, z, n, vrw, n)
	TrevcLeft(cfg, n, h, n, wr, wi, z, n, vlw, n)
	condFromVectors(n, wi, vlw, vrw, n, res.RCondE)
	// Per-eigenvalue sep estimates on the complex triangular Schur form.
	tc := make([]complex128, n*n)
	for i := 0; i < n*n; i++ {
		tc[i] = complex(h[i], 0)
	}
	wc := make([]complex128, n)
	if info := HseqrC(cfg, true, n, 0, n-1, tc, n, wc, nil, 0); info == 0 {
		// Match the complex eigenvalue order to (wr, wi).
		perm := matchEigenvalues(n, wr, wi, wc)
		rcv := make([]float64, n)
		sepPerEigenvalue(n, tc, n, wc, rcv)
		for i := 0; i < n; i++ {
			res.RCondV[i] = rcv[perm[i]]
		}
	}
	// Back-transform and hand out the requested eigenvectors.
	Gebak[float64]('B', 'R', n, res.ILo, res.IHi, res.Scale, n, vrw, n)
	Gebak[float64]('B', 'L', n, res.ILo, res.IHi, res.Scale, n, vlw, n)
	normalizeEvecs(n, wi, vrw, n)
	normalizeEvecs(n, wi, vlw, n)
	if jobvr {
		demoteReal(n, n, vrw, vr, ldvr)
	}
	if jobvl {
		demoteReal(n, n, vlw, vl, ldvl)
	}
	demoteReal(n, n, h, a, lda)
	return res
}

// matchEigenvalues pairs each (wr, wi) eigenvalue with the closest entry
// of wc, greedily; returns the index map.
func matchEigenvalues(n int, wr, wi []float64, wc []complex128) []int {
	used := make([]bool, n)
	perm := make([]int, n)
	for i := 0; i < n; i++ {
		target := complex(wr[i], wi[i])
		best, bd := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			if d := cmplx.Abs(wc[j] - target); d < bd {
				best, bd = j, d
			}
		}
		used[best] = true
		perm[i] = best
	}
	return perm
}

// GeevxC is the complex counterpart of Geevx.
func GeevxC[T core.Cmplx](cfg *core.Config, jobvl, jobvr bool, n int, a []T, lda int, w []complex128, vl []T, ldvl int, vr []T, ldvr int) GeevxResult {
	res := GeevxResult{
		Scale:  make([]float64, n),
		RCondE: make([]float64, n),
		RCondV: make([]float64, n),
	}
	if n == 0 {
		return res
	}
	h := promoteCmplx(n, n, a, lda)
	res.ILo, res.IHi = Gebal[complex128]('B', n, h, n, res.Scale)
	res.ABNrm = Lange(OneNorm, n, n, h, n)
	tau := make([]complex128, max(0, n-1))
	Gehrd(cfg, n, res.ILo, res.IHi, h, n, tau)
	z := make([]complex128, n*n)
	Lacpy('A', n, n, h, n, z, n)
	Orghr(cfg, n, res.ILo, res.IHi, z, n, tau)
	if info := HseqrC(cfg, true, n, res.ILo, res.IHi, h, n, w, z, n); info != 0 {
		res.Info = info
		return res
	}
	vrw := make([]complex128, n*n)
	vlw := make([]complex128, n*n)
	TrevcRightC(cfg, n, h, n, z, n, vrw, n)
	TrevcLeftC(cfg, n, h, n, z, n, vlw, n)
	for j := 0; j < n; j++ {
		var num complex128
		nu, nv := 0.0, 0.0
		for i := 0; i < n; i++ {
			num += cmplx.Conj(vlw[i+j*n]) * vrw[i+j*n]
			nu += real(vlw[i+j*n])*real(vlw[i+j*n]) + imag(vlw[i+j*n])*imag(vlw[i+j*n])
			nv += real(vrw[i+j*n])*real(vrw[i+j*n]) + imag(vrw[i+j*n])*imag(vrw[i+j*n])
		}
		res.RCondE[j] = cmplx.Abs(num) / math.Max(math.Sqrt(nu*nv), 1e-300)
	}
	sepPerEigenvalue(n, h, n, w, res.RCondV)
	Gebak[complex128]('B', 'R', n, res.ILo, res.IHi, res.Scale, n, vrw, n)
	Gebak[complex128]('B', 'L', n, res.ILo, res.IHi, res.Scale, n, vlw, n)
	normC := func(v []complex128) {
		for j := 0; j < n; j++ {
			nrm := 0.0
			for i := 0; i < n; i++ {
				nrm += real(v[i+j*n])*real(v[i+j*n]) + imag(v[i+j*n])*imag(v[i+j*n])
			}
			if nrm > 0 {
				s := complex(1/math.Sqrt(nrm), 0)
				for i := 0; i < n; i++ {
					v[i+j*n] *= s
				}
			}
		}
	}
	normC(vrw)
	normC(vlw)
	if jobvr {
		demoteCmplx(n, n, vrw, vr, ldvr)
	}
	if jobvl {
		demoteCmplx(n, n, vlw, vl, ldvl)
	}
	demoteCmplx(n, n, h, a, lda)
	return res
}
