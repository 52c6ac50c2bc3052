package lapack

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
)

// rfs is the iterative refinement of every format (xyyRFS): it refines X
// (n×nrhs, ldx) for op(A)·X = B and fills in the componentwise backward
// errors berr and the forward error bounds ferr, following the algorithm of
// xGERFS, with the matrix reached through s.mul, s.absMul and s.solve. For a
// symmetric format trans is NoTrans.
func (s *system[T]) rfs(trans Trans, nrhs int, b []T, ldb int, x []T, ldx int, ferr, berr []float64) {
	n := s.n
	if n == 0 || nrhs == 0 {
		for j := 0; j < nrhs; j++ {
			ferr[j], berr[j] = 0, 0
		}
		return
	}
	const itmax = 5
	nz := float64(n + 1)
	eps := core.Eps[T]()
	safmin := core.SafeMin[T]()
	safe1 := nz * safmin
	safe2 := safe1 / eps
	transBack := TransT
	if core.IsComplex[T]() {
		transBack = ConjTrans
	}
	r := make([]T, n)
	w := make([]float64, n)
	xa := make([]float64, n)
	one := core.FromFloat[T](1)
	for j := 0; j < nrhs; j++ {
		bj := b[j*ldb:]
		xj := x[j*ldx:]
		lstres := 3.0
		for count := 1; ; count++ {
			// r = b - op(A)·x
			blas.Copy(n, bj, 1, r, 1)
			s.mul(trans, -one, xj, one, r)
			// w = |b| + |op(A)|·|x| componentwise.
			for i := 0; i < n; i++ {
				w[i] = core.Abs1(bj[i])
				xa[i] = core.Abs1(xj[i])
			}
			s.absMul(trans, xa, w)
			e := 0.0
			for i := 0; i < n; i++ {
				if w[i] > safe2 {
					e = math.Max(e, core.Abs1(r[i])/w[i])
				} else {
					e = math.Max(e, (core.Abs1(r[i])+safe1)/(w[i]+safe1))
				}
			}
			if math.IsNaN(e) {
				// Non-finite solution or residual (e.g. the true solution
				// overflows float64): Inf − Inf poisoned the residual. The
				// backward error is not merely large, it is unbounded —
				// report +Inf, never NaN, and stop refining.
				e = math.Inf(1)
			}
			berr[j] = e
			if !(berr[j] > eps && 2*berr[j] <= lstres && count <= itmax) {
				break
			}
			s.solve(trans, 1, r, n)
			blas.Axpy(n, one, r, 1, xj, 1)
			lstres = berr[j]
		}
		// Forward error: estimate ||inv(op(A))·diag(w)||_∞ where
		// w_i = |r_i| + nz·eps·(|op(A)||x| + |b|)_i.
		for i := 0; i < n; i++ {
			if w[i] > safe2 {
				w[i] = core.Abs1(r[i]) + nz*eps*w[i]
			} else {
				w[i] = core.Abs1(r[i]) + nz*eps*w[i] + safe1
			}
		}
		ferr[j] = Lacn2(n, func(conjTrans bool, v []T) {
			if conjTrans {
				tr := transBack
				if trans != NoTrans {
					tr = NoTrans
				}
				s.solve(tr, 1, v, n)
				for i := 0; i < n; i++ {
					v[i] *= core.FromFloat[T](w[i])
				}
			} else {
				for i := 0; i < n; i++ {
					v[i] *= core.FromFloat[T](w[i])
				}
				s.solve(trans, 1, v, n)
			}
		})
		lstres = 0
		for i := 0; i < n; i++ {
			lstres = math.Max(lstres, core.Abs1(xj[i]))
		}
		if lstres != 0 {
			ferr[j] /= lstres
		}
		if math.IsNaN(ferr[j]) {
			// Inf/Inf (overflowed solution scaled by an overflowed
			// estimate) — the bound is unbounded, not undefined.
			ferr[j] = math.Inf(1)
		}
	}
}
