package lapack

import (
	"math"

	"repro/internal/core"
)

// swapWork is the scratch of a reordering's swaps with a 2×2 block: Laexc's
// copy of the two blocks, its reflectors, a Larf row or column (length n) and
// lasy2g's system. The reflectors live here because Larf keeps what it is
// handed: a slice literal would move to the heap at every swap.
type swapWork struct {
	lasy2Work[float64]
	d      [16]float64
	u1, u2 [4]float64
	larf   []float64
}

// Laexc swaps adjacent diagonal blocks of sizes n1 and n2 of a real Schur
// form T, one of them 2×2, the first block starting at row/column j
// (0-based), by an orthogonal similarity transformation that q (n×n)
// accumulates (xLAEXC; two 1×1 blocks are swap11's). Returns 1 if the swap
// was rejected because the blocks are too close to swap stably, else 0.
func Laexc(cfg *core.Config, n int, t []float64, ldt int, q []float64, ldq int, j, n1, n2 int, w *swapWork) int {
	j1, j2, j3, j4 := j, j+1, j+2, j+3
	nd := n1 + n2
	// Copy the diagonal block and solve the swap Sylvester equation.
	d, work := w.d[:], w.larf
	Lacpy('A', nd, nd, t[j1+j1*ldt:], ldt, d, nd)
	dnorm := 0.0
	for jj := 0; jj < nd; jj++ {
		for ii := 0; ii < nd; ii++ {
			dnorm = math.Max(dnorm, math.Abs(d[ii+jj*nd]))
		}
	}
	thresh := math.Max(10*core.EpsDouble*dnorm, core.SafeMin[float64]())
	// TL·X − X·TR = B: xLASY2's scale is 1 here, as lasy2g never scales.
	x := lasy2g(cfg, &w.lasy2Work, false, -1, n1, n2, d, nd, d[n1+n1*nd:], nd, d[n1*nd:], nd)
	applyLR := func(u []float64, tau float64, dst []float64, ld int, rows, cols int) {
		Larf(cfg, Left, rows, cols, u, 1, tau, dst, ld, work)
		Larf(cfg, Right, rows, cols, u, 1, tau, dst, ld, work)
	}
	switch {
	case n1 == 1 && n2 == 2:
		// Reflector H with (1, X11, X12)·H = (0, 0, *).
		w.u1 = [4]float64{1, x[0], x[1], 0}
		u := w.u1[:]
		tau := Larfg(3, &u[2], u[:2], 1)
		u[2] = 1
		t11 := t[j1+j1*ldt]
		applyLR(u, tau, d, nd, 3, 3)
		if math.Max(math.Abs(d[2]), math.Max(math.Abs(d[2+nd]), math.Abs(d[2+2*nd]-t11))) > thresh {
			return 1
		}
		Larf(cfg, Left, 3, n-j1, u, 1, tau, t[j1+j1*ldt:], ldt, work)
		Larf(cfg, Right, j2+1, 3, u, 1, tau, t[j1*ldt:], ldt, work)
		t[j3+j1*ldt] = 0
		t[j3+j2*ldt] = 0
		t[j3+j3*ldt] = t11
		Larf(cfg, Right, n, 3, u, 1, tau, q[j1*ldq:], ldq, work)
	case n1 == 2 && n2 == 1:
		// Reflector H with H·(−X11, −X21, 1)ᵀ = (*, 0, 0)ᵀ.
		w.u1 = [4]float64{-x[0], -x[1], 1, 0}
		u := w.u1[:]
		tau := Larfg(3, &u[0], u[1:3], 1)
		u[0] = 1
		t33 := t[j3+j3*ldt]
		applyLR(u, tau, d, nd, 3, 3)
		if math.Max(math.Abs(d[1]), math.Max(math.Abs(d[2]), math.Abs(d[0]-t33))) > thresh {
			return 1
		}
		Larf(cfg, Right, j3+1, 3, u, 1, tau, t[j1*ldt:], ldt, work)
		Larf(cfg, Left, 3, n-j1-1, u, 1, tau, t[j1+j2*ldt:], ldt, work)
		t[j1+j1*ldt] = t33
		t[j2+j1*ldt] = 0
		t[j3+j1*ldt] = 0
		Larf(cfg, Right, n, 3, u, 1, tau, q[j1*ldq:], ldq, work)
	default: // 2×2 and 2×2
		w.u1 = [4]float64{-x[0], -x[1], 1, 0}
		u1 := w.u1[:]
		tau1 := Larfg(3, &u1[0], u1[1:3], 1)
		u1[0] = 1
		temp := -tau1 * (x[2] + u1[1]*x[3])
		w.u2 = [4]float64{-temp*u1[1] - x[3], -temp * u1[2], 1, 0}
		u2 := w.u2[:]
		tau2 := Larfg(3, &u2[0], u2[1:3], 1)
		u2[0] = 1
		Larf(cfg, Left, 3, 4, u1, 1, tau1, d, nd, work)
		Larf(cfg, Right, 4, 3, u1, 1, tau1, d, nd, work)
		Larf(cfg, Left, 3, 4, u2, 1, tau2, d[1:], nd, work)
		Larf(cfg, Right, 4, 3, u2, 1, tau2, d[nd:], nd, work)
		if math.Max(math.Max(math.Abs(d[2]), math.Abs(d[2+nd])),
			math.Max(math.Abs(d[3]), math.Abs(d[3+nd]))) > thresh {
			return 1
		}
		Larf(cfg, Left, 3, n-j1, u1, 1, tau1, t[j1+j1*ldt:], ldt, work)
		Larf(cfg, Right, j4+1, 3, u1, 1, tau1, t[j1*ldt:], ldt, work)
		Larf(cfg, Left, 3, n-j1, u2, 1, tau2, t[j2+j1*ldt:], ldt, work)
		Larf(cfg, Right, j4+1, 3, u2, 1, tau2, t[j2*ldt:], ldt, work)
		t[j3+j1*ldt] = 0
		t[j3+j2*ldt] = 0
		t[j4+j1*ldt] = 0
		t[j4+j2*ldt] = 0
		Larf(cfg, Right, n, 3, u1, 1, tau1, q[j1*ldq:], ldq, work)
		Larf(cfg, Right, n, 3, u2, 1, tau2, q[j2*ldq:], ldq, work)
	}
	// Standardize the new 2×2 blocks: the second one now starts at j, the
	// first at j+n2.
	for _, blk := range [2][2]int{{n2, j1}, {n1, j1 + n2}} {
		k := blk[1]
		if blk[0] != 2 {
			continue
		}
		var cs, sn float64
		t[k+k*ldt], t[k+(k+1)*ldt], t[k+1+k*ldt], t[k+1+(k+1)*ldt],
			_, _, _, _, cs, sn = Lanv2(t[k+k*ldt], t[k+(k+1)*ldt], t[k+1+k*ldt], t[k+1+(k+1)*ldt])
		if k+2 < n {
			rotRows(t, ldt, k, k+1, k+2, n-1, cs, sn)
		}
		rotCols(t, ldt, k, k+1, 0, k-1, cs, sn)
		rotCols(q, ldq, k, k+1, 0, n-1, cs, sn)
	}
	return 0
}
