package lapack

import (
	"math"

	"repro/internal/core"
)

const core64eps = 0x1p-52

// Laexc swaps adjacent diagonal blocks of sizes n1 and n2 (each 1 or 2) in
// a real Schur form T, the first block starting at row/column j (0-based),
// by an orthogonal similarity transformation (xLAEXC). q (n×n), if
// non-nil, accumulates the transformation. Returns 1 if the swap was
// rejected because the blocks are too close to swap stably, else 0.
func Laexc(cfg *core.Config, wantq bool, n int, t []float64, ldt int, q []float64, ldq int, j, n1, n2 int) int {
	if n1 == 0 || n2 == 0 || j+n1 >= n {
		return 0
	}
	j1 := j
	j2 := j + 1
	j3 := j + 2
	j4 := j + 3
	eps := core64eps
	smlnum := math.SmallestNonzeroFloat64 * 0x1p52
	if n1 == 1 && n2 == 1 {
		// Swap by a single Givens rotation.
		t11 := t[j1+j1*ldt]
		t22 := t[j2+j2*ldt]
		cs, sn, _ := Lartg(t[j1+j2*ldt], t22-t11)
		if j1+2 < n {
			rotRows(t, ldt, j1, j2, j1+2, n-1, cs, sn)
		}
		rotCols(t, ldt, j1, j2, 0, j1-1, cs, sn)
		t[j1+j1*ldt] = t22
		t[j2+j2*ldt] = t11
		if wantq && q != nil {
			rotCols(q, ldq, j1, j2, 0, n-1, cs, sn)
		}
		return 0
	}
	nd := n1 + n2
	// Copy the diagonal block and solve the swap Sylvester equation.
	var d [16]float64
	Lacpy('A', nd, nd, t[j1+j1*ldt:], ldt, d[:], nd)
	dnorm := 0.0
	for jj := 0; jj < nd; jj++ {
		for ii := 0; ii < nd; ii++ {
			dnorm = math.Max(dnorm, math.Abs(d[ii+jj*nd]))
		}
	}
	thresh := math.Max(10*eps*dnorm, smlnum)
	// TL·X − X·TR = B: xLASY2's scale is 1 here, as lasy2g never scales.
	x, _ := lasy2g(cfg, -1, n1, n2, d[:], nd, d[n1+n1*nd:], nd, d[n1*nd:], nd)

	work := make([]float64, max(4, n))
	applyLR := func(u []float64, tau float64, dst []float64, ld int, rows, cols int) {
		Larf(cfg, Left, rows, cols, u, 1, tau, dst, ld, work)
		Larf(cfg, Right, rows, cols, u, 1, tau, dst, ld, work)
	}
	switch {
	case n1 == 1 && n2 == 2:
		// Reflector H with (1, X11, X12)·H = (0, 0, *).
		u := []float64{1, x[0], x[1], 0}
		tau := Larfg(3, &u[2], u[:2], 1)
		u[2] = 1
		t11 := t[j1+j1*ldt]
		applyLR(u, tau, d[:], nd, 3, 3)
		if math.Max(math.Abs(d[2]), math.Max(math.Abs(d[2+nd]), math.Abs(d[2+2*nd]-t11))) > thresh {
			return 1
		}
		Larf(cfg, Left, 3, n-j1, u, 1, tau, t[j1+j1*ldt:], ldt, work)
		Larf(cfg, Right, j2+1, 3, u, 1, tau, t[j1*ldt:], ldt, work)
		t[j3+j1*ldt] = 0
		t[j3+j2*ldt] = 0
		t[j3+j3*ldt] = t11
		if wantq && q != nil {
			Larf(cfg, Right, n, 3, u, 1, tau, q[j1*ldq:], ldq, work)
		}
	case n1 == 2 && n2 == 1:
		// Reflector H with H·(−X11, −X21, 1)ᵀ = (*, 0, 0)ᵀ.
		u := []float64{-x[0], -x[1], 1, 0}
		tau := Larfg(3, &u[0], u[1:3], 1)
		u[0] = 1
		t33 := t[j3+j3*ldt]
		applyLR(u, tau, d[:], nd, 3, 3)
		if math.Max(math.Abs(d[1]), math.Max(math.Abs(d[2]), math.Abs(d[0]-t33))) > thresh {
			return 1
		}
		Larf(cfg, Right, j3+1, 3, u, 1, tau, t[j1*ldt:], ldt, work)
		Larf(cfg, Left, 3, n-j1-1, u, 1, tau, t[j1+j2*ldt:], ldt, work)
		t[j1+j1*ldt] = t33
		t[j2+j1*ldt] = 0
		t[j3+j1*ldt] = 0
		if wantq && q != nil {
			Larf(cfg, Right, n, 3, u, 1, tau, q[j1*ldq:], ldq, work)
		}
	default: // 2×2 and 2×2
		u1 := []float64{-x[0], -x[1], 1, 0}
		tau1 := Larfg(3, &u1[0], u1[1:3], 1)
		u1[0] = 1
		temp := -tau1 * (x[2] + u1[1]*x[3])
		u2 := []float64{-temp*u1[1] - x[3], -temp * u1[2], 1, 0}
		tau2 := Larfg(3, &u2[0], u2[1:3], 1)
		u2[0] = 1
		Larf(cfg, Left, 3, 4, u1, 1, tau1, d[:], nd, work)
		Larf(cfg, Right, 4, 3, u1, 1, tau1, d[:], nd, work)
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
		if wantq && q != nil {
			Larf(cfg, Right, n, 3, u1, 1, tau1, q[j1*ldq:], ldq, work)
			Larf(cfg, Right, n, 3, u2, 1, tau2, q[j2*ldq:], ldq, work)
		}
	}
	// Standardize any new 2×2 blocks.
	if n2 == 2 {
		var cs, sn float64
		t[j1+j1*ldt], t[j1+j2*ldt], t[j2+j1*ldt], t[j2+j2*ldt],
			_, _, _, _, cs, sn = Lanv2(t[j1+j1*ldt], t[j1+j2*ldt], t[j2+j1*ldt], t[j2+j2*ldt])
		if j1+2 < n {
			rotRows(t, ldt, j1, j2, j1+2, n-1, cs, sn)
		}
		rotCols(t, ldt, j1, j2, 0, j1-1, cs, sn)
		if wantq && q != nil {
			rotCols(q, ldq, j1, j2, 0, n-1, cs, sn)
		}
	}
	if n1 == 2 {
		k3 := j1 + n2
		k4 := k3 + 1
		var cs, sn float64
		t[k3+k3*ldt], t[k3+k4*ldt], t[k4+k3*ldt], t[k4+k4*ldt],
			_, _, _, _, cs, sn = Lanv2(t[k3+k3*ldt], t[k3+k4*ldt], t[k4+k3*ldt], t[k4+k4*ldt])
		if k3+2 < n {
			rotRows(t, ldt, k3, k4, k3+2, n-1, cs, sn)
		}
		rotCols(t, ldt, k3, k4, 0, k3-1, cs, sn)
		if wantq && q != nil {
			rotCols(q, ldq, k3, k4, 0, n-1, cs, sn)
		}
	}
	return 0
}
