package blas

import (
	"math"

	"repro/internal/core"
)

// Kernels of the eigenvalue/SVD iteration phase. The QL/QR and Hessenberg
// iterations spend their vector-accumulation time applying long chains of
// tiny orthogonal transformations — plane rotations, three-element
// Householder reflectors — to adjacent columns of a column-major block. One
// transformation alone is a Level-1 operation with two (three) loads and
// stores per element; a chain shares a column between consecutive links, so
// the kernels here walk a block of rows across the whole chain with the
// shared column held in registers. Every element still sees exactly the
// scalar operations of the link-by-link definition, in the same order — only
// the traversal (rows outer, links inner) changes — so results do not depend
// on the row-block height and need no threading to be deterministic.

// RotSeq applies a sweep of z−1 real plane rotations to adjacent column
// pairs of the m×z column-major block a from the right (xLASR with
// side = 'R', pivot = 'V'). Rotation j acts on columns j and j+1:
//
//	a[:, j+1], a[:, j] = c[j]·a[:, j+1] − s[j]·a[:, j], s[j]·a[:, j+1] + c[j]·a[:, j]
//
// forward applies rotation 0 first, otherwise rotation z−2 first. Identity
// rotations (c = 1, s = 0) are skipped, so they leave their columns
// bit-identical. Rotations are real: the complex rows of the kernel table
// sweep a complex block as the real block of twice the height.
func RotSeq[T core.Scalar](forward bool, m, z int, c, s []float64, a []T, lda int) {
	if m <= 0 || z < 2 {
		return
	}
	// Cut the sweep at its identity rotations into maximal runs of proper
	// ones — the runs touch disjoint columns, so each is a sweep of its own —
	// and hand every run to the row's wavefront.
	k := kernelFor[T]()
	for j0 := 0; j0 < z-1; {
		if c[j0] == 1 && s[j0] == 0 {
			j0++
			continue
		}
		j1 := j0 + 1
		for j1 < z-1 && !(c[j1] == 1 && s[j1] == 0) {
			j1++
		}
		k.rotRun(forward, m, j1-j0, c[j0:j1], s[j0:j1], a[j0*lda:], lda)
		j0 = j1
	}
}

// Both routes walk the chain in one formulation. The carried column p starts
// at the end the sweep enters from; link t loads the next column q, writes
// the finished column over p's place and carries on with
//
//	store = σ·q + c·p        carry = c·q − σ·p
//
// where σ = s forward (p is column j, q is column j+1) and σ = −s backward
// (p is column j+1, q is column j) — the two lines of the rotation with the
// roles of the columns exchanged.

// rotRunFma is the AVX2+FMA route on kernel seq (drotSeqFma, srotSeqFma):
// the products with the loaded column are rounded and the carried column's
// fused in (store = fma(c, p, σ·q), carry = fma(−σ, p, c·q)), which keeps one
// FMA on the carry's dependency chain.
func rotRunFma[T float32 | float64](seq func(m, nrot int64, c, s *float64, cstep int64, a *T, colStride int64, flip float64)) func(bool, int, int, []float64, []float64, []T, int) {
	return func(forward bool, m, nrot int, c, s []float64, a []T, lda int) {
		_ = a[nrot*lda+m-1]
		if forward {
			seq(int64(m), int64(nrot), &c[0], &s[0], 1, &a[0], int64(lda), 0)
		} else {
			seq(int64(m), int64(nrot), &c[nrot-1], &s[nrot-1], -1, &a[nrot*lda], int64(-lda), math.Copysign(0, -1))
		}
	}
}

// Refl3 applies the Householder reflector H = I − τ·v·vᵀ with v = (1, v2, v3)
// from the right to the three m-row columns x0, x1, x2 — the step of the
// double-shift QR sweep (xLAHQR) on the Schur vectors and on the columns of
// H. The caller passes the products t1 = τ, t2 = τ·v2, t3 = τ·v3 it already
// holds.
func Refl3(m int, x0, x1, x2 []float64, v2, v3, t1, t2, t3 float64) {
	if m <= 0 {
		return
	}
	kernelFor[float64]().refl3(x0[:m], x1[:m], x2[:m], v2, v3, t1, t2, t3)
}

// Refl2 is Refl3 for the two-element reflector v = (1, v2) that ends a sweep.
func Refl2(m int, x0, x1 []float64, v2, t1, t2 float64) {
	if m <= 0 {
		return
	}
	kernelFor[float64]().refl2(x0[:m], x1[:m], v2, t1, t2)
}

// Refl3Rows applies the same reflector from the left to three adjacent rows
// of a column-major block — the other half of the sweep's step, on the rows
// of H: h starts at the first row's entry in the first of n columns ldh
// apart, and column j has c[0:3] -= (c[0] + v2·c[1] + v3·c[2])·(t1, t2, t3).
func Refl3Rows(n int, h []float64, ldh int, v2, v3, t1, t2, t3 float64) {
	if n <= 0 {
		return
	}
	kernelFor[float64]().refl3Rows(n, h, ldh, v2, v3, t1, t2, t3)
}

// Refl2Rows is Refl3Rows for the two-element reflector.
func Refl2Rows(n int, h []float64, ldh int, v2, t1, t2 float64) {
	if n <= 0 {
		return
	}
	kernelFor[float64]().refl2Rows(n, h, ldh, v2, t1, t2)
}

// refl3RowsOn and refl2RowsOn build the float64 rows' Refl3Rows and
// Refl2Rows on the group kernel groups — drefl3RowsFma/drefl2RowsFma, or on
// the portable row their Go twins: four columns per step through the kernel,
// the columns left over by the twins' column body (refl3Col, refl2Col), so a
// column's result, NaN payload and sign included, does not depend on where
// the groups fall. The three-row kernel reads a fourth row, so it stops a
// group early when the last column's fourth row would lie past the end of h.
func refl3RowsOn(groups func(groups int64, h *float64, ldh int64, v2, v3, t1, t2, t3 float64)) func(n int, h []float64, ldh int, v2, v3, t1, t2, t3 float64) {
	return func(n int, h []float64, ldh int, v2, v3, t1, t2, t3 float64) {
		nv := n &^ 3
		if nv > 0 && (nv-1)*ldh+3 >= len(h) {
			nv -= 4
		}
		if nv > 0 {
			groups(int64(nv/4), &h[0], int64(8*ldh), v2, v3, t1, t2, t3)
		}
		for j := nv; j < n; j++ {
			refl3Col(h[j*ldh:j*ldh+3:j*ldh+3], v2, v3, t1, t2, t3)
		}
	}
}

func refl2RowsOn(groups func(groups int64, h *float64, ldh int64, v2, t1, t2 float64)) func(n int, h []float64, ldh int, v2, t1, t2 float64) {
	return func(n int, h []float64, ldh int, v2, t1, t2 float64) {
		nv := n &^ 3
		if nv > 0 {
			_ = h[(nv-1)*ldh+1]
			groups(int64(nv/4), &h[0], int64(8*ldh), v2, t1, t2)
		}
		for j := nv; j < n; j++ {
			refl2Col(h[j*ldh:j*ldh+2:j*ldh+2], v2, t1, t2)
		}
	}
}
