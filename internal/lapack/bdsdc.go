package lapack

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/blas"
	"repro/internal/core"
)

// Bdsdc computes the singular value decomposition B = U·Σ·Vᵀ of an n×n
// real upper bidiagonal matrix by Cuppen-style divide & conquer (xBDSDC
// semantics): the bidiagonal is torn at its middle superdiagonal entry,
// the halves are solved recursively, and the two singular bases are merged
// through a rank-one secular equation with deflation. d (n) holds the
// diagonal and e (n-1) the superdiagonal; on success d holds the singular
// values in descending order. u (n×n) and vt (n×n) are overwritten with
// the left and right singular vector matrices — both are accumulated in
// float64 regardless of the driver's element type, so Gesdd can apply them
// to the Orgbr bases with one GEMM each. Returns non-zero if the Bdsqr
// fallback fails on a leaf block.
//
// The merge reuses the Stedc secular machinery (dc.go): with the extra
// column folded away, the merged matrix M satisfies MᵀM = D² + z·zᵀ, so
// the squared singular values are the roots of the same secular equation
// solveSecularCore solves for the eigensolver, with ρ = 1.
// bdsdcCutoff is the leaf size of the bidiagonal divide & conquer — a
// variable only so the tests can force deep recursions on tiny matrices.
var bdsdcCutoff = dcCutoff

func Bdsdc(cfg *core.Config, n int, d, e []float64, u []float64, ldu int, vt []float64, ldvt int) int {
	if n == 0 {
		return 0
	}
	// The tree accumulates V, not Vᵀ: a merge then reads, rotates and
	// replaces columns of both bases (mergeBasis) instead of gathering rows
	// of vt at stride ldvt. The transpose is taken once at the end.
	v := blas.GetScratch[float64](n * n)
	defer blas.PutScratch(v)
	Laset('A', n, n, 0.0, 1.0, u, ldu)
	Laset('A', n, n, 0.0, 1.0, v, n)
	info := bdsdcRec(cfg, n, 0, d, e, u, ldu, v, n, make([]int, mergeInts*n))
	blas.ConjTransposeTo(n, n, v, n, vt, ldvt)
	return info
}

// bdsdcRec is the recursive kernel. The subproblem is an n×(n+sqre) upper
// bidiagonal block (LAPACK's SQRE convention: sqre=1 means one extra
// column whose only entry is e[n-1]). u is the n×n left and v the
// (n+sqre)×(n+sqre) right accumulation, both identity blocks on entry; idx
// is the merges' integer workspace.
func bdsdcRec(cfg *core.Config, n, sqre int, d, e []float64, u []float64, ldu int, v []float64, ldv int, idx []int) int {
	cfg.Checkpoint() // once per D&C tree node
	if n <= bdsdcCutoff || n < 3 {
		// n ≤ 2 must always be a leaf: the tear needs e[n/2], which a
		// square 2×2 block does not have.
		return bdsdcLeaf(cfg, n, sqre, d, e, u, ldu, v, ldv)
	}
	// Tear at row nl: B = [B1, α·e_nl + β·e_{nl+1}, B2] with B1 the leading
	// nl×(nl+1) block (its own extra column) and B2 the trailing
	// nr×(nr+sqre) block.
	nl := n / 2
	nr := n - nl - 1
	alpha := d[nl]
	beta := e[nl]
	if info := bdsdcRec(cfg, nl, 1, d[:nl], e[:nl], u, ldu, v, ldv, idx); info != 0 {
		return info
	}
	off := nl + 1
	if info := bdsdcRec(cfg, nr, sqre, d[off:], e[off:], u[off+off*ldu:], ldu, v[off+off*ldv:], ldv, idx); info != 0 {
		return info
	}
	bdsdcMerge(cfg, n, sqre, nl, alpha, beta, d, u, ldu, v, ldv, idx)
	return 0
}

// bdsdcLeaf solves a subproblem at or below the crossover with Bdsqr, on a
// Vᵀ of its own that is transposed into the block of v afterwards. When the
// block carries an extra column (sqre=1), a chain of right plane rotations
// against the diagonal chases e[n-1] off the matrix first, so the iteration
// sees a square bidiagonal; the rotations go straight into the vt
// accumulation and the dead column's vt row becomes a right null vector of
// the block.
func bdsdcLeaf(cfg *core.Config, n, sqre int, d, e []float64, u []float64, ldu int, v []float64, ldv int) int {
	m := n + sqre
	vt := blas.GetScratch[float64](m * m)
	defer blas.PutScratch(vt)
	Laset('A', m, m, 0.0, 1.0, vt, m)
	if sqre == 1 {
		f := e[n-1]
		for i := n - 1; i >= 0 && f != 0; i-- {
			c, s, r := Lartg(d[i], f)
			d[i] = r
			rotRows(vt, m, i, n, 0, m-1, c, s)
			if i > 0 {
				f = -s * e[i-1]
				e[i-1] = c * e[i-1]
			}
		}
	}
	var ew []float64
	if n > 1 {
		ew = e[:n-1]
	}
	info := Bdsqr(cfg, n, d, ew, vt, m, m, u, ldu, n)
	blas.ConjTransposeTo(m, m, vt, m, v, ldv)
	return info
}

// bdsdcMerge combines the two children's singular decompositions. In the
// children's bases the block is U'·M·V'ᵀ where M is diagonal (the child
// singular values, with column nl empty — its value was consumed as α)
// plus one dense row at index nl:
//
//	z[c] = α·V1[nl, c] (c ≤ nl)   z[c] = β·V2[0, c−nl−1] (c > nl)
//
// After folding the sqre=1 extra column into column nl with one right
// rotation, MᵀM = D² + z·zᵀ: the singular values come from the secular
// equation on the squared values, the right vectors are its eigenvectors,
// and the left vectors follow from M·v = σ·u. Deflation (negligible z
// components, close singular values) shrinks the secular set; the
// surviving k-dimensional bases are applied to the secular columns of u and
// v by mergeBasis — the Level-3 conversion this routine exists for. Both
// accumulations have the children's block structure, split below row nl;
// column nl itself (the z-column: e_nl in u, and in v mixed with the extra
// column by the fold) counts as dense.
func bdsdcMerge(cfg *core.Config, n, sqre, nl int, alpha, beta float64, d []float64, u []float64, ldu int, v []float64, ldv int, idx []int) {
	m := n + sqre
	eps := core.EpsDouble
	// Pooled workspace, every part written before it is read.
	work := blas.GetScratch[float64](m + 8*n)
	defer blas.PutScratch(work)
	z, vecs := work[:m], work[m:]
	ds, zs, sig := vecs[:n], vecs[n:2*n], vecs[2*n:3*n]
	s := newMergeSets(n, idx)
	// Assemble the dense row in the children's right bases: rows nl and
	// nl+1 of the accumulated v.
	for c := 0; c <= nl; c++ {
		z[c] = alpha * v[nl+c*ldv]
	}
	for c := nl + 1; c < m; c++ {
		z[c] = beta * v[nl+1+c*ldv]
	}
	// Fold the extra column: a right rotation in the (nl, m-1) plane zeroes
	// z[m-1]. Column m-1 is then identically zero; its v column is a right
	// null vector of the block and stays out of the active problem.
	if sqre == 1 {
		r := math.Hypot(z[nl], z[m-1])
		if r > 0 {
			c0 := z[nl] / r
			s0 := z[m-1] / r
			z[nl] = r
			z[m-1] = 0
			rotCols(v, ldv, nl, m-1, 0, m-1, c0, s0)
		}
	}
	// Sort the n active columns by diagonal value ascending. The z-column
	// (original index nl) has no diagonal; key it below every d ≥ 0 so it
	// always lands at compressed index 0.
	for i := range s.perm {
		s.perm[i] = i
	}
	key := func(c int) float64 {
		if c == nl {
			return -1
		}
		return d[c]
	}
	slices.SortStableFunc(s.perm, func(a, b int) int { return cmp.Compare(key(a), key(b)) })
	for j, p := range s.perm {
		ds[j], zs[j], s.kind[j] = d[p], z[p], mergeTop
		switch {
		case p == nl:
			ds[j], s.kind[j] = 0, mergeDense
		case p > nl:
			s.kind[j] = mergeBottom
		}
	}
	// Deflation threshold, as in dcMerge / xLASD2.
	dmax, zmax := 0.0, 0.0
	for j := 0; j < n; j++ {
		dmax = math.Max(dmax, math.Abs(ds[j]))
		zmax = math.Max(zmax, math.Abs(zs[j]))
	}
	tol := 8 * eps * math.Max(dmax, zmax)
	// The z-column must stay in the secular set (its diagonal value 0 is
	// artificial); if its z component is negligible, bump it to ±tol — an
	// O(eps·‖B‖) backward perturbation, the xLASD2 safeguard.
	if math.Abs(zs[0]) <= tol && tol > 0 {
		zs[0] = core.Sign(tol, zs[0])
	}
	// slot doubles as the deflation mark until partition assigns it.
	deflated := s.slot
	// Rule 1: negligible z component — the column is already singular-pair
	// (d_j, e_j-vectors) exact.
	deflated[0] = 0
	for j := 1; j < n; j++ {
		deflated[j] = 0
		if math.Abs(zs[j]) <= tol {
			deflated[j] = 1
		}
	}
	// Rule 2: nearly equal diagonal values — rotate one z component away.
	last := -1
	for j := 0; j < n; j++ {
		if deflated[j] != 0 {
			continue
		}
		if last >= 0 && math.Abs(ds[j]-ds[last]) <= tol {
			if last == 0 {
				// Close to the z-column's artificial zero means ds[j] ≤ tol:
				// a right-only rotation folds z_j into the z-column; the
				// s·d_j fill it creates is ≤ tol and is dropped.
				r := math.Hypot(zs[0], zs[j])
				if r > 0 {
					c := zs[0] / r
					sn := zs[j] / r
					zs[0] = r
					zs[j] = 0
					rj := s.perm[j]
					rotCols(v, ldv, nl, rj, 0, m-1, c, sn)
					dj := c * ds[j]
					if dj < 0 {
						dj = -dj
						blas.ScalReal(m, -1, v[rj*ldv:], 1)
					}
					ds[j] = dj
				}
				deflated[j] = 1
				continue // the z-column remains the comparison anchor
			}
			r := math.Hypot(zs[last], zs[j])
			if r > 0 && math.Abs((ds[j]-ds[last])*zs[last]*zs[j])/(r*r) <= tol {
				c := zs[j] / r
				sn := zs[last] / r
				// Two-sided rotation G on columns (last, j): the right side
				// goes into the v columns, the left side into the u columns;
				// the off-diagonal coupling c·s·(d_last − d_j) ≤ tol is
				// dropped and the diagonal pair takes the c²/s² mix.
				rl, rj := s.perm[last], s.perm[j]
				rotCols(v, ldv, rl, rj, 0, m-1, c, -sn)
				rotCols(u, ldu, rl, rj, 0, n-1, c, -sn)
				s.rotated(last, j)
				dl, dj := ds[last], ds[j]
				ds[last] = c*c*dl + sn*sn*dj
				ds[j] = sn*sn*dl + c*c*dj
				zs[j] = r
				zs[last] = 0
				deflated[last] = 1
			}
		}
		last = j
	}
	// Partition into the secular and deflated sets. Compressed index 0 (the
	// z-column) is always secular. Deflated pairs pass through: their u and v
	// columns are already singular vectors of the block.
	for j := 0; j < n; j++ {
		if deflated[j] == 0 {
			s.sec = append(s.sec, j)
		} else {
			sig[j] = ds[j]
		}
	}
	s.partition()
	k := len(s.sec)
	mats := blas.GetScratch[float64](3 * k * k)
	defer blas.PutScratch(mats)
	uh, lh, denom := mats[:k*k], mats[k*k:2*k*k], mats[2*k*k:]
	if k == 1 {
		// Everything except the z-column deflated: the active matrix is the
		// single column z₀·e_nl, so σ = |z₀| with the right vector already
		// in place and the left vector ±e_nl (the sign keeps +σ).
		sig[0] = math.Abs(zs[0])
		uh[0], lh[0] = 1, core.Sign(1, zs[0])
	} else {
		// Secular solve on the squared values: MᵀM = D² + z·zᵀ, ρ = 1.
		dd, dsec, zz, lams, zhat := vecs[3*n:3*n+k], vecs[4*n:4*n+k], vecs[5*n:5*n+k], vecs[6*n:6*n+k], vecs[7*n:7*n+k]
		for a, j := range s.sec {
			dsec[a] = ds[j]
			dd[a] = ds[j] * ds[j]
			zz[a] = zs[j]
		}
		solveSecularCore(k, 1.0, dd, zz, lams, uh, zhat, denom)
		// Left vectors from M·v = σ·u: component j is d_j·ẑ_j/(d_j² − σ²),
		// and the z-row component (compressed index 0, where d is 0) is −1 —
		// the value Σ ẑ²/(d² − σ²) takes at a secular root. Normalizing the
		// positive multiple of M·v keeps U·Σ·Vᵀ reconstructing with +σ.
		for i := 0; i < k; i++ {
			nrm := 0.0
			for a := 0; a < k; a++ {
				v := -1.0
				if a > 0 {
					v = dsec[a] * zhat[a] / denom[a+i*k]
				}
				lh[a+i*k] = v
				nrm += v * v
			}
			nrm = math.Sqrt(nrm)
			for a := 0; a < k; a++ {
				lh[a+i*k] /= nrm
			}
		}
		for a, j := range s.sec {
			sig[j] = math.Sqrt(math.Max(lams[a], 0))
		}
	}
	// Final descending order, matching the Bdsqr convention the rest of the
	// SVD stack expects.
	for i := range s.order {
		s.order[i] = i
	}
	slices.SortStableFunc(s.order, func(a, b int) int { return cmp.Compare(sig[b], sig[a]) })
	mergeBasis(cfg, &s, n, nl+1, u, ldu, lh)
	mergeBasis(cfg, &s, m, nl+1, v, ldv, uh)
	for i, p := range s.order {
		d[i] = sig[p]
	}
}
