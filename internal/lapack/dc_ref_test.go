package lapack

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/blas"
	"repro/internal/core"
)

// The divide & conquer trees as they were before the merges learnt the
// children's block structure, kept verbatim as the oracle of the structured
// ones: every merge copies the whole accumulation sorted, multiplies
// [Q1 0; 0 Q2] (diag(U1, 1, U2), and vt by rows) as if it were dense with
// one GEMM over the secular columns, and copies back. StedcDenseRef and
// BdsdcDenseRef are the entry points the tests of package lapack_test reach.

// StedcDenseRef overwrites q (n×n) with the eigenvectors of the tridiagonal
// (d, e) and d with its eigenvalues, by the reference tree.
func StedcDenseRef(cfg *core.Config, n int, d, e []float64, q []float64, ldq int) int {
	Laset('A', n, n, 0.0, 1.0, q, ldq)
	return stedcRefRec(cfg, n, d, e, q, ldq)
}

// BdsdcDenseRef is Bdsdc by the reference tree.
func BdsdcDenseRef(cfg *core.Config, n int, d, e []float64, u []float64, ldu int, vt []float64, ldvt int) int {
	if n == 0 {
		return 0
	}
	Laset('A', n, n, 0.0, 1.0, u, ldu)
	Laset('A', n, n, 0.0, 1.0, vt, ldvt)
	return bdsdcRefRec(cfg, n, 0, d, e, u, ldu, vt, ldvt)
}

// stedcRefRec is the recursive kernel operating on float64 eigenvector
// accumulation (q starts as the identity of order n).
func stedcRefRec(cfg *core.Config, n int, d, e []float64, q []float64, ldq int) int {
	cfg.Checkpoint() // once per D&C tree node
	if n <= dcCutoff {
		return Steqr(cfg, n, d, e, q, ldq)
	}
	m := n / 2
	rho := e[m-1]
	// Rank-one tear: T = diag(T1', T2') + |rho|·v·vᵀ with v carrying a
	// sign on its second half when rho < 0.
	sgn := 1.0
	if rho < 0 {
		sgn = -1
	}
	d[m-1] -= math.Abs(rho)
	d[m] -= math.Abs(rho)
	// Recurse on the halves, accumulating into the diagonal blocks of q.
	if info := stedcRefRec(cfg, m, d[:m], e[:m-1], q, ldq); info != 0 {
		return info
	}
	if info := stedcRefRec(cfg, n-m, d[m:], e[m:], q[m+m*ldq:], ldq); info != 0 {
		return info
	}
	// Merge: eigenproblem of D + |rho|·z·zᵀ with
	// z = [last row of Q1; sgn · first row of Q2].
	zv := blas.GetScratch[float64](n)
	defer blas.PutScratch(zv)
	for i := 0; i < m; i++ {
		zv[i] = q[m-1+i*ldq]
	}
	for i := m; i < n; i++ {
		zv[i] = sgn * q[m+i*ldq]
	}
	return dcMergeRef(cfg, n, m, math.Abs(rho), d, zv, q, ldq)
}

// dcMergeRef solves the rank-one modified diagonal eigenproblem
// D + rho·z·zᵀ (rho > 0) and updates the eigenvector accumulation q,
// whose relevant block structure is [Q1 0; 0 Q2] with the split at m.
// Every workspace is pooled scratch that is written before it is read.
func dcMergeRef(cfg *core.Config, n, m int, rho float64, d, zv []float64, q []float64, ldq int) int {
	eps := core.EpsDouble
	idx := make([]int, 3*n)
	perm, order, sec := idx[:n], idx[n:2*n], idx[2*n:]
	work := blas.GetScratch[float64](7*n + n*n)
	defer blas.PutScratch(work)
	vecs, qp := work[:7*n], work[7*n:]
	ds, zs, lam := vecs[:n], vecs[n:2*n], vecs[2*n:3*n]
	// Sort the diagonal entries ascending, permuting z and the q columns.
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(a, b int) int { return cmp.Compare(d[a], d[b]) })
	for k, p := range perm {
		ds[k] = d[p]
		zs[k] = zv[p]
		copy(qp[k*n:k*n+n], q[p*ldq:p*ldq+n])
	}
	// Normalize z to unit norm, folding the factor into rho (dlaed2).
	znorm := blas.Nrm2(n, zs, 1)
	if znorm > 0 {
		for i := range zs {
			zs[i] /= znorm
		}
	}
	rho *= znorm * znorm
	// Deflation (dlaed2-lite); sec collects the secular (non-deflated) set.
	// Deflated eigenpairs pass through unchanged.
	dmax := 0.0
	zmax := 0.0
	for i := 0; i < n; i++ {
		dmax = math.Max(dmax, math.Abs(ds[i]))
		zmax = math.Max(zmax, math.Abs(zs[i]))
	}
	tol := 8 * eps * math.Max(dmax, zmax)
	k := 0
	last := -1
	for i := 0; i < n; i++ {
		// Rule 1: negligible z component.
		if rho*math.Abs(zs[i]) <= tol {
			lam[i] = ds[i]
			continue
		}
		// Rule 2: nearly equal diagonal entries — rotate one z component away.
		if last >= 0 && math.Abs(ds[i]-ds[last]) <= tol {
			r := math.Hypot(zs[last], zs[i])
			c := zs[i] / r
			s := zs[last] / r
			// The rotation leaves an off-diagonal coupling of size
			// (dᵢ − d_last)·c·s, which deflation drops; only do so when it
			// is negligible (the xLAED2 criterion).
			if r > 0 && math.Abs((ds[i]-ds[last])*c*s) <= tol {
				// Rotate columns (last, i) of qp and the z pair so that
				// zs[last] becomes 0; adjust the diagonal pair.
				rotCols(qp, n, last, i, 0, n-1, c, -s)
				dl := ds[last]
				di := ds[i]
				ds[last] = dl*c*c + di*s*s
				ds[i] = dl*s*s + di*c*c
				zs[i] = r
				zs[last] = 0
				lam[last] = ds[last]
				k-- // last was the newest member of the secular set
			}
		}
		sec[k] = i
		k++
		last = i
	}
	sec = sec[:k]
	if k > 0 {
		dd, zz, lams, zhat := vecs[3*n:3*n+k], vecs[4*n:4*n+k], vecs[5*n:5*n+k], vecs[6*n:6*n+k]
		for a, i := range sec {
			dd[a] = ds[i]
			zz[a] = zs[i]
		}
		mats := blas.GetScratch[float64](2*k*k + 2*n*k)
		defer blas.PutScratch(mats)
		uhat, denom, qsec, qnew := mats[:k*k], mats[k*k:2*k*k], mats[2*k*k:2*k*k+n*k], mats[2*k*k+n*k:]
		solveSecularCore(k, rho, dd, zz, lams, uhat, zhat, denom)
		// Scatter back and form the updated eigenvectors:
		// columns sec of qp combined with uhat.
		for a, i := range sec {
			copy(qsec[a*n:a*n+n], qp[i*n:i*n+n])
		}
		blas.Gemm(cfg, NoTrans, NoTrans, n, k, k, 1.0, qsec, n, uhat, k, 0.0, qnew, n)
		for a, i := range sec {
			lam[i] = lams[a]
			copy(qp[i*n:i*n+n], qnew[a*n:a*n+n])
		}
	}
	// Final ascending sort of all eigenpairs.
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(lam[a], lam[b]) })
	for kcol, p := range order {
		d[kcol] = lam[p]
		copy(q[kcol*ldq:kcol*ldq+n], qp[p*n:p*n+n])
	}
	return 0
}

// bdsdcRefRec is the recursive kernel. The subproblem is an n×(n+sqre) upper
// bidiagonal block (LAPACK's SQRE convention: sqre=1 means one extra
// column whose only entry is e[n-1]). u is the n×n left and vt the
// (n+sqre)×(n+sqre) right accumulation, both identity blocks on entry.
func bdsdcRefRec(cfg *core.Config, n, sqre int, d, e []float64, u []float64, ldu int, vt []float64, ldvt int) int {
	cfg.Checkpoint() // once per D&C tree node
	if n <= bdsdcCutoff || n < 3 {
		// n ≤ 2 must always be a leaf: the tear needs e[n/2], which a
		// square 2×2 block does not have.
		return bdsdcRefLeaf(cfg, n, sqre, d, e, u, ldu, vt, ldvt)
	}
	// Tear at row nl: B = [B1, α·e_nl + β·e_{nl+1}, B2] with B1 the leading
	// nl×(nl+1) block (its own extra column) and B2 the trailing
	// nr×(nr+sqre) block.
	nl := n / 2
	nr := n - nl - 1
	alpha := d[nl]
	beta := e[nl]
	if info := bdsdcRefRec(cfg, nl, 1, d[:nl], e[:nl], u, ldu, vt, ldvt); info != 0 {
		return info
	}
	off := nl + 1
	if info := bdsdcRefRec(cfg, nr, sqre, d[off:], e[off:], u[off+off*ldu:], ldu, vt[off+off*ldvt:], ldvt); info != 0 {
		return info
	}
	return bdsdcRefMergeRef(cfg, n, sqre, nl, alpha, beta, d, u, ldu, vt, ldvt)
}

// bdsdcRefLeaf solves a subproblem at or below the crossover with Bdsqr.
// When the block carries an extra column (sqre=1), a chain of right plane
// rotations against the diagonal chases e[n-1] off the matrix first, so
// the iteration sees a square bidiagonal; the rotations go straight into
// the vt accumulation and the dead column's vt row becomes a right null
// vector of the block.
func bdsdcRefLeaf(cfg *core.Config, n, sqre int, d, e []float64, u []float64, ldu int, vt []float64, ldvt int) int {
	m := n + sqre
	if sqre == 1 {
		f := e[n-1]
		for i := n - 1; i >= 0 && f != 0; i-- {
			c, s, r := Lartg(d[i], f)
			d[i] = r
			rotRows(vt, ldvt, i, n, 0, m-1, c, s)
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
	return Bdsqr(cfg, n, d, ew, vt, ldvt, m, u, ldu, n)
}

// bdsdcRefMergeRef combines the two children's singular decompositions. In the
// children's bases the block is U'·M·VT' where M is diagonal (the child
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
// surviving k-dimensional bases are applied to the gathered u columns and
// vt rows with one GEMM each — the Level-3 conversion this routine exists
// for.
func bdsdcRefMergeRef(cfg *core.Config, n, sqre, nl int, alpha, beta float64, d []float64, u []float64, ldu int, vt []float64, ldvt int) int {
	m := n + sqre
	eps := core.EpsDouble
	// Pooled workspace, every part written before it is read.
	work := blas.GetScratch[float64](m + 8*n + n*n + n*m)
	defer blas.PutScratch(work)
	z, vecs, ub, vb := work[:m], work[m:m+8*n], work[m+8*n:m+8*n+n*n], work[m+8*n+n*n:]
	ds, zs, sig := vecs[:n], vecs[n:2*n], vecs[2*n:3*n]
	idx := make([]int, 3*n)
	perm, order, sec := idx[:n], idx[n:2*n], idx[2*n:2*n]
	// Assemble the dense row in the children's right bases. V[i,j] = VT[j,i]
	// in real arithmetic, so the needed V rows are columns nl and nl+1 of
	// the accumulated vt.
	for c := 0; c <= nl; c++ {
		z[c] = alpha * vt[c+nl*ldvt]
	}
	for c := nl + 1; c < m; c++ {
		z[c] = beta * vt[c+(nl+1)*ldvt]
	}
	// Fold the extra column: a right rotation in the (nl, m-1) plane zeroes
	// z[m-1]. Column m-1 is then identically zero; its vt row is a right
	// null vector of the block and stays out of the active problem.
	if sqre == 1 {
		r := math.Hypot(z[nl], z[m-1])
		if r > 0 {
			c0 := z[nl] / r
			s0 := z[m-1] / r
			z[nl] = r
			z[m-1] = 0
			rotRows(vt, ldvt, nl, m-1, 0, m-1, c0, s0)
		}
	}
	// Sort the n active columns by diagonal value ascending. The z-column
	// (original index nl) has no diagonal; key it below every d ≥ 0 so it
	// always lands at compressed index 0.
	for i := range perm {
		perm[i] = i
	}
	key := func(c int) float64 {
		if c == nl {
			return -1
		}
		return d[c]
	}
	slices.SortStableFunc(perm, func(a, b int) int { return cmp.Compare(key(a), key(b)) })
	for j, p := range perm {
		ds[j] = 0
		if p != nl {
			ds[j] = d[p]
		}
		zs[j] = z[p]
	}
	// Deflation threshold, as in dcMergeRef / xLASD2.
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
	deflated := make([]bool, n)
	// Rule 1: negligible z component — the column is already singular-pair
	// (d_j, e_j-vectors) exact.
	for j := 1; j < n; j++ {
		if math.Abs(zs[j]) <= tol {
			deflated[j] = true
		}
	}
	// Rule 2: nearly equal diagonal values — rotate one z component away.
	last := -1
	for j := 0; j < n; j++ {
		if deflated[j] {
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
					s := zs[j] / r
					zs[0] = r
					zs[j] = 0
					rj := perm[j]
					rotRows(vt, ldvt, nl, rj, 0, m-1, c, s)
					dj := c * ds[j]
					if dj < 0 {
						dj = -dj
						for col := 0; col < m; col++ {
							vt[rj+col*ldvt] = -vt[rj+col*ldvt]
						}
					}
					ds[j] = dj
				}
				deflated[j] = true
				continue // the z-column remains the comparison anchor
			}
			r := math.Hypot(zs[last], zs[j])
			if r > 0 && math.Abs((ds[j]-ds[last])*zs[last]*zs[j])/(r*r) <= tol {
				c := zs[j] / r
				s := zs[last] / r
				// Two-sided rotation G on columns (last, j): the right side
				// goes into the vt rows, the left side into the u columns;
				// the off-diagonal coupling c·s·(d_last − d_j) ≤ tol is
				// dropped and the diagonal pair takes the c²/s² mix.
				rl, rj := perm[last], perm[j]
				rotRows(vt, ldvt, rl, rj, 0, m-1, c, -s)
				rotCols(u, ldu, rl, rj, 0, n-1, c, -s)
				dl, dj := ds[last], ds[j]
				ds[last] = c*c*dl + s*s*dj
				ds[j] = s*s*dl + c*c*dj
				zs[j] = r
				zs[last] = 0
				deflated[last] = true
			}
			last = j
		} else {
			last = j
		}
	}
	// Candidate singular triples are built in scratch (ub, vb) so the final
	// descending write-back never reads a slot it has already overwritten.
	// Partition into the secular and deflated sets. Compressed index 0 (the
	// z-column) is always secular. Deflated pairs pass through: their u
	// column and vt row are already singular vectors of the block.
	for j := 0; j < n; j++ {
		if !deflated[j] {
			sec = append(sec, j)
			continue
		}
		sig[j] = ds[j]
		p := perm[j]
		copy(ub[j*n:j*n+n], u[p*ldu:p*ldu+n])
		for col := 0; col < m; col++ {
			vb[j+col*n] = vt[p+col*ldvt]
		}
	}
	k := len(sec)
	if k == 1 {
		// Everything except the z-column deflated: the active matrix is the
		// single column z₀·e_nl, so σ = |z₀| with the right vector already
		// in place and the left vector ±e_nl (the sign keeps +σ).
		j := sec[0]
		sig[j] = math.Abs(zs[0])
		sgn := 1.0
		if zs[0] < 0 {
			sgn = -1
		}
		for row := 0; row < n; row++ {
			ub[j*n+row] = sgn * u[row+nl*ldu]
		}
		for col := 0; col < m; col++ {
			vb[j+col*n] = vt[nl+col*ldvt]
		}
	} else if k > 0 {
		// Secular solve on the squared values: MᵀM = D² + z·zᵀ, ρ = 1.
		dd, dsec, zz, lams, zhat := vecs[3*n:3*n+k], vecs[4*n:4*n+k], vecs[5*n:5*n+k], vecs[6*n:6*n+k], vecs[7*n:7*n+k]
		for a, j := range sec {
			dsec[a] = ds[j]
			dd[a] = ds[j] * ds[j]
			zz[a] = zs[j]
		}
		mats := blas.GetScratch[float64](3*k*k + 2*n*k + 2*k*m)
		defer blas.PutScratch(mats)
		uh, lh, denom, mats := mats[:k*k], mats[k*k:2*k*k], mats[2*k*k:3*k*k], mats[3*k*k:]
		gu, unew, gv, vnew := mats[:n*k], mats[n*k:2*n*k], mats[2*n*k:2*n*k+k*m], mats[2*n*k+k*m:]
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
		// Gather the secular u columns and vt rows and apply the compressed
		// bases with one GEMM each (the rotation-traffic → Level-3 move).
		for a, j := range sec {
			p := perm[j]
			copy(gu[a*n:a*n+n], u[p*ldu:p*ldu+n])
			for col := 0; col < m; col++ {
				gv[a+col*k] = vt[p+col*ldvt]
			}
		}
		blas.Gemm(cfg, NoTrans, NoTrans, n, k, k, 1.0, gu, n, lh, k, 0.0, unew, n)
		blas.Gemm(cfg, ConjTrans, NoTrans, k, m, k, 1.0, uh, k, gv, k, 0.0, vnew, k)
		for a, j := range sec {
			sig[j] = math.Sqrt(math.Max(lams[a], 0))
			copy(ub[j*n:j*n+n], unew[a*n:a*n+n])
			for col := 0; col < m; col++ {
				vb[j+col*n] = vnew[a+col*k]
			}
		}
	}
	// Final descending order, matching the Bdsqr convention the rest of the
	// SVD stack expects.
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(sig[b], sig[a]) })
	for i, p := range order {
		d[i] = sig[p]
		copy(u[i*ldu:i*ldu+n], ub[p*n:p*n+n])
		for col := 0; col < m; col++ {
			vt[i+col*ldvt] = vb[p+col*n]
		}
	}
	return 0
}
