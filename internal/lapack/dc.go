package lapack

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/blas"
	"repro/internal/core"
)

// dcCutoff is the problem size below which the divide & conquer
// eigensolver falls back to the QL/QR iteration, as LAPACK's SMLSIZ.
const dcCutoff = 25

// syevCrossover is the order up to which the symmetric eigensolvers with
// vectors (Syev, Stev: every xSYEV/xSYEVD-family name) take the QL/QR
// iteration on the whole eigenvector matrix, and above which divide & conquer.
// The QL/QR route wins or ties on all four element types up to 112 and divide
// & conquer from 128 on (root BenchmarkSymEigRoutes; EXPERIMENTS.md, "One
// symmetric eigensolver body").
const syevCrossover = 112

// Stedc computes all eigenvalues and eigenvectors of a symmetric
// tridiagonal matrix by Cuppen's divide & conquer method with deflation
// and a safeguarded secular-equation solver (xSTEDC). d (n) and e (n-1)
// are overwritten; on success d holds the eigenvalues ascending. If z is
// non-nil (n×n) it is multiplied by the tridiagonal eigenvector matrix (one
// dense product; Stevd computes the eigenvectors of T themselves without
// it). Returns non-zero if the QL/QR fallback fails on a leaf block.
func Stedc[T core.Scalar](cfg *core.Config, n int, d, e []float64, z []T, ldz int) int {
	if n == 0 {
		return 0
	}
	if z == nil {
		return Sterf(cfg, n, d, e)
	}
	// The eigenvector matrix of T in the element type of z, then z := z·qt
	// from a copy of z straight back into it.
	work := blas.GetScratch[T](2 * n * n)
	defer blas.PutScratch(work)
	qt, zcopy := work[:n*n], work[n*n:]
	if info := Stevd(cfg, n, d, e, qt, n); info != 0 {
		return info
	}
	Lacpy('A', n, n, z, ldz, zcopy, n)
	blas.Gemm(cfg, NoTrans, NoTrans, n, n, n, core.FromFloat[T](1), zcopy, n, qt, n, core.FromFloat[T](0), z, ldz)
	return 0
}

// Stevd computes all eigenvalues and, optionally, eigenvectors of a real
// symmetric tridiagonal matrix by divide & conquer — the route of Stev and
// Syev above syevCrossover: the D&C tree runs on the identity in float64 — in
// z itself when that is its type — so z receives the eigenvectors of T with
// no product at the end.
func Stevd[T core.Scalar](cfg *core.Config, n int, d, e []float64, z []T, ldz int) int {
	if n == 0 {
		return 0
	}
	if z == nil {
		return Sterf(cfg, n, d, e)
	}
	q, own := any(z).([]float64)
	ldq := ldz
	if !own {
		q, ldq = blas.GetScratch[float64](n*n), n
		defer blas.PutScratch(q)
	}
	// The merges deflate against 8ε·max(|d|, |z|) with z of unit norm, which
	// is xLAED2's tolerance only for T of at least unit scale, and square
	// entries of T: a T below unit scale, or above ssfmax, is normalized
	// first and its eigenvalues scaled back (xSTEDC's scaling).
	tnrm := Lanst(MaxAbs, n, d, e)
	scaled := tnrm > 0 && (tnrm < 1 || tnrm > ssfmax)
	if scaled {
		Lascl(MatGeneral, tnrm, 1, n, 1, d, n)
		Lascl(MatGeneral, tnrm, 1, n-1, 1, e, n)
	}
	Laset('A', n, n, 0.0, 1.0, q, ldq)
	info := stedcRec(cfg, n, d, e, q, ldq, make([]int, mergeInts*n))
	if scaled {
		Lascl(MatGeneral, 1, tnrm, n, 1, d, n)
	}
	if info == 0 && !own {
		blas.ConvertF64(n, n, q, n, z, ldz)
	}
	return info
}

// stedcRec is the recursive kernel operating on float64 eigenvector
// accumulation (q starts as the identity of order n). idx is the integer
// workspace of the merges, mergeInts·n long.
func stedcRec(cfg *core.Config, n int, d, e []float64, q []float64, ldq int, idx []int) int {
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
	if info := stedcRec(cfg, m, d[:m], e[:m-1], q, ldq, idx); info != 0 {
		return info
	}
	if info := stedcRec(cfg, n-m, d[m:], e[m:], q[m+m*ldq:], ldq, idx); info != 0 {
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
	dcMerge(cfg, n, m, math.Abs(rho), d, zv, q, ldq, idx)
	return 0
}

// mergeInts·n integers serve one rank-one merge of order n (mergeSets); the
// merges of a tree run one after the other, so the root's allocation serves
// them all.
const mergeInts = 7

// mergeSets are the index sets of a merge over its n columns in sorted
// ("compressed") order: perm[j] is the column of the accumulation that
// compressed column j is, kind[j] which rows of it can be non-zero — those of
// the first child (mergeTop), of the second (mergeBottom), or, once a
// deflating rotation has mixed two columns, both (mergeDense) — xLAED2's and
// xLASD2's column types. sec lists the k compressed columns left in the
// secular problem, ascending. slot[j] is where column j's result stands in
// mergeBasis' staging block — secular root a in slot a, the deflated columns
// behind them — cols[s] the column of the accumulation that feeds slot s, the
// secular ones grouped by kind, and rowOf[g] the position in sec of the g-th
// grouped column. order is the final sort.
type mergeSets struct {
	perm, kind, sec, slot, cols, rowOf, order []int
	k1, k2                                    int // secular columns of kind mergeTop, mergeDense
}

const (
	mergeTop = iota
	mergeDense
	mergeBottom
)

func newMergeSets(n int, idx []int) mergeSets {
	return mergeSets{perm: idx[:n], kind: idx[n : 2*n], sec: idx[2*n : 2*n], slot: idx[3*n : 4*n],
		cols: idx[4*n : 5*n], rowOf: idx[5*n : 6*n], order: idx[6*n : 7*n]}
}

// rotated records that a deflating rotation mixed compressed columns j and
// last, of which j stays in the secular problem.
func (s *mergeSets) rotated(last, j int) {
	if s.kind[last] != s.kind[j] {
		s.kind[j] = mergeDense
	}
}

// partition is called once deflation has chosen sec: it assigns the slots and
// groups the secular columns by kind.
func (s *mergeSets) partition() {
	n, k := len(s.perm), len(s.sec)
	for j := range s.slot {
		s.slot[j] = -1
	}
	var count [3]int
	for a, j := range s.sec {
		s.slot[j] = a
		count[s.kind[j]]++
	}
	s.k1, s.k2 = count[mergeTop], count[mergeDense]
	next := [3]int{0, s.k1, s.k1 + s.k2}
	for a, j := range s.sec {
		g := next[s.kind[j]]
		next[s.kind[j]]++
		s.cols[g], s.rowOf[g] = s.perm[j], a
	}
	for j, t := 0, k; j < n; j++ {
		if s.slot[j] < 0 {
			s.slot[j], s.cols[t] = t, s.perm[j]
			t++
		}
	}
}

// mergeBasis replaces the first n columns of the rows×(≥n) accumulation q,
// whose columns the two children fill above and from row r1 down, by the
// merged basis: output column i is staging slot s.slot[s.order[i]], where
// the slot of secular root a holds Σ_b coef[b+a·k]·(secular column b) and
// the others the deflated columns unchanged. The secular columns are
// gathered grouped by kind, so the product is two half-height GEMMs over the
// rows that can be non-zero — top and dense columns for rows 0:r1, dense and
// bottom ones below — instead of one over [Q1 0; 0 Q2] as if it were dense.
func mergeBasis(cfg *core.Config, s *mergeSets, rows, r1 int, q []float64, ldq int, coef []float64) {
	n, k := len(s.perm), len(s.sec)
	// The two row blocks: first row, height, first grouped column reaching
	// it and their number; then gathered columns and product.
	off, h := [2]int{0, r1}, [2]int{r1, rows - r1}
	g0, gn := [2]int{0, s.k1}, [2]int{s.k1 + s.k2, k - s.k1}
	var g, out [2][]float64
	size := k*k + rows*(n-k)
	for b := range h {
		size += h[b] * (gn[b] + k)
	}
	work := blas.GetScratch[float64](size)
	defer blas.PutScratch(work)
	cg, stage, rest := work[:k*k], work[k*k:k*k+rows*(n-k)], work[k*k+rows*(n-k):]
	for b := range h {
		g[b], out[b], rest = rest[:h[b]*gn[b]], rest[h[b]*gn[b]:h[b]*(gn[b]+k)], rest[h[b]*(gn[b]+k):]
	}
	for gi, c := range s.cols[:k] {
		for a := 0; a < k; a++ {
			cg[gi+a*k] = coef[s.rowOf[gi]+a*k]
		}
		for b := range h {
			if j := gi - g0[b]; j >= 0 && j < gn[b] {
				copy(g[b][j*h[b]:(j+1)*h[b]], q[off[b]+c*ldq:])
			}
		}
	}
	for t, c := range s.cols[k:] {
		copy(stage[t*rows:(t+1)*rows], q[c*ldq:])
	}
	for b := range h {
		blas.Gemm(cfg, NoTrans, NoTrans, h[b], k, gn[b], 1.0, g[b], h[b], cg[g0[b]:], k, 0.0, out[b], h[b])
	}
	for i, p := range s.order {
		col := q[i*ldq : i*ldq+rows]
		if sl := s.slot[p]; sl < k {
			copy(col[:r1], out[0][sl*h[0]:])
			copy(col[r1:], out[1][sl*h[1]:])
		} else {
			copy(col, stage[(sl-k)*rows:])
		}
	}
}

// dcMerge solves the rank-one modified diagonal eigenproblem
// D + rho·z·zᵀ (rho > 0) and updates the eigenvector accumulation q,
// whose block structure is [Q1 0; 0 Q2] with the split at m. idx is
// mergeInts·n integers of workspace; every float workspace is pooled scratch
// that is written before it is read.
func dcMerge(cfg *core.Config, n, m int, rho float64, d, zv []float64, q []float64, ldq int, idx []int) {
	eps := core.EpsDouble
	s := newMergeSets(n, idx)
	vecs := blas.GetScratch[float64](7 * n)
	defer blas.PutScratch(vecs)
	ds, zs, lam := vecs[:n], vecs[n:2*n], vecs[2*n:3*n]
	// Sort the diagonal entries ascending, permuting z with them.
	for i := range s.perm {
		s.perm[i] = i
	}
	slices.SortStableFunc(s.perm, func(a, b int) int { return cmp.Compare(d[a], d[b]) })
	for j, p := range s.perm {
		ds[j], zs[j], s.kind[j] = d[p], zv[p], mergeTop
		if p >= m {
			s.kind[j] = mergeBottom
		}
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
			sn := zs[last] / r
			// The rotation leaves an off-diagonal coupling of size
			// (dᵢ − d_last)·c·s, which deflation drops; only do so when it
			// is negligible (the xLAED2 criterion).
			if r > 0 && math.Abs((ds[i]-ds[last])*c*sn) <= tol {
				// Rotate columns (last, i) of q and the z pair so that
				// zs[last] becomes 0; adjust the diagonal pair.
				rotCols(q, ldq, s.perm[last], s.perm[i], 0, n-1, c, -sn)
				s.rotated(last, i)
				dl := ds[last]
				di := ds[i]
				ds[last] = dl*c*c + di*sn*sn
				ds[i] = dl*sn*sn + di*c*c
				zs[i] = r
				zs[last] = 0
				lam[last] = ds[last]
				s.sec = s.sec[:len(s.sec)-1] // last was the newest member of the secular set
			}
		}
		s.sec = append(s.sec, i)
		last = i
	}
	s.partition()
	k := len(s.sec)
	mats := blas.GetScratch[float64](2 * k * k)
	defer blas.PutScratch(mats)
	uhat, denom := mats[:k*k], mats[k*k:]
	if k > 0 {
		dd, zz, lams, zhat := vecs[3*n:3*n+k], vecs[4*n:4*n+k], vecs[5*n:5*n+k], vecs[6*n:6*n+k]
		for a, i := range s.sec {
			dd[a] = ds[i]
			zz[a] = zs[i]
		}
		solveSecularCore(k, rho, dd, zz, lams, uhat, zhat, denom)
		for a, i := range s.sec {
			lam[i] = lams[a]
		}
	}
	// Final ascending sort of all eigenpairs.
	for i := range s.order {
		s.order[i] = i
	}
	slices.SortStableFunc(s.order, func(a, b int) int { return cmp.Compare(lam[a], lam[b]) })
	mergeBasis(cfg, &s, n, m, q, ldq, uhat)
	for i, p := range s.order {
		d[i] = lam[p]
	}
}

// secularMaxEvals caps the evaluations of the secular function spent on one
// root. The rational iteration needs 3–6; the cap only binds on non-finite
// input, where it bounds the bisection fallback.
const secularMaxEvals = 100

// solveSecularCore solves the secular equation 1 + rho·Σ zⱼ²/(dⱼ − λ) = 0 for
// each of its k roots (d ascending, rho > 0, all z non-negligible), and
// builds the stabilized eigenvectors by the Gu–Eisenstat z-recomputation
// (xLAED4/xLAED3 roles). u receives the k×k eigenvector matrix of the
// rank-one update; zhat (k) and denom (k×k) are caller workspace that return
// the recomputed ẑ and the pole differences denom[j+i*k] = dⱼ − λᵢ, which
// Bdsdc needs to build the left singular vectors of its rank-one merge
// (whose components are dⱼ·ẑⱼ/(dⱼ² − σᵢ²) on top of the right-vector
// formula). Returns the number of secular-function evaluations spent.
//
// Each root is computed in the shifted variable τᵢ = λᵢ − d_base with base
// the nearer of the two poles enclosing it, so the denominators
// dⱼ − λᵢ = (dⱼ − d_base) − τᵢ are formed from exact differences of the dⱼ
// and never suffer catastrophic cancellation or exact pole hits (the
// essential idea of xLAED4).
func solveSecularCore(k int, rho float64, d, z []float64, lam []float64, u, zhat, denom []float64) (evals int) {
	if k == 1 {
		lam[0] = d[0] + rho*z[0]*z[0]
		u[0] = 1
		zhat[0] = z[0]
		denom[0] = d[0] - lam[0]
		return 0
	}
	zz := 0.0
	for j := 0; j < k; j++ {
		zz += z[j] * z[j]
	}
	for i := 0; i < k; i++ {
		base, tau, ev := secularRoot(k, i, rho, d, z, zz)
		evals += ev
		if tau == 0 {
			// Keep λ strictly off the pole.
			tau = math.SmallestNonzeroFloat64
			if base != i {
				tau = -tau
			}
		}
		lam[i] = d[base] + tau
		for j := 0; j < k; j++ {
			denom[j+i*k] = (d[j] - d[base]) - tau
		}
	}
	// Gu–Eisenstat: recompute ẑ so the eigenvector formula is stable.
	// (λᵢ − dⱼ) = −denom[j+i*k], exactly the quantities the root finder
	// produced.
	for j := 0; j < k; j++ {
		p := -denom[j+(k-1)*k] / rho
		for i := 0; i < k-1; i++ {
			num := -denom[j+i*k]
			var den float64
			if i < j {
				den = d[i] - d[j]
			} else {
				den = d[i+1] - d[j]
			}
			p *= num / den
		}
		zhat[j] = core.Sign(math.Sqrt(math.Abs(p)), z[j])
	}
	// Eigenvectors: u(:,i) ∝ ẑⱼ / (dⱼ − λᵢ).
	for i := 0; i < k; i++ {
		nrm := 0.0
		for j := 0; j < k; j++ {
			v := zhat[j] / denom[j+i*k]
			u[j+i*k] = v
			nrm += v * v
		}
		nrm = math.Sqrt(nrm)
		for j := 0; j < k; j++ {
			u[j+i*k] /= nrm
		}
	}
	return evals
}

// secularEval evaluates w(τ) = 1 + ρ·Σ zⱼ²/(δⱼ − τ), δⱼ = dⱼ − d[base], with
// the anchoring pole's own term −ρ·z²/τ kept apart: w = rest + pole and
// w′ = dpsi + dphi + dpole, dpsi summing ρ·zⱼ²/(δⱼ − τ)² over the other
// poles 0..split and dphi over the other poles above split. base is split
// or split+1. Each side is summed from its far end towards the root, so the
// terms grow as they are added; sumAbs is Σ|terms| (all terms of a side
// have one sign).
func secularEval(k, split, base int, rho float64, d, z []float64, tau float64) (rest, pole, dpsi, dphi, dpole, sumAbs float64) {
	db := d[base]
	var psi, phi float64
	for j := 0; j < min(split+1, base); j++ {
		t := z[j] / ((d[j] - db) - tau)
		psi += z[j] * t
		dpsi += t * t
	}
	for j := k - 1; j > max(split, base); j-- {
		t := z[j] / ((d[j] - db) - tau)
		phi += z[j] * t
		dphi += t * t
	}
	t := -z[base] / tau
	pole = rho * z[base] * t
	return 1 + rho*(psi+phi), pole, rho * dpsi, rho * dphi, rho * t * t, rho*(math.Abs(psi)+math.Abs(phi)) + math.Abs(pole)
}

// secularRoot finds root i of the secular equation: the pole d[base] it is
// anchored to, the shift τ with λᵢ = d[base] + τ, and the number of function
// evaluations spent (at most secularMaxEvals).
//
// An interior root lies between dᵢ and dᵢ₊₁; the sign of w at the midpoint
// picks the nearer pole as anchor and halves the bracket, so τ ∈ (0, gap/2]
// from dᵢ or τ ∈ [−gap/2, 0) from dᵢ₊₁. The last root lies in
// (d[k−1], d[k−1] + ρ·‖z‖²) and is anchored at d[k−1]. From there the
// iteration is xLAED4's: each step replaces w by c + S/(δ₀ − t) + R/(δ₁ − t),
// δ₀ < δ₁ the two poles enclosing the root (the last two poles for the last
// root), and moves to the root of that rational function inside the bracket.
// The first step takes both weights as the poles' exact ρ·z² and solves for
// the shift itself; the later ones match w and w′ at τ and solve for the
// correction. For an interior root the anchoring pole keeps its exact
// weight and the other weight and c are fitted (the "middle way"), switching
// to both weights fitted (S = ψ′·(δ₀−τ)², R = φ′·(δ₁−τ)², what the last root
// always uses) and back whenever a step fails to cut |w| tenfold.
//
// w is increasing between poles, so every evaluation tightens one end of the
// bracket, and bisection survives as the safeguard: the step goes to the
// bracket's midpoint — the geometric one once the bracket is clear of the
// pole and spans binades — when the rational root is NaN or outside the
// bracket, or when the previous rational step did not at least halve |w|.
// Iteration stops on xLAED4's rule |w| ≤ ε·(8·Σ|terms| + 1 + |τ|·w′), the
// rounding error of w itself, or once the bracket has no float strictly
// inside it.
func secularRoot(k, i int, rho float64, d, z []float64, zz float64) (base int, tau float64, evals int) {
	split, base := i, i
	var lo, hi float64
	if i == k-1 {
		split = k - 2
		hi = rho * zz
		tau = 0.5 * hi
	} else {
		tau = 0.5 * (d[i+1] - d[i])
	}
	rest, pole, dpsi, dphi, dpole, sumAbs := secularEval(k, split, base, rho, d, z, tau)
	evals = 1
	if i < k-1 && rest+pole <= 0 {
		// The root is in the upper half: anchor at dᵢ₊₁ and split w around
		// the new anchor at the same midpoint.
		base, lo, tau = i+1, -tau, -tau
		rest, pole, dpsi, dphi, dpole, sumAbs = secularEval(k, split, base, rho, d, z, tau)
		evals = 2
	} else if i < k-1 {
		hi = tau
	}
	far := split + 1 // the enclosing pole that is not the anchor
	if base == far {
		far = split
	}
	pfar := d[far] - d[base]
	sfar := rho * z[far] * z[far]
	first := true       // the next rational step is the initial guess
	both := i == k-1    // fit both pole weights, not only the far one
	prev := math.Inf(1) // |w| where the previous rational step started
	for {
		w := rest + pole
		dw := dpsi + dphi + dpole
		if math.Abs(w) <= core.EpsDouble*(8*sumAbs+1+math.Abs(tau)*dw) {
			break
		}
		if w < 0 {
			lo = tau
		} else {
			hi = tau
		}
		// The fallback point: the bracket's midpoint — in magnitude, once the
		// bracket is clear of the pole and spans binades.
		next := 0.5 * (lo + hi)
		switch {
		case lo > 0 && hi > 4*lo:
			next = math.Sqrt(lo) * math.Sqrt(hi)
		case hi < 0 && lo < 4*hi:
			next = -math.Sqrt(-lo) * math.Sqrt(-hi)
		}
		if !(lo < next && next < hi) || evals >= secularMaxEvals {
			break
		}
		if aw := math.Abs(w); aw <= 0.5*prev {
			if aw > 0.1*prev && i < k-1 {
				both = !both
			}
			prev = aw
			dfar := pfar - tau
			var r1, r2 float64
			if first {
				first, prev = false, math.Inf(1)
				// From the midpoint the root may be many orders of magnitude
				// closer to the anchoring pole than τ is, and a correction
				// to τ would cancel: solve for the new shift itself, both
				// enclosing poles at their exact weights and c the rest of
				// w (xLAED4's initial guess). With the anchor at 0 the
				// rational function is c − S/t + R/(p − t).
				sbase := rho * z[base] * z[base]
				c := rest - sfar/dfar
				a := c*pfar + sbase + sfar
				b := sbase * pfar
				q := 0.5 * (a + math.Copysign(math.Sqrt(math.Abs(a*a-4*b*c)), a))
				r1, r2 = q/c, b/q
			} else {
				// Correction η: c·η² − a·η + b = 0 with a and b fixed by w
				// and w′ and c by the choice of fit. Formed from the sums
				// that exclude the anchoring pole, c has no cancellation at
				// the scale of the pole's own term.
				a := (dfar-tau)*w + tau*dfar*dw
				b := -tau * dfar * w
				c := rest - dfar*(dpsi+dphi)
				if both {
					if base == split {
						c = w + tau*(dpsi+dpole) - dfar*dphi
					} else {
						c = w - dfar*dpsi + tau*(dphi+dpole)
					}
					if i == k-1 {
						c = math.Abs(c)
					}
				}
				// Both roots, cancellation-free; with c = 0 the first is
				// infinite and the second is b/a.
				q := 0.5 * (a + math.Copysign(math.Sqrt(math.Abs(a*a-4*b*c)), a))
				r1, r2 = tau+q/c, tau+b/q
			}
			in1, in2 := lo < r1 && r1 < hi, lo < r2 && r2 < hi
			switch {
			case in1 && (!in2 || math.Abs(r1-tau) <= math.Abs(r2-tau)):
				next = r1
			case in2:
				next = r2
			}
		} else {
			prev = math.Inf(1) // a bisection step; the next one is rational again
		}
		tau = next
		rest, pole, dpsi, dphi, dpole, sumAbs = secularEval(k, split, base, rho, d, z, tau)
		evals++
	}
	return base, tau, evals
}

// SolveSecularForTest exposes the secular solver to the package tests,
// which validate it against brute-force eigensolves, and to the root
// benchmark; it returns the number of secular-function evaluations spent.
func SolveSecularForTest(k int, rho float64, d, z []float64, lam []float64, u []float64) (evals int) {
	return solveSecularCore(k, rho, d, z, lam, u, make([]float64, k), make([]float64, k*k))
}
