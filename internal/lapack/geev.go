package lapack

import (
	"math"
	"math/cmplx"

	"repro/internal/blas"
	"repro/internal/core"
)

// The standard nonsymmetric eigensolvers — xGEES, xGEESX, xGEEV and xGEEVX,
// and xGEGS/xGEGV on top of them — are one body, geev, in a work type E:
// float64 for the real types, complex128 for the complex ones. float32 and
// complex64 inputs are converted on entry and the outputs on exit, nowhere
// else (see DESIGN.md); this only ever increases accuracy relative to the
// reference single-precision paths. Eigenvalues come out as w []complex128 for
// all four types. Below geev only the QR iteration (Hseqr, HseqrC) and the
// swaps with a 2×2 block (Laexc) are written per field; the reordering, the
// Sylvester solver and the condition stage are one generic body each.

// convertMat copies the m×n matrix src into dst in dst's element type (a
// real destination takes the real part).
func convertMat[S, D core.Scalar](m, n int, src []S, lds int, dst []D, ldd int) {
	for j := 0; j < n; j++ {
		col := dst[j*ldd : j*ldd+m]
		for i, v := range src[j*lds : j*lds+m] {
			col[i] = core.FromComplex[D](core.ToComplex(v))
		}
	}
}

// workLd is the leading dimension the nonsymmetric drivers give the n×n work
// matrices they own: n rounded up to an odd number of cache lines. A row of
// such a matrix — what the QR sweeps of Hseqr walk, three at a time — is then
// spread over every set of the L1 cache, where a stride that is a multiple of
// a power of two (n = 192 doubles: 8 of the 64 sets) evicts itself.
func workLd[E core.Scalar](n int) int {
	per := 8
	if core.IsComplex[E]() {
		per = 4
	}
	if n < 8*per {
		return n
	}
	return (n+per-1)/per*per | per
}

// NonsymResult carries what the nonsymmetric drivers report besides the
// eigenvalues and vectors. SDim counts the eigenvalues a Schur driver's
// selector moved to the top left. With sense an eigenvector driver reports
// its balancing (ILo, IHi, Scale, ABNrm) and one RCondE (|uᴴ·v| of the unit
// left and right vectors) and RCondV (a sep estimate, see DESIGN.md) per
// eigenvalue; a Schur driver one of each, for the average of the selected
// cluster and for its right invariant subspace. Info > 0 reports that the QR
// algorithm failed.
type NonsymResult struct {
	SDim           int
	ILo, IHi       int
	Scale          []float64
	ABNrm          float64
	RCondE, RCondV []float64
	Info           int
}

// Geesx computes the Schur factorization A = Z·T·Zᴴ of a general matrix (the
// xGEES driver, with sense xGEESX). On return a holds T — for the real types
// in real Schur form, standardized 2×2 blocks carrying the complex pairs — w
// the eigenvalues and, if vs is non-nil, vs the Schur vectors Z. With sel the
// eigenvalues for which sel(re, im) holds are moved to the top left of T and
// SDim counts them. A is not balanced.
func Geesx[T core.Scalar](cfg *core.Config, sense bool, sel func(wr, wi float64) bool, n int, a []T, lda int, w []complex128, vs []T, ldvs int) NonsymResult {
	return nonsym(cfg, eigJob{schur: true, sel: sel, sense: sense}, n, a, lda, w, nil, 1, vs, ldvs)
}

// Geevx computes the eigenvalues w and, per jobvl/jobvr, the left (uᴴ·A =
// λ·uᴴ) and right eigenvectors of a general matrix (the xGEEV driver, with
// sense xGEEVX; BALANC = 'B' always, the paper's LA_GEEVX default). Every
// vector has unit norm and its largest component real; for the real types
// they use the real packing (see Trevc). a is overwritten.
func Geevx[T core.Scalar](cfg *core.Config, sense, jobvl, jobvr bool, n int, a []T, lda int, w []complex128, vl []T, ldvl int, vr []T, ldvr int) NonsymResult {
	return nonsym(cfg, eigJob{sense: sense, vl: jobvl, vr: jobvr}, n, a, lda, w, vl, ldvl, vr, ldvr)
}

// Geev is Geevx without condition numbers, the eigenvalues in the real
// packing: (wr[i], wi[i]), a complex pair at consecutive entries with the
// positive imaginary part first. Returns i > 0 if the QR algorithm failed.
func Geev[T core.Scalar](cfg *core.Config, jobvl, jobvr bool, n int, a []T, lda int, wr, wi []float64, vl []T, ldvl int, vr []T, ldvr int) int {
	w := blas.GetScratch[complex128](n)
	defer blas.PutScratch(w)
	info := Geevx(cfg, false, jobvl, jobvr, n, a, lda, w, vl, ldvl, vr, ldvr).Info
	for i, v := range w {
		wr[i], wi[i] = real(v), imag(v)
	}
	return info
}

// GeevC is Geev for the complex types, the eigenvalues in w.
func GeevC[T core.Cmplx](cfg *core.Config, jobvl, jobvr bool, n int, a []T, lda int, w []complex128, vl []T, ldvl int, vr []T, ldvr int) int {
	return Geevx(cfg, false, jobvl, jobvr, n, a, lda, w, vl, ldvl, vr, ldvr).Info
}

// eigJob selects the optional stages of geev.
type eigJob struct {
	schur  bool                      // xGEES: no balancing; T, and the Schur vectors in vr
	sel    func(wr, wi float64) bool // schur: the eigenvalues moved to the top left
	sense  bool                      // the condition numbers of xGEESX / xGEEVX
	vl, vr bool                      // the eigenvectors handed out
}

// nonsym runs geev in the work type of T.
func nonsym[T core.Scalar](cfg *core.Config, job eigJob, n int, a []T, lda int, w []complex128, vl []T, ldvl int, vr []T, ldvr int) NonsymResult {
	if core.IsComplex[T]() {
		return geev[T, complex128](cfg, job, n, a, lda, w, vl, ldvl, vr, ldvr)
	}
	return geev[T, float64](cfg, job, n, a, lda, w, vl, ldvl, vr, ldvr)
}

// geev is the one body of the standard nonsymmetric eigenproblem in its work
// type E: a converted into h, balanced (not for the Schur drivers), reduced
// to Hessenberg form, Q generated into z, the QR iteration (Hseqr or HseqrC)
// on h and z — z only when T or vectors are wanted. Then the Schur drivers
// reorder by sel, estimate the cluster's conditioning and hand out z; the
// eigenvector drivers compute per side the eigenvectors of T back-transformed
// by z, with sense both sides first for the condition numbers, then undo the
// balancing and normalise. h goes back into a last. For real E the iteration
// writes the real packing wr, wi, copied into w. Every work array is pooled
// scratch that is written before it is read.
func geev[T, E core.Scalar](cfg *core.Config, job eigJob, n int, a []T, lda int, w []complex128, vl []T, ldvl int, vr []T, ldvr int) (res NonsymResult) {
	if job.sense {
		m := n
		if job.schur {
			m = 1
		} else {
			res.Scale = make([]float64, n)
		}
		res.RCondE, res.RCondV = make([]float64, m), make([]float64, m)
		if job.schur {
			res.RCondE[0] = 1 // of the empty cluster
		}
	}
	if n == 0 {
		return res
	}
	w = w[:n]
	eigvecs := !job.schur && (job.vl || job.vr || job.sense)
	ld := workLd[E](n)
	nmat := 1 // h, then z, then the vectors: one side at a time, or with sense both
	switch {
	case job.schur:
		nmat = 2
	case job.sense:
		nmat = 4
	case eigvecs:
		nmat = 3
	}
	work := blas.GetScratch[E](nmat*ld*n + n)
	defer blas.PutScratch(work)
	scale := res.Scale
	if scale == nil {
		scale = blas.GetScratch[float64](n)
		defer blas.PutScratch(scale)
	}
	var wr, wi []float64
	if !core.IsComplex[E]() {
		wr, wi = blas.GetScratch[float64](n), blas.GetScratch[float64](n)
		defer blas.PutScratch(wr)
		defer blas.PutScratch(wi)
		clear(wr)
		clear(wi)
	}
	h, tau := work[:ld*n], work[nmat*ld*n:]
	convertMat(n, n, a, lda, h, ld)
	balanc := byte('B')
	if job.schur {
		balanc = 'N'
	}
	ilo, ihi := Gebal(balanc, n, h, ld, scale)
	if res.Scale != nil {
		res.ILo, res.IHi, res.ABNrm = ilo, ihi, Lange(OneNorm, n, n, h, ld)
	}
	Gehrd(cfg, n, ilo, ihi, h, ld, tau)
	var z []E
	if nmat > 1 {
		z = work[ld*n : 2*ld*n]
		Lacpy('A', n, n, h, ld, z, ld)
		Orghr(cfg, n, ilo, ihi, z, ld, tau)
	}
	switch h := any(h).(type) {
	case []float64:
		res.Info = Hseqr(cfg, z != nil, n, ilo, ihi, h, ld, wr, wi, any(z).([]float64), ld)
		for i := range w {
			w[i] = complex(wr[i], wi[i])
		}
	case []complex128:
		res.Info = HseqrC(cfg, z != nil, n, ilo, ihi, h, ld, w, any(z).([]complex128), ld)
	}
	if res.Info != 0 {
		return res
	}
	if job.schur {
		if job.sel != nil {
			res.SDim = reorder(cfg, n, h, z, ld, w, job.sel)
		}
		if job.sense {
			res.RCondE[0], res.RCondV[0] = sepEstimates(cfg, n, res.SDim, h, ld)
		}
		if vr != nil {
			convertMat(n, n, z, ld, vr, ldvr)
		}
	}
	if eigvecs {
		// One matrix serves both sides in turn; with sense each side has its own.
		right, left := work[2*ld*n:3*ld*n], work[(nmat-1)*ld*n:nmat*ld*n]
		if job.sense {
			Trevc(cfg, false, n, h, ld, wr, wi, z, ld, right, ld)
			Trevc(cfg, true, n, h, ld, wr, wi, z, ld, left, ld)
			condFromVectors(n, w, left, right, ld, res.RCondE)
			sepPerEigenvalue(cfg, n, h, ld, w, res.RCondV)
		}
		vectors := func(isLeft bool, side byte, v []E, out []T, ldo int) {
			if !job.sense {
				Trevc(cfg, isLeft, n, h, ld, wr, wi, z, ld, v, ld)
			}
			Gebak('B', side, n, ilo, ihi, scale, n, v, ld)
			normalizeEvecs(n, w, v, ld)
			convertMat(n, n, v, ld, out, ldo)
		}
		if job.vr {
			vectors(false, 'R', right, vr, ldvr)
		}
		if job.vl {
			vectors(true, 'L', left, vl, ldvl)
		}
	}
	convertMat(n, n, h, ld, a, lda)
	return res
}

// normalizeEvecs scales each eigenvector in the columns of v to unit
// Euclidean norm and rotates it so that its largest component is real (the
// xGEEV convention). For real E a complex eigenvalue w[j] marks a pair of the
// real packing — real part in column j, imaginary part in column j+1. The
// norm is Nrm2's, so components that Gebak scaled beyond the square root of
// the range neither overflow it nor vanish from it.
func normalizeEvecs[E core.Scalar](n int, w []complex128, v []E, ldv int) {
	for j := 0; j < n; j++ {
		x := v[j*ldv:][:n]
		y := x[:0] // the imaginary column of a pair
		if !core.IsComplex[E]() && imag(w[j]) != 0 {
			j++
			y = v[j*ldv:][:n]
		}
		nrm := math.Hypot(blas.Nrm2(n, x, 1), blas.Nrm2(len(y), y, 1))
		if nrm == 0 || math.IsInf(nrm, 0) || nrm != nrm {
			continue
		}
		blas.ScalReal(n, 1/nrm, x, 1)
		blas.ScalReal(len(y), 1/nrm, y, 1)
		if len(y) == 0 && !core.IsComplex[E]() {
			continue
		}
		// With every component at most 1 the squared magnitudes are safe to
		// compare; only the largest one's modulus is needed.
		part := func(i int) (re, im float64) {
			if len(y) > 0 {
				return core.Re(x[i]), core.Re(y[i])
			}
			return core.Re(x[i]), core.Im(x[i])
		}
		k, big := 0, -1.0
		for i := range x {
			if re, im := part(i); re*re+im*im > big {
				k, big = i, re*re+im*im
			}
		}
		re, im := part(k)
		abs := math.Hypot(re, im)
		if len(y) > 0 {
			blas.RotG(n, x, 1, y, 1, re/abs, im/abs)
			y[k] = 0
		} else {
			blas.Scal(n, core.FromComplex[E](complex(re/abs, -im/abs)), x, 1)
		}
		x[k] = core.FromFloat[E](abs)
	}
}

// reorder moves the eigenvalues of the Schur form t for which sel(re, im)
// holds to its top left by similarity swaps of adjacent diagonal blocks,
// updating q and the eigenvalues w, and returns their number (xTRSEN's
// reordering). A real quasi-triangular t moves its complex pairs as 2×2
// blocks, which Laexc swaps; two 1×1 blocks, the only kind of a complex
// triangular t, are swap11's. A swap too ill-conditioned to perform leaves
// its block where it is.
func reorder[E core.Scalar](cfg *core.Config, n int, t, q []E, ld int, w []complex128, sel func(wr, wi float64) bool) (sdim int) {
	var sw *swapWork
	for target := 0; target < n; {
		// The next selected block at or after target.
		src, size := target, 1
		for ; src < n; src += size {
			size = blockEnd(n, t, ld, src) - src
			if sel(real(w[src]), imag(w[src])) || (size == 2 && sel(real(w[src+1]), imag(w[src+1]))) {
				break
			}
		}
		if src >= n {
			break
		}
		// Bubble it up to target with adjacent swaps.
		for src > target {
			above := blockStart(t, ld, src)
			aboveSize := src - above
			if aboveSize+size == 2 {
				swap11(n, t, ld, q, ld, above)
			} else {
				if sw == nil {
					sw = &swapWork{larf: make([]float64, max(4, n))}
				}
				// Only a real t has 2×2 blocks.
				if Laexc(cfg, n, any(t).([]float64), ld, any(q).([]float64), ld, above, aboveSize, size, sw) != 0 {
					break
				}
			}
			src = above
		}
		schurEigenvalues(n, t, ld, w)
		sdim += size
		target = src + size
	}
	schurEigenvalues(n, t, ld, w)
	return sdim
}

// schurEigenvalues reads the eigenvalues off a Schur form: the diagonal,
// and Lanv2's pair for each 2×2 block of a real one.
func schurEigenvalues[E core.Scalar](n int, t []E, ldt int, w []complex128) {
	for i := 0; i < n; {
		if i < n-1 && t[i+1+i*ldt] != 0 {
			_, _, _, _, r1r, r1i, r2r, r2i, _, _ := Lanv2(core.Re(t[i+i*ldt]), core.Re(t[i+(i+1)*ldt]), core.Re(t[i+1+i*ldt]), core.Re(t[i+1+(i+1)*ldt]))
			w[i], w[i+1] = complex(r1r, r1i), complex(r2r, r2i)
			i += 2
		} else {
			w[i] = core.ToComplex(t[i+i*ldt])
			i++
		}
	}
}

// swap11 swaps the adjacent 1×1 diagonal blocks j and j+1 of a Schur form t
// by one plane rotation — Lartg's for a real t, zlartg's for a complex one —
// and applies it to q (xLAEXC's and xTREXC's 1×1 case). T(j, j+1) is
// invariant under this particular rotation (r·cs = t12), so the rows start at
// column j+2.
func swap11[E core.Scalar](n int, t []E, ldt int, q []E, ldq int, j int) {
	t11, t22 := t[j+j*ldt], t[j+1+(j+1)*ldt]
	var cs float64
	var sn E
	if core.IsComplex[E]() {
		var s complex128
		cs, s, _ = zlartg(core.ToComplex(t[j+(j+1)*ldt]), core.ToComplex(t22-t11))
		sn = core.FromComplex[E](s)
	} else {
		var s float64
		cs, s, _ = Lartg(core.Re(t[j+(j+1)*ldt]), core.Re(t22-t11))
		sn = core.FromFloat[E](s)
	}
	c, snc := core.FromFloat[E](cs), core.Conj(sn)
	if j+2 < n {
		planeRot(n-j-2, t[j+(j+2)*ldt:], ldt, t[j+1+(j+2)*ldt:], ldt, c, sn, snc)
	}
	planeRot(j, t[j*ldt:], 1, t[(j+1)*ldt:], 1, c, snc, sn)
	planeRot(n, q[j*ldq:], 1, q[(j+1)*ldq:], 1, c, snc, sn)
	t[j+j*ldt], t[j+1+(j+1)*ldt], t[j+1+j*ldt] = t22, t11, 0
}

// planeRot sets x, y = c·x + s1·y, c·y − s2·x over n elements of x and y at
// strides incx and incy: with (s1, s2) = (s, s̄) the rotation [c s; −s̄ c]
// from the left on two rows, with (s̄, s) from the right on two columns.
func planeRot[E core.Scalar](n int, x []E, incx int, y []E, incy int, c, s1, s2 E) {
	for i, ix, iy := 0, 0, 0; i < n; i, ix, iy = i+1, ix+incx, iy+incy {
		tx := c*x[ix] + s1*y[iy]
		y[iy] = c*y[iy] - s2*x[ix]
		x[ix] = tx
	}
}

// zlartg generates a complex plane rotation: [cs sn; -conj(sn) cs]·[f; g]
// = [r; 0] with real cs (xLARTG, complex).
func zlartg(f, g complex128) (cs float64, sn, r complex128) {
	if g == 0 {
		return 1, 0, f
	}
	if f == 0 {
		return 0, cmplx.Conj(g) / complex(cmplx.Abs(g), 0), complex(cmplx.Abs(g), 0)
	}
	af, ag := cmplx.Abs(f), cmplx.Abs(g)
	d := math.Hypot(af, ag)
	cs = af / d
	fa := f / complex(af, 0)
	sn = fa * cmplx.Conj(g) / complex(d, 0)
	r = fa * complex(d, 0)
	return cs, sn, r
}
