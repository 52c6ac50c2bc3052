package lapack

import (
	"math"
	"math/cmplx"

	"repro/internal/blas"
	"repro/internal/core"
)

// The nonsymmetric eigensolvers compute internally in float64 (real types)
// or complex128 (complex types); float32/complex64 inputs are promoted on
// entry and demoted on return (see DESIGN.md). This only ever increases
// accuracy relative to the reference single-precision paths.

func promoteReal[T core.Scalar](m, n int, a []T, lda int) []float64 {
	out := make([]float64, m*n)
	convertMat(m, n, a, lda, out, m)
	return out
}

func demoteReal[T core.Scalar](m, n int, src []float64, a []T, lda int) {
	convertMat(m, n, src, m, a, lda)
}

func promoteCmplx[T core.Scalar](m, n int, a []T, lda int) []complex128 {
	out := make([]complex128, m*n)
	convertMat(m, n, a, lda, out, m)
	return out
}

func demoteCmplx[T core.Scalar](m, n int, src []complex128, a []T, lda int) {
	convertMat(m, n, src, m, a, lda)
}

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

// Geev computes the eigenvalues and, optionally, the left and/or right
// eigenvectors of a real general matrix (the xGEEV driver). Eigenvalues
// are (wr[i], wi[i]); complex pairs occupy consecutive entries with
// positive imaginary part first. Eigenvectors use the LAPACK real packing
// (see TrevcRight). a is destroyed. Returns i > 0 if the QR algorithm
// failed to converge.
func Geev[T core.Float](cfg *core.Config, jobvl, jobvr bool, n int, a []T, lda int, wr, wi []float64, vl []T, ldvl int, vr []T, ldvr int) int {
	return geev(cfg, jobvl, jobvr, n, a, lda, wr, wi, vl, ldvl, vr, ldvr,
		func(ilo, ihi int, h, z []float64, ld int) int {
			return Hseqr(cfg, z != nil, n, ilo, ihi, h, ld, wr, wi, z, ld)
		})
}

// GeevC computes the eigenvalues and, optionally, eigenvectors of a
// complex general matrix (the xGEEV complex driver). w receives the
// eigenvalues; eigenvectors are returned as complex columns.
func GeevC[T core.Cmplx](cfg *core.Config, jobvl, jobvr bool, n int, a []T, lda int, w []complex128, vl []T, ldvl int, vr []T, ldvr int) int {
	return geev(cfg, jobvl, jobvr, n, a, lda, nil, nil, vl, ldvl, vr, ldvr,
		func(ilo, ihi int, h, z []complex128, ld int) int {
			return HseqrC(cfg, z != nil, n, ilo, ihi, h, ld, w, z, ld)
		})
}

// geev is the body of both drivers in their work type E (float64 or
// complex128): balance, reduce, generate Q, iterate (hseqr, on h and — when
// vectors are wanted — z, both ld apart), then per wanted side the
// eigenvectors of the Schur form back-transformed by z, the balancing undone,
// normalised. wr/wi are the real packing's eigenvalues, nil for complex E.
// Every work array is pooled scratch that is written before it is read.
func geev[T, E core.Scalar](cfg *core.Config, jobvl, jobvr bool, n int, a []T, lda int, wr, wi []float64, vl []T, ldvl int, vr []T, ldvr int,
	hseqr func(ilo, ihi int, h, z []E, ld int) int) int {
	if n == 0 {
		return 0
	}
	ld := workLd[E](n)
	nmat := 1
	if jobvl || jobvr {
		nmat = 3
	}
	work := blas.GetScratch[E](nmat*ld*n + n)
	defer blas.PutScratch(work)
	scale := blas.GetScratch[float64](n)
	defer blas.PutScratch(scale)
	h, tau := work[:ld*n], work[nmat*ld*n:]
	convertMat(n, n, a, lda, h, ld)
	ilo, ihi := Gebal('B', n, h, ld, scale)
	Gehrd(cfg, n, ilo, ihi, h, ld, tau)
	var z, v []E
	if nmat == 3 {
		z, v = work[ld*n:2*ld*n], work[2*ld*n:3*ld*n]
		Lacpy('A', n, n, h, ld, z, ld)
		Orghr(cfg, n, ilo, ihi, z, ld, tau)
	}
	if info := hseqr(ilo, ihi, h, z, ld); info != 0 {
		return info
	}
	vectors := func(left bool, side byte, out []T, ldo int) {
		trevc(cfg, left, n, h, ld, wr, wi, z, ld, v, ld)
		Gebak('B', side, n, ilo, ihi, scale, n, v, ld)
		normalizeEvecs(n, wi, v, ld)
		convertMat(n, n, v, ld, out, ldo)
	}
	if jobvr {
		vectors(false, 'R', vr, ldvr)
	}
	if jobvl {
		vectors(true, 'L', vl, ldvl)
	}
	convertMat(n, n, h, ld, a, lda)
	return 0
}

// normalizeEvecs scales each eigenvector in the columns of v to unit
// Euclidean norm and rotates a complex one so that its largest component is
// real (the xGEEV convention). wi marks the real packing's pairs — real part
// in column j, imaginary part in column j+1 — and is nil for complex E. The
// norm is Nrm2's, so components that Gebak scaled beyond the square root of
// the range neither overflow it nor vanish from it.
func normalizeEvecs[E core.Scalar](n int, wi []float64, v []E, ldv int) {
	for j := 0; j < n; j++ {
		x := v[j*ldv:][:n]
		y := x[:0] // the imaginary column of a pair
		if wi != nil && wi[j] != 0 {
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

// Gees computes the real Schur factorization A = Z·T·Zᵀ of a real general
// matrix (the xGEES driver). On return a holds T and, if jobvs, vs holds
// the orthogonal Schur vectors Z. If sel is non-nil the eigenvalues for
// which sel returns true are reordered to the top-left of T and sdim
// reports their count. Returns info > 0 on QR failure.
func Gees[T core.Float](cfg *core.Config, jobvs bool, sel func(wr, wi float64) bool, n int, a []T, lda int, wr, wi []float64, vs []T, ldvs int) (sdim, info int) {
	if n == 0 {
		return 0, 0
	}
	h := promoteReal(n, n, a, lda)
	tau := make([]float64, max(0, n-1))
	Gehrd(cfg, n, 0, n-1, h, n, tau)
	z := make([]float64, n*n)
	Lacpy('A', n, n, h, n, z, n)
	Orghr(cfg, n, 0, n-1, z, n, tau)
	info = Hseqr(cfg, true, n, 0, n-1, h, n, wr, wi, z, n)
	if info != 0 {
		return 0, info
	}
	if sel != nil {
		sdim = reorderSchur(cfg, n, h, n, z, n, wr, wi, sel)
	}
	demoteReal(n, n, h, a, lda)
	if jobvs {
		demoteReal(n, n, z, vs, ldvs)
	}
	return sdim, 0
}

// GeesC computes the complex Schur factorization A = Z·T·Zᴴ (the complex
// xGEES driver), with optional eigenvalue reordering by sel.
func GeesC[T core.Cmplx](cfg *core.Config, jobvs bool, sel func(w complex128) bool, n int, a []T, lda int, w []complex128, vs []T, ldvs int) (sdim, info int) {
	if n == 0 {
		return 0, 0
	}
	h := promoteCmplx(n, n, a, lda)
	tau := make([]complex128, max(0, n-1))
	Gehrd(cfg, n, 0, n-1, h, n, tau)
	z := make([]complex128, n*n)
	Lacpy('A', n, n, h, n, z, n)
	Orghr(cfg, n, 0, n-1, z, n, tau)
	info = HseqrC(cfg, true, n, 0, n-1, h, n, w, z, n)
	if info != 0 {
		return 0, info
	}
	if sel != nil {
		// Selection sort on the diagonal using unitary swaps (xTREXC).
		for target := 0; target < n; target++ {
			src := -1
			for j := target; j < n; j++ {
				if sel(h[j+j*n]) {
					src = j
					break
				}
			}
			if src < 0 {
				break
			}
			for j := src; j > target; j-- {
				TrexcC(n, h, n, z, n, j, j-1)
			}
			sdim++
		}
		for i := 0; i < n; i++ {
			w[i] = h[i+i*n]
		}
	}
	demoteCmplx(n, n, h, a, lda)
	if jobvs {
		demoteCmplx(n, n, z, vs, ldvs)
	}
	return sdim, 0
}

// TrexcC swaps adjacent diagonal elements ifst and ilst (|ifst−ilst| = 1)
// of a complex upper triangular Schur matrix by a unitary similarity
// transformation, updating q (xTREXC for adjacent positions).
func TrexcC(n int, t []complex128, ldt int, q []complex128, ldq int, ifst, ilst int) {
	j := min(ifst, ilst)
	// Rotation that swaps T(j,j) and T(j+1,j+1).
	t11 := t[j+j*ldt]
	t22 := t[j+1+(j+1)*ldt]
	t12 := t[j+(j+1)*ldt]
	cs, sn, _ := zlartg(t12, t22-t11)
	// Apply from the left and right. T(j, j+1) is invariant under this
	// particular rotation (r·cs = t12), so rows start at column j+2.
	for k := j + 2; k < n; k++ {
		x, y := t[j+k*ldt], t[j+1+k*ldt]
		t[j+k*ldt] = complex(cs, 0)*x + sn*y
		t[j+1+k*ldt] = complex(cs, 0)*y - cmplx.Conj(sn)*x
	}
	for k := 0; k < j; k++ {
		x, y := t[k+j*ldt], t[k+(j+1)*ldt]
		t[k+j*ldt] = complex(cs, 0)*x + cmplx.Conj(sn)*y
		t[k+(j+1)*ldt] = complex(cs, 0)*y - sn*x
	}
	t[j+j*ldt] = t22
	t[j+1+(j+1)*ldt] = t11
	t[j+1+j*ldt] = 0
	if q != nil {
		for k := 0; k < n; k++ {
			x, y := q[k+j*ldq], q[k+(j+1)*ldq]
			q[k+j*ldq] = complex(cs, 0)*x + cmplx.Conj(sn)*y
			q[k+(j+1)*ldq] = complex(cs, 0)*y - sn*x
		}
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

// reorderSchur moves the eigenvalues selected by sel to the top-left of a
// real Schur form by repeated adjacent swaps (xTRSEN's reordering, built
// on Laexc). It returns the number of selected eigenvalues. Complex pairs
// are kept together.
func reorderSchur(cfg *core.Config, n int, t []float64, ldt int, q []float64, ldq int, wr, wi []float64, sel func(wr, wi float64) bool) int {
	// Determine block starts.
	sdim := 0
	target := 0
	for target < n {
		// Find the next selected block at or after target.
		src := -1
		var srcSize int
		j := target
		for j < n {
			size := 1
			if j < n-1 && t[j+1+j*ldt] != 0 {
				size = 2
			}
			if sel(wr[j], wi[j]) || (size == 2 && sel(wr[j+1], wi[j+1])) {
				src = j
				srcSize = size
				break
			}
			j += size
		}
		if src < 0 {
			break
		}
		// Bubble the block up to target with adjacent swaps.
		for src > target {
			// Block immediately above src.
			above := src - 1
			aboveSize := 1
			if above > 0 && t[above+(above-1)*ldt] != 0 {
				above--
				aboveSize = 2
			}
			if Laexc(cfg, true, n, t, ldt, q, ldq, above, aboveSize, srcSize) != 0 {
				// Swap too ill-conditioned; give up on this block.
				break
			}
			src = above
		}
		// Refresh the eigenvalues from the (possibly modified) T.
		extractSchurEigenvalues(n, t, ldt, wr, wi)
		sdim += srcSize
		target = src + srcSize
	}
	extractSchurEigenvalues(n, t, ldt, wr, wi)
	return sdim
}

// extractSchurEigenvalues reads the eigenvalues off a real Schur form.
func extractSchurEigenvalues(n int, t []float64, ldt int, wr, wi []float64) {
	for i := 0; i < n; {
		if i < n-1 && t[i+1+i*ldt] != 0 {
			_, _, _, _, r1r, r1i, r2r, r2i, _, _ := Lanv2(t[i+i*ldt], t[i+(i+1)*ldt], t[i+1+i*ldt], t[i+1+(i+1)*ldt])
			wr[i], wi[i] = r1r, r1i
			wr[i+1], wi[i+1] = r2r, r2i
			i += 2
		} else {
			wr[i] = t[i+i*ldt]
			wi[i] = 0
			i++
		}
	}
}
