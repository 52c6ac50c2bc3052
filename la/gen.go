package la

import "repro/internal/lapack"

// GegResult carries the outputs of LA_GEGS/LA_GEGV: the generalized
// eigenvalues λᵢ = Alpha[i]/Beta[i] (the paper's ALPHAR/ALPHAI/BETA or
// ALPHA/BETA, unified as complex numbers).
type GegResult struct {
	Alpha []complex128
	Beta  []complex128
}

// GEGS computes the generalized Schur decomposition of the pencil (A, B):
// A = Q·S·Zᴴ, B = Q·T·Zᴴ (the paper's LA_GEGS). On exit A holds S and B
// holds T; vsl and vsr receive Q and Z. Requires B nonsingular (the
// QZ-lite route; see DESIGN.md).
func GEGS[T Scalar](a, b *Matrix[T], opts ...Opt) (res *GegResult, vsl, vsr *Matrix[T], err error) {
	const routine = "LA_GEGS"
	defer guard(routine, &err)
	o := apply(opts)
	n, err := squareArgs(routine, o.check, a, b)
	if err != nil {
		return nil, nil, nil, err
	}
	res = &GegResult{Alpha: make([]complex128, n), Beta: make([]complex128, n)}
	vsl, vsr = NewMatrix[T](n, n), NewMatrix[T](n, n)
	info := lapack.Gegs(o.cfg, n, a.Data, a.Stride, b.Data, b.Stride, res.Alpha, res.Beta, vsl.Data, vsl.Stride, vsr.Data, vsr.Stride)
	return res, vsl, vsr, erinfo(routine, info, "B is singular or the QR iteration failed")
}

// GEGV computes the generalized eigenvalues and, with WithLeft/WithRight,
// the generalized eigenvectors of the pencil (A, B) (the paper's LA_GEGV).
// Real eigenvectors use the LAPACK real packing (see GEEV). A and B are
// destroyed. Requires B nonsingular.
func GEGV[T Scalar](a, b *Matrix[T], opts ...Opt) (res *GegResult, vl, vr *Matrix[T], err error) {
	const routine = "LA_GEGV"
	defer guard(routine, &err)
	o := apply(opts)
	n, err := squareArgs(routine, o.check, a, b)
	if err != nil {
		return nil, nil, nil, err
	}
	res = &GegResult{Alpha: make([]complex128, n), Beta: make([]complex128, n)}
	vl, vld, ldvl := vecOut[T](o.left, n, n)
	vr, vrd, ldvr := vecOut[T](o.right, n, n)
	info := lapack.Gegv(o.cfg, o.left, o.right, n, a.Data, a.Stride, b.Data, b.Stride, res.Alpha, res.Beta, vld, ldvl, vrd, ldvr)
	return res, vl, vr, erinfo(routine, info, "B is singular or the QR iteration failed")
}

// GGSVDResult carries the outputs of LA_GGSVD (see lapack.GgsvdResult for
// the decomposition contract).
type GGSVDResult[T Scalar] struct {
	K, L  int
	Alpha []float64
	Beta  []float64
	U     *Matrix[T]
	V     *Matrix[T]
	Q     *Matrix[T]
	R     *Matrix[T]
}

// GGSVD computes the generalized singular value decomposition of the pair
// (A, B) (the paper's LA_GGSVD): A = U·diag(Alpha)·R·Qᴴ and
// B = V·diag(Beta)·R·Qᴴ with Alpha² + Beta² = 1. A and B are destroyed.
func GGSVD[T Scalar](a, b *Matrix[T], opts ...Opt) (result *GGSVDResult[T], err error) {
	const routine = "LA_GGSVD"
	defer guard(routine, &err)
	o := apply(opts)
	if !stored(a) {
		return nil, erinfo(routine, -1, "")
	}
	if !stored(b) || b.Cols != a.Cols || a.Rows+b.Rows < a.Cols {
		return nil, erinfo(routine, -2, "")
	}
	if o.check {
		if err := firstErr(finiteMat(routine, 1, "A", a), finiteMat(routine, 2, "B", b)); err != nil {
			return nil, err
		}
	}
	m, p, n := a.Rows, b.Rows, a.Cols
	u := NewMatrix[T](m, n)
	v := NewMatrix[T](p, n)
	q := NewMatrix[T](n, n)
	r := NewMatrix[T](n, n)
	res := lapack.Ggsvd(o.cfg, m, p, n, a.Data, a.Stride, b.Data, b.Stride,
		u.Data, u.Stride, v.Data, v.Stride, q.Data, q.Stride, r.Data, r.Stride)
	out := &GGSVDResult[T]{K: res.K, L: res.L, Alpha: res.Alpha, Beta: res.Beta, U: u, V: v, Q: q, R: r}
	return out, erinfo(routine, res.Info, "the stacked matrix is rank deficient or the SVD failed")
}

// SchurXResult carries the extra outputs of LA_GEESX.
type SchurXResult[T Scalar] struct {
	W      []complex128
	VS     *Matrix[T]
	SDim   int
	RCondE float64 // reciprocal condition of the selected cluster average
	RCondV float64 // sep-based reciprocal condition of the invariant subspace
}

// GEESX is the expert Schur driver (the paper's LA_GEESX): LA_GEES plus
// reciprocal condition numbers for the selected eigenvalue cluster and its
// right invariant subspace. Supply the selection with WithSelect, for
// every element type.
func GEESX[T Scalar](a *Matrix[T], opts ...Opt) (result *SchurXResult[T], err error) {
	const routine = "LA_GEESX"
	defer guard(routine, &err)
	o := apply(opts)
	n, err := squareArgs(routine, o.check, a)
	if err != nil {
		return nil, err
	}
	w := make([]complex128, n)
	vs, vsd, ldvs := vecOut[T](true, n, n)
	res := lapack.Geesx(o.cfg, true, o.sel, n, a.Data, a.Stride, w, vsd, ldvs)
	out := &SchurXResult[T]{W: w, VS: vs, SDim: res.SDim, RCondE: res.RCondE[0], RCondV: res.RCondV[0]}
	return out, erdiag(routine, res.Info, "the QR algorithm failed to converge", DiagNotConverged)
}

// EigenXResult carries the extra outputs of LA_GEEVX.
type EigenXResult[T Scalar] struct {
	W        []complex128
	VL, VR   *Matrix[T]
	ILo, IHi int
	Scale    []float64
	ABNrm    float64
	RCondE   []float64 // per-eigenvalue reciprocal condition numbers
	RCondV   []float64 // per-eigenvector sep estimates
}

// GEEVX is the expert eigendriver (the paper's LA_GEEVX): LA_GEEV plus
// balancing details (ILO, IHI, SCALE, ABNRM) and reciprocal condition
// numbers for the eigenvalues (RCONDE) and right eigenvectors (RCONDV).
func GEEVX[T Scalar](a *Matrix[T], opts ...Opt) (result *EigenXResult[T], err error) {
	const routine = "LA_GEEVX"
	defer guard(routine, &err)
	o := apply(opts)
	n, err := squareArgs(routine, o.check, a)
	if err != nil {
		return nil, err
	}
	w := make([]complex128, n)
	vl, vld, ldvl := vecOut[T](o.left, n, n)
	vr, vrd, ldvr := vecOut[T](o.right, n, n)
	res := lapack.Geevx(o.cfg, true, o.left, o.right, n, a.Data, a.Stride, w, vld, ldvl, vrd, ldvr)
	out := &EigenXResult[T]{W: w, VL: vl, VR: vr, ILo: res.ILo, IHi: res.IHi, Scale: res.Scale, ABNrm: res.ABNrm,
		RCondE: res.RCondE, RCondV: res.RCondV}
	return out, erdiag(routine, res.Info, "the QR algorithm failed to converge", DiagNotConverged)
}
