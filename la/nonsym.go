package la

import "repro/internal/lapack"

// GEES computes the Schur factorization A = Z·T·Zᴴ of a general matrix
// (the paper's LA_GEES). On return A holds the (quasi-)triangular Schur
// form T; with WithSchurVectors the unitary Schur vectors are returned in
// VS. The eigenvalues are returned as complex numbers regardless of the
// element type — the Go rendering of the paper's "ω is either WR, WI or
// W". With WithSelect the eigenvalues λ for which sel(Re λ, Im λ) holds are
// reordered to the top left of T and SDim reports their count.
//
// For real element types T is in real Schur form: block upper triangular
// with 1×1 and standardized 2×2 diagonal blocks, the latter carrying
// complex conjugate eigenvalue pairs.
func GEES[T Scalar](a *Matrix[T], opts ...Opt) (w []complex128, vs *Matrix[T], sdim int, err error) {
	const routine = "LA_GEES"
	defer guard(routine, &err)
	o := apply(opts)
	n, err := squareArgs(routine, o.check, a)
	if err != nil {
		return nil, nil, 0, err
	}
	w = make([]complex128, n)
	vs, vsd, ldvs := vecOut[T](o.schurVec, n, n)
	res := lapack.Geesx(o.cfg, false, o.sel, n, a.Data, a.Stride, w, vsd, ldvs)
	return w, vs, res.SDim, erdiag(routine, res.Info, "the QR algorithm failed to converge", DiagNotConverged)
}

// GEEV computes the eigenvalues and, with WithLeft/WithRight, the left
// and/or right eigenvectors of a general matrix (the paper's LA_GEEV).
// Eigenvalues are returned as complex numbers (the paper's WR/WI/W).
//
// For real element types the eigenvectors use the LAPACK real packing: a
// real eigenvalue's vector occupies one column of VR/VL; a complex pair
// λ = wr ± i·wi at positions (j, j+1) stores Re(v) in column j and Im(v)
// in column j+1 (the vector for the conjugate is its conjugate). A is
// overwritten.
func GEEV[T Scalar](a *Matrix[T], opts ...Opt) (w []complex128, vl, vr *Matrix[T], err error) {
	const routine = "LA_GEEV"
	defer guard(routine, &err)
	o := apply(opts)
	n, err := squareArgs(routine, o.check, a)
	if err != nil {
		return nil, nil, nil, err
	}
	w = make([]complex128, n)
	vl, vld, ldvl := vecOut[T](o.left, n, n)
	vr, vrd, ldvr := vecOut[T](o.right, n, n)
	info := lapack.Geevx(o.cfg, false, o.left, o.right, n, a.Data, a.Stride, w, vld, ldvl, vrd, ldvr).Info
	return w, vl, vr, erdiag(routine, info, "the QR algorithm failed to converge", DiagNotConverged)
}

// SVDResult carries the outputs of LA_GESVD.
type SVDResult[T Scalar] struct {
	S  []float64  // singular values, descending
	U  *Matrix[T] // left singular vectors, per WithSingularVectors
	VT *Matrix[T] // right singular vectors (rows of Vᴴ), per WithSingularVectors
}

// GESVD computes the singular value decomposition A = U·Σ·Vᴴ (the paper's
// LA_GESVD). WithSingularVectors selects how much of U and Vᴴ to form
// (default 'S', 'S': the economy factors). A is destroyed.
func GESVD[T Scalar](a *Matrix[T], opts ...Opt) (result *SVDResult[T], err error) {
	const routine = "LA_GESVD"
	defer guard(routine, &err)
	o := apply(opts)
	if a == nil {
		return nil, erinfo(routine, -1, "")
	}
	if o.check {
		if err := finiteMat(routine, 1, "A", a); err != nil {
			return nil, err
		}
	}
	res := &SVDResult[T]{S: make([]float64, min(a.Rows, a.Cols))}
	return res, erdiag(routine, res.gesdd(&o, a), "the SVD iteration failed to converge", DiagNotConverged)
}

// gesdd is the computation of LA_GESVD on one matrix, for GESVD and
// BatchGesdd: it allocates the U and Vᴴ that WithSingularVectors asks for,
// runs the divide & conquer driver into them and res.S, and returns INFO.
func (res *SVDResult[T]) gesdd(o *options, a *Matrix[T]) int {
	m, n := a.Rows, a.Cols
	ucols, vtrows := len(res.S), len(res.S)
	if o.jobU == lapack.SVDAll {
		ucols = m
	}
	if o.jobVT == lapack.SVDAll {
		vtrows = n
	}
	var udata, vtdata []T
	var ldu, ldvt int
	res.U, udata, ldu = vecOut[T](o.jobU != lapack.SVDNone, m, ucols)
	res.VT, vtdata, ldvt = vecOut[T](o.jobVT != lapack.SVDNone, vtrows, n)
	return lapack.Gesdd(o.cfg, o.jobU, o.jobVT, m, n, a.Data, a.Stride, res.S, udata, ldu, vtdata, ldvt)
}
