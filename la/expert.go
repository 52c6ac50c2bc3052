package la

import "repro/internal/lapack"

// ExpertResult carries the optional outputs of the expert linear-system
// drivers (the paper's X, RCOND, FERR, BERR, EQUED, R, C, RPVGRW
// arguments, always computed here).
type ExpertResult[T Scalar] struct {
	X      *Matrix[T] // solution (B is left holding the, possibly scaled, right-hand side)
	RCond  float64    // reciprocal condition number estimate
	Ferr   []float64  // forward error bound per right-hand side
	Berr   []float64  // componentwise backward error per right-hand side
	Equed  byte       // equilibration applied: 'N', 'R', 'C' or 'B'
	R, C   []float64  // row/column scale factors (general drivers)
	S      []float64  // symmetric scale factors (definite drivers)
	RPvGrw float64    // reciprocal pivot growth (LA_GESVX)
	IPiv   []int      // pivots from the factorization, when applicable
}

// The failure texts of 0 < INFO ≤ n, shared by the drivers of a family.
const (
	detailSingular = "matrix is exactly singular"
	detailNotPD    = "the leading minor of order INFO is not positive definite"
)

// expert is what every expert driver does once its own arguments are
// checked: allocate X, run the pipeline — svx is the internal/lapack driver
// of the storage format, bound to the matrix and to the factor storage the
// caller allocated — and convert result and error. ipiv is the pivot vector
// svx fills, nil for a format without one.
func expert[T Scalar](routine string, n int, b *Matrix[T], ipiv []int, svx func(b, x *Matrix[T]) lapack.SvxResult, singDetail string, singDiag Diagnosis) (*ExpertResult[T], error) {
	x := NewMatrix[T](n, b.Cols)
	res := svx(b, x)
	out := &ExpertResult[T]{
		X: x, RCond: res.RCond, Ferr: res.Ferr, Berr: res.Berr,
		Equed: byte(res.Equed), R: res.R, C: res.C, S: res.S, RPvGrw: res.RPvGrw, IPiv: ipiv,
	}
	return out, erexpert(routine, res.Info, n, res.RCond, byte(res.Equed), singDetail, singDiag)
}

// GESVX solves A·X = B with condition estimation, iterative refinement and
// optional equilibration (the paper's LA_GESVX expert driver).
//
// Options: WithTrans selects op(A); WithEquilibration enables FACT = 'E'.
// A and B may be overwritten by equilibration. A positive INFO <= n reports
// a singular factor; INFO = n+1 reports RCOND below machine epsilon (the
// solution and bounds are still returned).
func GESVX[T Scalar](a, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	const routine = "LA_GESVX"
	defer guard(routine, &err)
	o := apply(opts)
	return gesvx(routine, &o, a, b)
}

// gesvx is GESVX on applied options; BatchGesvx runs it per item.
func gesvx[T Scalar](routine string, o *options, a, b *Matrix[T]) (*ExpertResult[T], error) {
	if err := denseArgs(routine, o.check, a, b); err != nil {
		return nil, err
	}
	n := a.Rows
	af, ipiv := NewMatrix[T](n, n), make([]int, n)
	return expert(routine, n, b, ipiv, func(b, x *Matrix[T]) lapack.SvxResult {
		return lapack.Gesvx(o.cfg, o.fact, o.trans, n, b.Cols, a.Data, a.Stride, af.Data, af.Stride, ipiv, b.Data, b.Stride, x.Data, x.Stride)
	}, detailSingular, DiagSingular)
}

// GBSVX is the expert driver for general band systems (the paper's
// LA_GBSVX). AB holds the matrix in plain band storage (kl+ku+1 rows, row
// offset ku); pass kl via WithKL (default (AB.Rows-1)/2).
func GBSVX[T Scalar](ab, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	const routine = "LA_GBSVX"
	defer guard(routine, &err)
	o := apply(opts)
	if ab == nil || ab.Rows < 1 {
		return nil, erinfo(routine, -1, "")
	}
	n := ab.Cols
	if !rhsMatch(n, b) {
		return nil, erinfo(routine, -2, "")
	}
	kl := (ab.Rows - 1) / 2
	if o.haveKL {
		kl = o.kl
	}
	ku := ab.Rows - 1 - kl
	if kl < 0 || ku < 0 {
		return nil, erinfo(routine, -3, "")
	}
	if o.check {
		if err := firstErr(finiteMat(routine, 1, "AB", ab), finiteMat(routine, 2, "B", b)); err != nil {
			return nil, err
		}
	}
	ldafb := 2*kl + ku + 1
	afb, ipiv := make([]T, ldafb*n), make([]int, n)
	return expert(routine, n, b, ipiv, func(b, x *Matrix[T]) lapack.SvxResult {
		return lapack.Gbsvx(o.fact, o.trans, n, kl, ku, b.Cols, ab.Data, ab.Stride, afb, ldafb, ipiv, b.Data, b.Stride, x.Data, x.Stride)
	}, detailSingular, DiagSingular)
}

// GTSVX is the expert driver for general tridiagonal systems (the paper's
// LA_GTSVX). The diagonals are not overwritten.
func GTSVX[T Scalar](dl, d, du []T, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	const routine = "LA_GTSVX"
	defer guard(routine, &err)
	o := apply(opts)
	if err := gtArgs(routine, o.check, dl, d, du, b); err != nil {
		return nil, err
	}
	n := len(d)
	dlf, df, duf, du2 := make([]T, max(0, n-1)), make([]T, n), make([]T, max(0, n-1)), make([]T, max(0, n-2))
	ipiv := make([]int, n)
	return expert(routine, n, b, ipiv, func(b, x *Matrix[T]) lapack.SvxResult {
		return lapack.Gtsvx(o.fact, o.trans, n, b.Cols, dl, d, du, dlf, df, duf, du2, ipiv, b.Data, b.Stride, x.Data, x.Stride)
	}, detailSingular, DiagSingular)
}

// POSVX is the expert driver for symmetric/Hermitian positive definite
// systems (the paper's LA_POSVX).
func POSVX[T Scalar](a, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	const routine = "LA_POSVX"
	defer guard(routine, &err)
	o := apply(opts)
	return posvx(routine, &o, a, b)
}

// posvx is POSVX on applied options; BatchPosvx runs it per item.
func posvx[T Scalar](routine string, o *options, a, b *Matrix[T]) (*ExpertResult[T], error) {
	if err := denseArgs(routine, o.check, a, b); err != nil {
		return nil, err
	}
	n := a.Rows
	af := NewMatrix[T](n, n)
	return expert(routine, n, b, nil, func(b, x *Matrix[T]) lapack.SvxResult {
		return lapack.Posvx(o.cfg, o.fact, o.uplo, n, b.Cols, a.Data, a.Stride, af.Data, af.Stride, b.Data, b.Stride, x.Data, x.Stride)
	}, detailNotPD, DiagNotPositiveDefinite)
}

// PPSVX is the expert driver for packed positive definite systems (the
// paper's LA_PPSVX).
func PPSVX[T Scalar](ap []T, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	const routine = "LA_PPSVX"
	defer guard(routine, &err)
	o := apply(opts)
	n, err := packedArgs(routine, o.check, ap, b)
	if err != nil {
		return nil, err
	}
	afp := make([]T, len(ap))
	return expert(routine, n, b, nil, func(b, x *Matrix[T]) lapack.SvxResult {
		return lapack.Ppsvx(o.fact, o.uplo, n, b.Cols, ap, afp, b.Data, b.Stride, x.Data, x.Stride)
	}, detailNotPD, DiagNotPositiveDefinite)
}

// PBSVX is the expert driver for positive definite band systems (the
// paper's LA_PBSVX).
func PBSVX[T Scalar](ab, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	const routine = "LA_PBSVX"
	defer guard(routine, &err)
	o := apply(opts)
	if err := bandArgs(routine, o.check, ab, b); err != nil {
		return nil, err
	}
	n, kd := ab.Cols, ab.Rows-1
	afb := make([]T, (kd+1)*n)
	return expert(routine, n, b, nil, func(b, x *Matrix[T]) lapack.SvxResult {
		return lapack.Pbsvx(o.fact, o.uplo, n, kd, b.Cols, ab.Data, ab.Stride, afb, kd+1, b.Data, b.Stride, x.Data, x.Stride)
	}, detailNotPD, DiagNotPositiveDefinite)
}

// PTSVX is the expert driver for positive definite tridiagonal systems
// (the paper's LA_PTSVX). d and e are not overwritten.
func PTSVX[T Scalar](d []float64, e []T, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	const routine = "LA_PTSVX"
	defer guard(routine, &err)
	o := apply(opts)
	if err := ptArgs(routine, o.check, d, e, b); err != nil {
		return nil, err
	}
	n := len(d)
	df, ef := make([]float64, n), make([]T, max(0, n-1))
	return expert(routine, n, b, nil, func(b, x *Matrix[T]) lapack.SvxResult {
		return lapack.Ptsvx(o.fact, n, b.Cols, d, e, df, ef, b.Data, b.Stride, x.Data, x.Stride)
	}, detailNotPD, DiagNotPositiveDefinite)
}

// SYSVX is the expert driver for symmetric indefinite systems (the
// paper's LA_SYSVX).
func SYSVX[T Scalar](a, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	return sysvx("LA_SYSVX", false, a, b, opts)
}

// HESVX is the expert driver for Hermitian indefinite systems (the
// paper's LA_HESVX).
func HESVX[T Scalar](a, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	return sysvx("LA_HESVX", true, a, b, opts)
}

// sysvx is the one body of SYSVX (herm false) and HESVX (herm true).
func sysvx[T Scalar](routine string, herm bool, a, b *Matrix[T], opts []Opt) (result *ExpertResult[T], err error) {
	defer guard(routine, &err)
	o := apply(opts)
	driver := lapack.Sysvx[T]
	if herm {
		driver = lapack.Hesvx[T]
	}
	if err := denseArgs(routine, o.check, a, b); err != nil {
		return nil, err
	}
	n := a.Rows
	af, ipiv := NewMatrix[T](n, n), make([]int, n)
	return expert(routine, n, b, ipiv, func(b, x *Matrix[T]) lapack.SvxResult {
		return driver(o.cfg, o.fact, o.uplo, n, b.Cols, a.Data, a.Stride, af.Data, af.Stride, ipiv, b.Data, b.Stride, x.Data, x.Stride)
	}, "D(i,i) is exactly zero; the factorization is singular", DiagSingular)
}

// SPSVX is the expert driver for packed symmetric indefinite systems (the
// paper's LA_SPSVX): factorization, solve, refinement and condition
// estimation on packed storage.
func SPSVX[T Scalar](ap []T, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	return spsvx("LA_SPSVX", false, ap, b, opts)
}

// HPSVX is the expert driver for packed Hermitian indefinite systems (the
// paper's LA_HPSVX).
func HPSVX[T Scalar](ap []T, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	return spsvx("LA_HPSVX", true, ap, b, opts)
}

// spsvx is the one body of SPSVX (herm false) and HPSVX (herm true).
func spsvx[T Scalar](routine string, herm bool, ap []T, b *Matrix[T], opts []Opt) (result *ExpertResult[T], err error) {
	defer guard(routine, &err)
	o := apply(opts)
	driver := lapack.Spsvx[T]
	if herm {
		driver = lapack.Hpsvx[T]
	}
	n, err := packedArgs(routine, o.check, ap, b)
	if err != nil {
		return nil, err
	}
	afp, ipiv := make([]T, len(ap)), make([]int, n)
	return expert(routine, n, b, ipiv, func(b, x *Matrix[T]) lapack.SvxResult {
		return driver(o.cfg, o.fact, o.uplo, n, b.Cols, ap, afp, ipiv, b.Data, b.Stride, x.Data, x.Stride)
	}, "D(i,i) is exactly zero", DiagSingular)
}
