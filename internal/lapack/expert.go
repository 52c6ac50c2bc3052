package lapack

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
)

// The expert solve pipeline (xyySVX, xyyCON, xyyRFS and the norm and
// equilibration auxiliaries under them), written once over a description of
// "one coefficient matrix in one storage format". The nine formats — dense,
// band and tridiagonal general; dense, packed, band and tridiagonal positive
// definite; dense and packed indefinite — are nine constructors of that
// description next to their factorizations (geSystem in gecon.go, gbSystem in
// gbsv.go, …); everything else is here and in rfs.go.

// Equed describes which equilibration was applied by an expert driver.
type Equed byte

// Equed values, matching LAPACK's EQUED character.
const (
	EquedNone Equed = 'N'
	EquedRow  Equed = 'R'
	EquedCol  Equed = 'C'
	EquedBoth Equed = 'B' // also xPOSVX's 'Y': the one symmetric scaling
)

// Fact selects the factorization mode of an expert driver.
type Fact byte

// Fact values, matching LAPACK's FACT character.
const (
	FactNone        Fact = 'N' // factor A
	FactFact        Fact = 'F' // factors are supplied in the factor storage
	FactEquilibrate Fact = 'E' // equilibrate A if worthwhile, then factor
)

// SvxResult carries the outputs of an expert driver.
type SvxResult struct {
	Equed  Equed     // equilibration applied; zero for a format without that step
	R, C   []float64 // row/column scale factors (general formats that equilibrate)
	S      []float64 // symmetric scale factors (positive definite formats)
	RCond  float64   // reciprocal condition number estimate
	RPvGrw float64   // reciprocal pivot growth factor (dense general only)
	Ferr   []float64 // forward error bound per right-hand side
	Berr   []float64 // componentwise backward error per right-hand side
	Info   int       // 0, i > 0 for a failed factorization, n+1 when rcond < eps
}

// colsFn locates the contiguous stored part of column j of a matrix: seg
// holds rows lo … lo+len(seg)−1. The tridiagonal formats, which keep no
// column contiguous, return a gathered copy that the next call overwrites.
type colsFn[T core.Scalar] func(j int) (seg []T, lo int)

// system is one n×n coefficient matrix in one storage format, with room for
// its factorization.
type system[T core.Scalar] struct {
	n int
	// sym: one triangle is stored, each off-diagonal entry standing for its
	// mirror image too; there is one scale vector and trans is ignored.
	sym bool
	// equil: the format has an equilibration step (FACT = 'E').
	equil bool
	cols  colsFn[T]
	// factor copies the matrix into the factor storage and factors it there.
	factor func() int
	// solve overwrites the n×nrhs x with op(A)⁻¹·x using the factorization.
	solve func(trans Trans, nrhs int, x []T, ldx int)
	// mul computes y = alpha·op(A)·x + beta·y.
	mul func(trans Trans, alpha T, x []T, beta T, y []T)
	// growth returns the reciprocal pivot growth of the factorization; nil
	// where LAPACK defines none.
	growth func() float64
}

// triSeg is the colsFn of the uplo triangle of a symmetric or Hermitian
// matrix in dense (ld > 0, k < 0), packed (ld = 0) or band (k ≥ 0
// off-diagonals) storage.
func triSeg[T core.Scalar](uplo Uplo, n int, a []T, ld, k int) colsFn[T] {
	return func(j int) ([]T, int) { return blas.TriCol(uplo, n, a, ld, k, j) }
}

// absSeg stores the absolute values of seg in dst[:len(seg)] — moduli, or
// LAPACK's CABS1 |re|+|im| when cabs1 (the same thing for real T) — and
// returns that slice. The type switch is per segment so that the loops over
// real data carry no per-element generic call.
func absSeg[T core.Scalar](dst []float64, seg []T, cabs1 bool) []float64 {
	dst = dst[:len(seg)]
	switch s := any(seg).(type) {
	case []float64:
		for k, v := range s {
			dst[k] = math.Abs(v)
		}
	case []float32:
		for k, v := range s {
			dst[k] = math.Abs(float64(v))
		}
	default:
		for k, v := range seg {
			if cabs1 {
				dst[k] = core.Abs1(v)
			} else {
				dst[k] = core.Abs(v)
			}
		}
	}
	return dst
}

// matNorm returns the selected norm of the m×n matrix cols describes (xLANGB,
// xLANGT, xLANSY, xLANSP, xLANSB, xLANHT; n×n with sym as in system).
func matNorm[T core.Scalar](norm Norm, m, n int, sym bool, cols colsFn[T]) float64 {
	if m == 0 || n == 0 {
		return 0
	}
	buf := blas.GetScratch[float64](2 * m)
	defer blas.PutScratch(buf)
	// sums: row sums, which for a symmetric matrix are the column sums too.
	buf, sums := buf[:m], buf[m:]
	clear(sums)
	v, scale, ssq := 0.0, 0.0, 1.0
	for j := 0; j < n; j++ {
		seg, lo := cols(j)
		abs := absSeg(buf, seg, false)
		switch {
		case norm == MaxAbs:
			for _, e := range abs {
				v = maxNaN(v, e)
			}
		case norm == FrobeniusNorm:
			for k, e := range abs {
				lassq(e, &scale, &ssq)
				if sym && lo+k != j {
					lassq(e, &scale, &ssq)
				}
			}
		case sym:
			s := 0.0
			for k, e := range abs {
				s += e
				if lo+k != j {
					sums[lo+k] += e
				}
			}
			sums[j] += s
		case norm == OneNorm:
			s := 0.0
			for _, e := range abs {
				s += e
			}
			v = math.Max(v, s)
		default: // InfNorm
			for k, e := range abs {
				sums[lo+k] += e
			}
		}
	}
	if norm == FrobeniusNorm {
		return scale * math.Sqrt(ssq)
	}
	for _, s := range sums {
		v = math.Max(v, s)
	}
	return v
}

// absMul computes y += |op(A)|·xa for non-negative xa, |·| componentwise in
// the CABS1 measure: the |A|·|x| of the backward error (xyyRFS).
func (s *system[T]) absMul(trans Trans, xa, y []float64) {
	buf := blas.GetScratch[float64](s.n)
	defer blas.PutScratch(buf)
	for j := 0; j < s.n; j++ {
		seg, lo := s.cols(j)
		abs := absSeg(buf, seg, true)
		switch {
		case s.sym:
			xj, t := xa[j], 0.0
			for k, e := range abs {
				if i := lo + k; i != j {
					y[i] += e * xj
					t += e * xa[i]
				} else {
					t += e * xj
				}
			}
			y[j] += t
		case trans == NoTrans:
			xj := xa[j]
			for k, e := range abs {
				y[lo+k] += e * xj
			}
		default:
			t := 0.0
			for k, e := range abs {
				t += e * xa[lo+k]
			}
			y[j] += t
		}
	}
}

// equScales computes the row scalings r and column scalings c meant to
// equilibrate an m×n matrix (xGEEQU, xGBEQU): r(i) = 1/max_j |a_ij|, then
// c(j) = 1/max_i r(i)·|a_ij|, clamped to [smlnum, bignum]. rowcnd and colcnd
// are the ratios of smallest to largest scale, amax the largest |a_ij|;
// info > 0 signals an exactly zero row (info = i) or column (info = m+j),
// 1-based as in LAPACK.
func equScales[T core.Scalar](m, n int, cols colsFn[T], r, c []float64) (rowcnd, colcnd, amax float64, info int) {
	if m == 0 || n == 0 {
		return 1, 1, 0, 0
	}
	smlnum := core.SafeMin[T]()
	bignum := 1 / smlnum
	buf := blas.GetScratch[float64](m)
	defer blas.PutScratch(buf)
	clear(r[:m])
	for j := 0; j < n; j++ {
		seg, lo := cols(j)
		for k, e := range absSeg(buf, seg, true) {
			r[lo+k] = math.Max(r[lo+k], e)
		}
	}
	// invert turns the maxima in s into scale factors and returns the ratio
	// of the smallest to the largest, the largest, and the 1-based index of
	// the first zero.
	invert := func(s []float64) (cnd, hi float64, zero int) {
		lo := bignum
		for _, v := range s {
			hi = math.Max(hi, v)
			lo = math.Min(lo, v)
		}
		if lo == 0 {
			for i, v := range s {
				if v == 0 {
					return 0, hi, i + 1
				}
			}
		}
		for i, v := range s {
			s[i] = 1 / math.Min(math.Max(v, smlnum), bignum)
		}
		return math.Max(lo, smlnum) / math.Min(hi, bignum), hi, 0
	}
	rowcnd, amax, zero := invert(r[:m])
	if zero > 0 {
		return 0, 0, amax, zero
	}
	for j := 0; j < n; j++ {
		seg, lo := cols(j)
		c[j] = 0
		for k, e := range absSeg(buf, seg, true) {
			c[j] = math.Max(c[j], e*r[lo+k])
		}
	}
	colcnd, _, zero = invert(c[:n])
	if zero > 0 {
		return rowcnd, 0, amax, m + zero
	}
	return rowcnd, colcnd, amax, 0
}

// symScales computes the diagonal scalings s(i) = 1/sqrt(a_ii) meant to
// equilibrate a positive definite matrix (xPOEQU, xPPEQU, xPBEQU): scond is
// the ratio of the smallest to the largest, amax the largest diagonal entry,
// info = i > 0 the first non-positive one.
func symScales[T core.Scalar](n int, cols colsFn[T], s []float64) (scond, amax float64, info int) {
	if n == 0 {
		return 1, 0, 0
	}
	smin := math.Inf(1)
	for j := 0; j < n; j++ {
		seg, lo := cols(j)
		s[j] = core.Re(seg[j-lo])
		smin = math.Min(smin, s[j])
		amax = math.Max(amax, s[j])
	}
	if smin <= 0 {
		for i, d := range s[:n] {
			if d <= 0 {
				return 0, amax, i + 1
			}
		}
	}
	for i, d := range s[:n] {
		s[i] = 1 / math.Sqrt(d)
	}
	return math.Sqrt(smin) / math.Sqrt(amax), amax, 0
}

// scaleCols overwrites the stored entries a_ij with r(i)·a_ij·c(j), applying
// the factors one at a time as xLAQGE and xLAQSY do — the product r(i)·c(j)
// can overflow to Inf and turn a zero entry into NaN. A nil r or c is all
// ones.
func scaleCols[T core.Scalar](n int, cols colsFn[T], r, c []float64) {
	for j := 0; j < n; j++ {
		seg, lo := cols(j)
		switch {
		case r == nil:
			cj := core.FromFloat[T](c[j])
			for k := range seg {
				seg[k] *= cj
			}
		case c == nil:
			for k := range seg {
				seg[k] *= core.FromFloat[T](r[lo+k])
			}
		default:
			cj := core.FromFloat[T](c[j])
			for k := range seg {
				seg[k] = seg[k] * core.FromFloat[T](r[lo+k]) * cj
			}
		}
	}
}

// scaleRows multiplies row i of the n×nrhs matrix b by d(i).
func scaleRows[T core.Scalar](n, nrhs int, b []T, ldb int, d []float64) {
	for j := 0; j < nrhs; j++ {
		for i, di := range d[:n] {
			b[i+j*ldb] *= core.FromFloat[T](di)
		}
	}
}

// svx is the expert driver (xyySVX) of every format: with FACT = 'E' it
// equilibrates the system when xLAQGE's / xLAQSY's thresholds say that is
// worthwhile (a and b are overwritten only then), it factors the matrix
// unless FACT = 'F' supplies the factors, estimates the condition number,
// solves into x, refines, bounds the errors and undoes the scaling on x.
// rcond < eps is reported as Info = n+1 with the solution still delivered.
// The entries of the symmetric formats pass trans = NoTrans.
func svx[T core.Scalar](s *system[T], fact Fact, trans Trans, nrhs int, b []T, ldb int, x []T, ldx int) SvxResult {
	n := s.n
	res := SvxResult{Ferr: make([]float64, nrhs), Berr: make([]float64, nrhs)}
	var rowScale, colScale []float64 // the scalings applied, nil for none
	if s.equil {
		res.Equed = EquedNone
		ones := func() []float64 {
			d := make([]float64, n)
			for i := range d {
				d[i] = 1
			}
			return d
		}
		r := ones()
		c := r
		if s.sym {
			res.S = r
		} else {
			c = ones()
			res.R, res.C = r, c
		}
		if fact == FactEquilibrate {
			const thresh = 0.1
			small := core.SafeMin[T]() / core.Eps[T]()
			large := 1 / small
			if s.sym {
				if scond, amax, info := symScales(n, s.cols, r); info == 0 && (scond < thresh || amax < small || amax > large) {
					rowScale, colScale, res.Equed = r, r, EquedBoth
				}
			} else if rowcnd, colcnd, amax, info := equScales(n, n, s.cols, r, c); info == 0 {
				if rowcnd < thresh || amax < small || amax > large {
					rowScale, res.Equed = r, EquedRow
				}
				if colcnd < thresh {
					colScale, res.Equed = c, EquedCol
					if rowScale != nil {
						res.Equed = EquedBoth
					}
				}
			}
			if res.Equed != EquedNone {
				scaleCols(n, s.cols, rowScale, colScale)
			}
		}
	}
	// op(A)·X = B scales B by the rows of op(A) and X by its columns.
	bScale, xScale := rowScale, colScale
	if trans != NoTrans {
		bScale, xScale = colScale, rowScale
	}
	if bScale != nil {
		scaleRows(n, nrhs, b, ldb, bScale)
	}
	if fact != FactFact {
		res.Info = s.factor()
	}
	if s.growth != nil {
		res.RPvGrw = s.growth()
	}
	if res.Info > 0 {
		return res
	}
	norm := OneNorm
	if trans != NoTrans {
		norm = InfNorm
	}
	res.RCond = s.con(norm, matNorm(norm, n, n, s.sym, s.cols))
	Lacpy('A', n, nrhs, b, ldb, x, ldx)
	s.solve(trans, nrhs, x, ldx)
	s.rfs(trans, nrhs, b, ldb, x, ldx, res.Ferr, res.Berr)
	if xScale != nil {
		scaleRows(n, nrhs, x, ldx, xScale)
	}
	if res.RCond < core.Eps[T]() {
		res.Info = n + 1
	}
	return res
}

// con estimates the reciprocal condition number of the factored matrix in
// the 1-norm or the ∞-norm (xyyCON); anorm is that norm of the matrix itself.
func (s *system[T]) con(norm Norm, anorm float64) float64 {
	if s.n == 0 {
		return 1
	}
	if anorm == 0 {
		return 0
	}
	// ∞-norm of A⁻¹ equals 1-norm of A⁻ᵀ; flip the transpose sense.
	flip := norm == InfNorm
	ainvnm := Lacn2(s.n, func(conjTrans bool, x []T) {
		tr := NoTrans
		if conjTrans != flip {
			tr = ConjTrans
		}
		s.solve(tr, 1, x, s.n)
	})
	return rcondFromEst(ainvnm, anorm)
}

// rcondFromEst forms rcond = (1/ainvnm)/anorm from a norm estimate, guarding
// the intermediate overflow when ainvnm is subnormal (1/ainvnm → +Inf for
// anorm near MaxFloat64). Since ‖A‖·‖A⁻¹‖ ≥ ‖I‖ = 1 for any induced norm,
// a value above 1 can only be a rounding or overflow artifact — clamp it.
func rcondFromEst(ainvnm, anorm float64) float64 {
	if ainvnm == 0 {
		return 0
	}
	if math.IsInf(anorm, 1) || math.IsNaN(anorm) {
		// The norm of a finite matrix overflowed (e.g. column sums of
		// MaxFloat64 entries): no conditioning can be certified, and
		// Inf/Inf below would yield NaN. Report 0 — “ill-conditioned to
		// working precision”, the conservative truth.
		return 0
	}
	rcond := (1 / ainvnm) / anorm
	if rcond > 1 {
		rcond = 1
	}
	return rcond
}
