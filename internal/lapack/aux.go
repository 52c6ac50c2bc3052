package lapack

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
)

// Laswp performs the row interchanges recorded in ipiv[k1:k2] on the n
// columns of a: for each k in [k1, k2), row k is swapped with row ipiv[k]
// (0-based), applied in increasing k as in xLASWP with incx=1. Columns are
// independent (each sees the same swap sequence), so the sweep runs column
// by column: both elements of every swap lie in the one contiguous column,
// which stays in L1 for the whole pivot sequence, where the reference's
// row-wise order would stream every row pair across the matrix per pivot.
func Laswp[T core.Scalar](n int, a []T, lda int, k1, k2 int, ipiv []int) {
	for j := 0; j < n; j++ {
		col := a[j*lda:]
		for k := k1; k < k2; k++ {
			if p := ipiv[k]; p != k {
				col[k], col[p] = col[p], col[k]
			}
		}
	}
}

// LaswpInv undoes Laswp by applying the interchanges in decreasing order.
func LaswpInv[T core.Scalar](n int, a []T, lda int, k1, k2 int, ipiv []int) {
	for j := 0; j < n; j++ {
		col := a[j*lda:]
		for k := k2 - 1; k >= k1; k-- {
			if p := ipiv[k]; p != k {
				col[k], col[p] = col[p], col[k]
			}
		}
	}
}

// Lacpy copies all or a triangle of the m×n matrix a into b (xLACPY).
// uplo: 'U' copies the upper triangle, 'L' the lower, anything else all.
func Lacpy[T core.Scalar](uplo byte, m, n int, a []T, lda int, b []T, ldb int) {
	switch uplo {
	case 'U':
		for j := 0; j < n; j++ {
			for i := 0; i <= min(j, m-1); i++ {
				b[i+j*ldb] = a[i+j*lda]
			}
		}
	case 'L':
		for j := 0; j < n; j++ {
			for i := j; i < m; i++ {
				b[i+j*ldb] = a[i+j*lda]
			}
		}
	default:
		for j := 0; j < n && m > 0; j++ { // an m = 0 matrix may have no storage
			copy(b[j*ldb:j*ldb+m], a[j*lda:j*lda+m])
		}
	}
}

// Laset initializes the off-diagonal elements of the m×n matrix a to alpha
// and the diagonal elements to beta (xLASET with uplo='A'), or only a
// triangle when uplo is 'U' or 'L'.
func Laset[T core.Scalar](uplo byte, m, n int, alpha, beta T, a []T, lda int) {
	switch uplo {
	case 'U':
		for j := 0; j < n; j++ {
			for i := 0; i < min(j, m); i++ {
				a[i+j*lda] = alpha
			}
		}
	case 'L':
		for j := 0; j < n; j++ {
			for i := j + 1; i < m; i++ {
				a[i+j*lda] = alpha
			}
		}
	default:
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				a[i+j*lda] = alpha
			}
		}
	}
	for i := 0; i < min(m, n); i++ {
		a[i+i*lda] = beta
	}
}

// Lange returns the selected norm of a general m×n matrix (xLANGE).
func Lange[T core.Scalar](norm Norm, m, n int, a []T, lda int) float64 {
	if m == 0 || n == 0 {
		return 0
	}
	if norm != FrobeniusNorm {
		// The generic core.Abs call does not inline under shape-based
		// instantiation and dominates the sweep on large matrices; the real
		// float types get loops with the absolute value inlined.
		switch aa := any(a).(type) {
		case []float64:
			return langeFloat(norm, m, n, aa, lda)
		case []float32:
			return langeFloat(norm, m, n, aa, lda)
		}
	}
	switch norm {
	case MaxAbs:
		v := 0.0
		for j := 0; j < n; j++ {
			for _, e := range a[j*lda : j*lda+m] {
				v = maxNaN(v, core.Abs(e))
			}
		}
		return v
	case OneNorm:
		v := 0.0
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < m; i++ {
				s += core.Abs(a[i+j*lda])
			}
			v = math.Max(v, s)
		}
		return v
	case InfNorm:
		rows := blas.GetScratch[float64](m)
		defer blas.PutScratch(rows)
		clear(rows)
		for j := 0; j < n; j++ {
			col := a[j*lda : j*lda+m]
			for i, e := range col {
				rows[i] += core.Abs(e)
			}
		}
		v := 0.0
		for _, s := range rows {
			v = math.Max(v, s)
		}
		return v
	case FrobeniusNorm:
		scale, ssq := 0.0, 1.0
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				lassq(core.Re(a[i+j*lda]), &scale, &ssq)
				if core.IsComplex[T]() {
					lassq(core.Im(a[i+j*lda]), &scale, &ssq)
				}
			}
		}
		return scale * math.Sqrt(ssq)
	}
	return 0
}

// langeFloat is Lange for the real float element types with math.Abs inlined
// in the inner loops. Accumulation stays in float64 for both widths.
func langeFloat[F float32 | float64](norm Norm, m, n int, a []F, lda int) float64 {
	switch norm {
	case MaxAbs:
		v := 0.0
		for j := 0; j < n; j++ {
			for _, e := range a[j*lda : j*lda+m] {
				v = maxNaN(v, math.Abs(float64(e)))
			}
		}
		return v
	case OneNorm:
		v := 0.0
		for j := 0; j < n; j++ {
			s := 0.0
			for _, e := range a[j*lda : j*lda+m] {
				s += math.Abs(float64(e))
			}
			v = math.Max(v, s)
		}
		return v
	default: // InfNorm
		rows := blas.GetScratch[float64](m)
		defer blas.PutScratch(rows)
		clear(rows)
		for j := 0; j < n; j++ {
			for i, e := range a[j*lda : j*lda+m] {
				rows[i] += math.Abs(float64(e))
			}
		}
		v := 0.0
		for _, s := range rows {
			v = math.Max(v, s)
		}
		return v
	}
}

// maxNaN is math.Max for the per-element sweeps of the norm routines, which
// never see −0 or −Inf: the larger of v and e, and NaN as soon as either is
// NaN (a NaN v fails both tests and stays; a NaN e replaces v). A compare and
// a predictable branch instead of math.Max's call.
func maxNaN(v, e float64) float64 {
	if e > v || e != e {
		return e
	}
	return v
}

func lassq(v float64, scale, ssq *float64) {
	if v == 0 {
		return
	}
	av := math.Abs(v)
	if *scale < av {
		r := *scale / av
		*ssq = 1 + *ssq*r*r
		*scale = av
	} else {
		r := av / *scale
		*ssq += r * r
	}
}

// Lansy returns the selected norm of a symmetric matrix stored in the uplo
// triangle (xLANSY). It also serves Hermitian matrices when their diagonal
// is real (as maintained by this library's Hermitian routines).
func Lansy[T core.Scalar](norm Norm, uplo Uplo, n int, a []T, lda int) float64 {
	return matNorm(norm, n, n, true, triSeg(uplo, n, a, lda, -1))
}

// Lantr returns the selected norm of a triangular matrix (xLANTR).
func Lantr[T core.Scalar](norm Norm, uplo Uplo, diag Diag, m, n int, a []T, lda int) float64 {
	if m == 0 || n == 0 {
		return 0
	}
	el := func(i, j int) float64 {
		if i == j && diag == Unit {
			return 1
		}
		if uplo == Upper && i <= j || uplo == Lower && i >= j {
			return core.Abs(a[i+j*lda])
		}
		return 0
	}
	switch norm {
	case MaxAbs:
		v := 0.0
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				v = math.Max(v, el(i, j))
			}
		}
		return v
	case OneNorm:
		v := 0.0
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < m; i++ {
				s += el(i, j)
			}
			v = math.Max(v, s)
		}
		return v
	case InfNorm:
		v := 0.0
		for i := 0; i < m; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += el(i, j)
			}
			v = math.Max(v, s)
		}
		return v
	case FrobeniusNorm:
		scale, ssq := 0.0, 1.0
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				lassq(el(i, j), &scale, &ssq)
			}
		}
		return scale * math.Sqrt(ssq)
	}
	return 0
}

// Lanst returns the selected norm of a symmetric tridiagonal matrix (xLANST).
func Lanst[T core.Float](norm Norm, n int, d, e []T) float64 {
	var col [2]T
	return matNorm(norm, n, n, true, func(j int) ([]T, int) {
		if j == n-1 {
			return append(col[:0], d[j]), j
		}
		return append(col[:0], d[j], e[j]), j
	})
}

// Rng is the pseudo-random stream used by Larnv, seeded LAPACK-style with a
// four-element iseed. It is a SplitMix64 generator: adequate for test-matrix
// generation and fully reproducible across platforms.
type Rng struct{ state uint64 }

// NewRng builds a generator from a LAPACK-style 4-integer seed.
func NewRng(iseed [4]int) *Rng {
	s := uint64(iseed[0])<<48 ^ uint64(iseed[1])<<32 ^ uint64(iseed[2])<<16 ^ uint64(iseed[3])
	return &Rng{state: s ^ 0x9e3779b97f4a7c15}
}

func (r *Rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uniform returns a float64 uniform on [0, 1).
func (r *Rng) Uniform() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Uniform11 returns a float64 uniform on (-1, 1).
func (r *Rng) Uniform11() float64 { return 2*r.Uniform() - 1 }

// Normal returns a standard normal variate (Box–Muller).
func (r *Rng) Normal() float64 {
	u := r.Uniform()
	for u == 0 {
		u = r.Uniform()
	}
	v := r.Uniform()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// Larnv fills x with n pseudo-random values (xLARNV). idist selects the
// distribution: 1 uniform (0,1), 2 uniform (-1,1), 3 standard normal. For
// complex element types both parts are drawn independently.
func Larnv[T core.Scalar](idist int, rng *Rng, n int, x []T) {
	draw := func() float64 {
		switch idist {
		case 1:
			return rng.Uniform()
		case 2:
			return rng.Uniform11()
		default:
			return rng.Normal()
		}
	}
	for i := 0; i < n; i++ {
		if core.IsComplex[T]() {
			x[i] = core.FromComplex[T](complex(draw(), draw()))
		} else {
			x[i] = core.FromFloat[T](draw())
		}
	}
}
