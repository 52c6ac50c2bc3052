package lapack

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
)

// laswpBlock is the column-block width of the pivot sweeps in Laswp and
// LaswpInv. The whole panel's interchanges are applied to one block of
// columns before moving to the next, and within the block each column runs
// the full pivot sequence while it is resident in L1 — both elements of
// every swap live in the same contiguous column — instead of streaming
// every row pair across the full matrix width once per pivot.
const laswpBlock = 32

// Laswp performs the row interchanges recorded in ipiv[k1:k2] on the n
// columns of a: for each k in [k1, k2), row k is swapped with row ipiv[k]
// (0-based), applied in increasing k as in xLASWP with incx=1. Columns are
// independent (each sees the same swap sequence), so the sweep is batched
// column-blocked for cache locality.
func Laswp[T core.Scalar](n int, a []T, lda int, k1, k2 int, ipiv []int) {
	for j0 := 0; j0 < n; j0 += laswpBlock {
		j1 := min(j0+laswpBlock, n)
		for j := j0; j < j1; j++ {
			col := a[j*lda:]
			for k := k1; k < k2; k++ {
				if p := ipiv[k]; p != k {
					col[k], col[p] = col[p], col[k]
				}
			}
		}
	}
}

// LaswpInv undoes Laswp by applying the interchanges in decreasing order.
func LaswpInv[T core.Scalar](n int, a []T, lda int, k1, k2 int, ipiv []int) {
	for j0 := 0; j0 < n; j0 += laswpBlock {
		j1 := min(j0+laswpBlock, n)
		for j := j0; j < j1; j++ {
			col := a[j*lda:]
			for k := k2 - 1; k >= k1; k-- {
				if p := ipiv[k]; p != k {
					col[k], col[p] = col[p], col[k]
				}
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
		for j := 0; j < n; j++ {
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
	if n == 0 {
		return 0
	}
	abs := func(i, j int) float64 {
		if (uplo == Upper) == (i <= j) {
			return core.Abs(a[i+j*lda])
		}
		return core.Abs(a[j+i*lda])
	}
	switch norm {
	case MaxAbs:
		v := 0.0
		for j := 0; j < n; j++ {
			lo, hi := 0, j
			if uplo == Lower {
				lo, hi = j, n-1
			}
			for i := lo; i <= hi; i++ {
				v = math.Max(v, core.Abs(a[i+j*lda]))
			}
		}
		return v
	case OneNorm, InfNorm:
		v := 0.0
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += abs(i, j)
			}
			v = math.Max(v, s)
		}
		return v
	case FrobeniusNorm:
		scale, ssq := 0.0, 1.0
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				lassq(abs(i, j), &scale, &ssq)
			}
		}
		return scale * math.Sqrt(ssq)
	}
	return 0
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

// Langb returns the selected norm of an n×n band matrix with kl sub- and ku
// super-diagonals (xLANGB).
func Langb[T core.Scalar](norm Norm, n, kl, ku int, ab []T, ldab int) float64 {
	if n == 0 {
		return 0
	}
	switch norm {
	case MaxAbs:
		v := 0.0
		for j := 0; j < n; j++ {
			for i := max(0, j-ku); i <= min(n-1, j+kl); i++ {
				v = math.Max(v, core.Abs(ab[ku+i-j+j*ldab]))
			}
		}
		return v
	case OneNorm:
		v := 0.0
		for j := 0; j < n; j++ {
			s := 0.0
			for i := max(0, j-ku); i <= min(n-1, j+kl); i++ {
				s += core.Abs(ab[ku+i-j+j*ldab])
			}
			v = math.Max(v, s)
		}
		return v
	case InfNorm:
		rows := make([]float64, n)
		for j := 0; j < n; j++ {
			for i := max(0, j-ku); i <= min(n-1, j+kl); i++ {
				rows[i] += core.Abs(ab[ku+i-j+j*ldab])
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
			for i := max(0, j-ku); i <= min(n-1, j+kl); i++ {
				lassq(core.Abs(ab[ku+i-j+j*ldab]), &scale, &ssq)
			}
		}
		return scale * math.Sqrt(ssq)
	}
	return 0
}

// Langt returns the selected norm of a tridiagonal matrix given by its
// sub-diagonal dl, diagonal d and super-diagonal du (xLANGT).
func Langt[T core.Scalar](norm Norm, n int, dl, d, du []T) float64 {
	if n == 0 {
		return 0
	}
	switch norm {
	case MaxAbs:
		v := 0.0
		for i := 0; i < n; i++ {
			v = math.Max(v, core.Abs(d[i]))
		}
		for i := 0; i < n-1; i++ {
			v = math.Max(v, math.Max(core.Abs(dl[i]), core.Abs(du[i])))
		}
		return v
	case OneNorm:
		// Column sums.
		v := 0.0
		for j := 0; j < n; j++ {
			s := core.Abs(d[j])
			if j > 0 {
				s += core.Abs(du[j-1])
			}
			if j < n-1 {
				s += core.Abs(dl[j])
			}
			v = math.Max(v, s)
		}
		return v
	case InfNorm:
		v := 0.0
		for i := 0; i < n; i++ {
			s := core.Abs(d[i])
			if i > 0 {
				s += core.Abs(dl[i-1])
			}
			if i < n-1 {
				s += core.Abs(du[i])
			}
			v = math.Max(v, s)
		}
		return v
	case FrobeniusNorm:
		scale, ssq := 0.0, 1.0
		for i := 0; i < n; i++ {
			lassq(core.Abs(d[i]), &scale, &ssq)
		}
		for i := 0; i < n-1; i++ {
			lassq(core.Abs(dl[i]), &scale, &ssq)
			lassq(core.Abs(du[i]), &scale, &ssq)
		}
		return scale * math.Sqrt(ssq)
	}
	return 0
}

// Lanst returns the selected norm of a symmetric tridiagonal matrix (xLANST).
func Lanst[T core.Float](norm Norm, n int, d, e []T) float64 {
	dl := make([]T, max(0, n-1))
	copy(dl, e)
	return Langt(norm, n, dl, d, dl)
}

// Lansp returns the selected norm of a symmetric matrix in packed storage
// (xLANSP; also used for Hermitian packed matrices with real diagonals).
func Lansp[T core.Scalar](norm Norm, uplo Uplo, n int, ap []T) float64 {
	if n == 0 {
		return 0
	}
	abs := func(i, j int) float64 {
		if (uplo == Upper) == (i <= j) {
			return core.Abs(ap[blas.PackIdx(uplo, n, i, j)])
		}
		return core.Abs(ap[blas.PackIdx(uplo, n, j, i)])
	}
	switch norm {
	case MaxAbs:
		v := 0.0
		for _, x := range ap[:n*(n+1)/2] {
			v = math.Max(v, core.Abs(x))
		}
		return v
	case OneNorm, InfNorm:
		v := 0.0
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += abs(i, j)
			}
			v = math.Max(v, s)
		}
		return v
	case FrobeniusNorm:
		scale, ssq := 0.0, 1.0
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				lassq(abs(i, j), &scale, &ssq)
			}
		}
		return scale * math.Sqrt(ssq)
	}
	return 0
}

// Lansb returns the selected norm of a symmetric band matrix with k
// off-diagonals stored in the uplo triangle (xLANSB).
func Lansb[T core.Scalar](norm Norm, uplo Uplo, n, k int, ab []T, ldab int) float64 {
	if n == 0 {
		return 0
	}
	at := func(i, j int) float64 {
		if i > j {
			i, j = j, i
		}
		if j-i > k {
			return 0
		}
		if uplo == Upper {
			return core.Abs(ab[k+i-j+j*ldab])
		}
		return core.Abs(ab[j-i+i*ldab])
	}
	switch norm {
	case MaxAbs:
		v := 0.0
		for j := 0; j < n; j++ {
			for i := max(0, j-k); i <= min(n-1, j+k); i++ {
				v = math.Max(v, at(i, j))
			}
		}
		return v
	case OneNorm, InfNorm:
		v := 0.0
		for j := 0; j < n; j++ {
			s := 0.0
			for i := max(0, j-k); i <= min(n-1, j+k); i++ {
				s += at(i, j)
			}
			v = math.Max(v, s)
		}
		return v
	case FrobeniusNorm:
		scale, ssq := 0.0, 1.0
		for j := 0; j < n; j++ {
			for i := max(0, j-k); i <= min(n-1, j+k); i++ {
				lassq(at(i, j), &scale, &ssq)
			}
		}
		return scale * math.Sqrt(ssq)
	}
	return 0
}

// Lanhs returns the selected norm of an upper Hessenberg matrix (xLANHS).
func Lanhs[T core.Scalar](norm Norm, n int, a []T, lda int) float64 {
	if n == 0 {
		return 0
	}
	switch norm {
	case MaxAbs, OneNorm, FrobeniusNorm, InfNorm:
		// A Hessenberg matrix is general with structural zeros; delegate.
		return Lange(norm, n, n, a, lda)
	}
	return 0
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
