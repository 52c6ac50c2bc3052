package blas

import (
	"math"

	"repro/internal/core"
)

// The leaves of the small-matrix Cholesky (lapack.potrfSmall, potrsSmall): a
// factorization under the pack-free crossover is a handful of eight-wide
// block steps, each small enough that a Level-2 loop over Gemv/Trsv spends
// its time entering leaves, so one step — diagonal block, panel, trailing
// triangle — is a single entry of the kernel table, and the two substitution
// sweeps of the solve run on gemvSub8 and its transposed counterpart dot8.

// CholNB is the block width of the small Cholesky: the width of gemvSub8 and
// dot8, and of the register tile of the float64 step kernel.
const CholNB = 8

// Small is the kernel-table row of element type T as the small-matrix
// drivers of package lapack see it: they look it up once per call and hand it
// down, so no step pays for a lookup of its own.
type Small[T core.Scalar] struct{ k *kernel[T] }

// SmallFor returns the row kernelFor selects for T right now.
func SmallFor[T core.Scalar]() Small[T] { return Small[T]{kernelFor[T]()} }

// CholStep performs one right-looking step of the blocked Cholesky
// factorization of the m×m Hermitian matrix a, of which only the uplo
// triangle is read or written: the leading jb×jb block (jb ≤ CholNB) is
// factored, the jb-wide panel beside it solved against that factor, and the
// trailing (m−jb)×(m−jb) triangle reduced by the panel's outer product. It
// returns 0, or the 1-based position of the first pivot that is not positive
// (or is NaN); that pivot's reduced value is then left in its place and the
// panel and the trailing triangle are untouched, as in lapack.Potf2.
func (s Small[T]) CholStep(uplo Uplo, jb, m int, a []T, lda int) int {
	return s.k.cholStep(s.k, uplo == Upper, jb, m, a, lda)
}

// GemvSub8 computes y -= Σ_q t[q]·b(:, q) over the len(y) leading rows of the
// eight columns of b.
func (s Small[T]) GemvSub8(t [CholNB]T, b []T, ldb int, y []T) {
	if len(y) > 0 {
		s.k.gemvSub8(len(y), t, b, ldb, y)
	}
}

// Dot8 returns the eight sums Σ_i op(a(i, q))·x[i] over the len(x) leading
// rows of the eight columns of a, op conjugating when conj is set.
func (s Small[T]) Dot8(a []T, lda int, x []T, conj bool) (out [CholNB]T) {
	if len(x) > 0 {
		out = s.k.dot8(s.k, a, lda, x, conj)
	}
	return out
}

// cholStepGo is the cholStep entry of every row but the float64 asm rows, and
// those rows' route for the steps their kernel does not take (a block
// narrower than CholNB, an order that is not a multiple of it). The long
// loops are the row's own axpy, scal, dot and gemvSub8.
func cholStepGo[T core.Scalar](k *kernel[T], upper bool, jb, m int, a []T, lda int) int {
	cj := core.IsComplex[T]()
	conj := func(v T) T {
		if cj {
			return core.Conj(v)
		}
		return v
	}
	// The diagonal block through the strides of its lower factor: for Lower
	// that is the stored triangle, for Upper — U = Lᵀ is the factor of
	// Aᵀ = conj(A) — the stored triangle read by rows.
	rs, cs := 1, lda
	if upper {
		rs, cs = lda, 1
	}
	// A column is reduced by the ones before it only when its turn comes,
	// so a bad pivot leaves everything from its column on as it was.
	var inv [CholNB]T
	for j := 0; j < jb; j++ {
		var s T
		for p := 0; p < j; p++ {
			v := a[j*rs+p*cs]
			s += v * conj(v)
		}
		d := core.Re(a[j*rs+j*cs]) - core.Re(s)
		if d <= 0 || math.IsNaN(d) {
			a[j*rs+j*cs] = core.FromFloat[T](d)
			return j + 1
		}
		d = math.Sqrt(d)
		a[j*rs+j*cs] = core.FromFloat[T](d)
		inv[j] = core.FromFloat[T](1 / d)
		for p := 0; p < j; p++ {
			t := conj(a[j*rs+p*cs])
			for i := j + 1; i < jb; i++ {
				a[i*rs+j*cs] -= a[i*rs+p*cs] * t
			}
		}
		for i := j + 1; i < jb; i++ {
			a[i*rs+j*cs] *= inv[j]
		}
	}
	if m == jb {
		return 0
	}
	if !upper {
		// Panel columns are contiguous: column q absorbs the solved columns
		// before it, then the reciprocal pivot.
		for q := 0; q < jb; q++ {
			col := a[jb+q*lda : m+q*lda]
			for p := 0; p < q; p++ {
				k.axpy(-conj(a[q+p*lda]), a[jb+p*lda:m+p*lda], col)
			}
			k.scal(inv[q], col)
		}
		// Column j of the trailing triangle, from its diagonal down, loses
		// the panel rows below j times the conjugated panel row j.
		for j := jb; j < m; j++ {
			y := a[j+j*lda : m+j*lda]
			if jb == CholNB {
				var t [CholNB]T
				for p := range t {
					t[p] = conj(a[j+p*lda])
				}
				k.gemvSub8(len(y), t, a[j:], lda, y)
				continue
			}
			for p := 0; p < jb; p++ {
				k.axpy(-conj(a[j+p*lda]), a[j+p*lda:m+p*lda], y)
			}
		}
		return 0
	}
	// Upper: the panel is a block row, its columns jb contiguous entries.
	// Its conjugate transpose in pooled scratch has contiguous columns as
	// long as the trailing order, so there it is solved as the Lower panel
	// is, and against it the trailing columns are reduced from their first
	// row down to the diagonal.
	r := m - jb
	w := getScratch[T](jb * r)
	for c := 0; c < r; c++ {
		for q, v := range a[(jb+c)*lda : (jb+c)*lda+jb] {
			w[c+q*r] = conj(v)
		}
	}
	for q := 0; q < jb; q++ {
		col := w[q*r : (q+1)*r]
		for p := 0; p < q; p++ {
			k.axpy(-a[p+q*lda], w[p*r:(p+1)*r], col)
		}
		k.scal(inv[q], col)
	}
	for c := 0; c < r; c++ {
		x := a[(jb+c)*lda : (jb+c)*lda+jb]
		for q := range x {
			x[q] = conj(w[c+q*r])
		}
	}
	for j := 0; j < r; j++ {
		t := a[(jb+j)*lda : (jb+j)*lda+jb]
		y := a[jb+(jb+j)*lda : jb+j+1+(jb+j)*lda]
		if jb == CholNB {
			k.gemvSub8(len(y), [CholNB]T(t), w, r, y)
			continue
		}
		for q, v := range t {
			k.axpy(-v, w[q*r:q*r+len(y)], y)
		}
	}
	putScratch(w)
	return 0
}

// dot8Go is the dot8 entry of the rows without a kernel for it: the row's dot
// leaf, column by column.
func dot8Go[T core.Scalar](k *kernel[T], a []T, lda int, x []T, conj bool) (out [CholNB]T) {
	for q := range out {
		out[q] = k.dot(a[q*lda:q*lda+len(x)], x, conj)
	}
	return out
}

// cholStepF64 builds the float64 rows' cholStep: dcholStep8 — or with twin
// set its Go twin — takes the full blocks of an order that is a multiple of
// the block width, which is every step but the first of a factorization that
// puts its ragged block first.
func cholStepF64(twin bool) func(k *kernel[float64], upper bool, jb, m int, a []float64, lda int) int {
	return func(k *kernel[float64], upper bool, jb, m int, a []float64, lda int) int {
		switch {
		case jb != CholNB || m%CholNB != 0:
			return cholStepGo(k, upper, jb, m, a, lda)
		case twin:
			return cholStep8Fma(upper, m, a, lda)
		}
		return dcholStep8(upper, m, a, lda)
	}
}

// dot8F64 is the float64 asm rows' dot8.
func dot8F64(_ *kernel[float64], a []float64, lda int, x []float64, _ bool) [CholNB]float64 {
	return ddot8(a, lda, x)
}
