package blas

import "repro/internal/core"

// The leaf of the small-matrix LU (lapack.getrfSmall): under the pack-free
// crossover a factorization is a handful of eight-wide block steps, and what
// they cost is entering kernels and moving rows, not flops — so one step,
// panel, interchanges, U block row and trailing update, is a single entry of
// the kernel table, as it is for the small Cholesky (smallchol.go).

// LUStep performs one right-looking step of the blocked LU factorization with
// partial pivoting on the m×n row block a, whose first nl columns are already
// factored: the m×jb panel behind them (jb ≤ CholNB, jb ≤ m) is factored as
// lapack.Getf2 factors it, its interchanges are applied to the nl columns on
// its left and the columns on its right, the jb rows of U beside it are
// solved against its unit lower triangle and the rows below those reduced by
// the panel's product with them. ipiv[q] is the row of the block, counted
// from its first, that was exchanged with row q. It returns 0, or the 1-based
// position in the panel of the first pivot that is exactly zero; the sweep
// goes on past such a column, unscaled.
//
// Nothing is skipped for being zero: a multiplier of zero still multiplies,
// so NaN and Inf in either factor reach everything they touch.
func (s Small[T]) LUStep(nl, jb, m, n int, a []T, lda int, ipiv []int) int {
	return s.k.luStep(s.k, nl, jb, m, n, a, lda, ipiv)
}

// luLeafMin is the column length from which luStepGo's real types enter the
// scal and axpy leaves.
const luLeafMin = 4

// luStepGo is the luStep entry of every row but the float64 asm rows, and
// those rows' route for the steps their kernel does not take. The long loops
// are the row's own iamax, scal, axpy and gemvSub8; a real type scales and
// updates a column of fewer than luLeafMin entries in place, where entering a
// leaf costs more than the loop it runs (the complex rows' leaves win even
// there).
func luStepGo[T core.Scalar](k *kernel[T], nl, jb, m, n int, a []T, lda int, ipiv []int) int {
	info := 0
	l := a[nl*lda:]
	sfmin := core.SafeMin[T]()
	real := !core.IsComplex[T]()
	for j := 0; j < jb; j++ {
		col := l[j+j*lda : m+j*lda]
		p := j + k.iamax(col)
		ipiv[j] = p
		below := col[1:]
		short := real && len(below) < luLeafMin
		if piv := col[p-j]; piv != 0 {
			if p != j {
				for c := 0; c < jb; c++ {
					l[j+c*lda], l[p+c*lda] = l[p+c*lda], l[j+c*lda]
				}
			}
			switch {
			case len(below) == 0:
			case !(core.Abs1(piv) >= sfmin):
				// 1/pivot would overflow: divide, as xGETF2 does.
				for i := range below {
					below[i] /= piv
				}
			case short:
				inv := 1 / piv
				for i := range below {
					below[i] *= inv
				}
			default:
				k.scal(1/piv, below)
			}
		} else if info == 0 {
			info = j + 1
		}
		if len(below) > 0 {
			for c := j + 1; c < jb; c++ {
				if !short {
					k.axpy(-l[j+c*lda], below, l[j+1+c*lda:])
					continue
				}
				t, y := l[j+c*lda], l[j+1+c*lda:][:len(below)]
				for i, v := range below {
					y[i] -= t * v
				}
			}
		}
	}
	for c := 0; c < nl; c++ {
		col := a[c*lda : c*lda+m]
		for q, p := range ipiv[:jb] {
			col[q], col[p] = col[p], col[q]
		}
	}
	// A full block of a real type solves the triangle in scalars and folds
	// the block row of U into the rows below with one gemvSub8 per column.
	// The complex rows' gemvSub8 is eight axpys as it is, so there, and in a
	// ragged block, each entry of the block row takes its multiple of the
	// column of L out of everything below it in one axpy, triangle and all.
	fused := jb == CholNB && m > jb && !core.IsComplex[T]()
	for c := nl + jb; c < n; c++ {
		col := a[c*lda : c*lda+m]
		for q, p := range ipiv[:jb] {
			col[q], col[p] = col[p], col[q]
		}
		if !fused {
			for q := 0; q < jb && q < m-1; q++ {
				k.axpy(-col[q], l[q+1+q*lda:m+q*lda], col[q+1:])
			}
			continue
		}
		for q := 0; q < jb-1; q++ {
			t := col[q]
			for i, v := range l[q+1+q*lda : jb+q*lda] {
				col[q+1+i] -= v * t
			}
		}
		k.gemvSub8(m-jb, [CholNB]T(col), l[jb:], lda, col[jb:])
	}
	return info
}

// dluStep8MaxRows bounds the rows dluStep8 takes: its frame holds the
// interchanges as a map of one entry per row (FROM in smalllu_amd64.s).
const dluStep8MaxRows = 256

// luStepF64 builds the float64 rows' luStep: dluStep8 — or with twin set its
// Go twin — takes the full blocks on a row count that is a multiple of the
// block width with whole groups of four columns on their right, which in a
// square factorization that puts its ragged block first is every step but
// that one.
func luStepF64(twin bool) func(k *kernel[float64], nl, jb, m, n int, a []float64, lda int, ipiv []int) int {
	return func(k *kernel[float64], nl, jb, m, n int, a []float64, lda int, ipiv []int) int {
		switch nr := n - nl - jb; {
		case jb != CholNB || m%CholNB != 0 || m > dluStep8MaxRows || nr%4 != 0:
			return luStepGo(k, nl, jb, m, n, a, lda, ipiv)
		case twin:
			return luStep8Fma(nl, m, nr, a, lda, ipiv)
		default:
			return dluStep8(nl, m, nr, a, lda, ipiv)
		}
	}
}
