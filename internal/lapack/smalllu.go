package lapack

import (
	"repro/internal/blas"
	"repro/internal/core"
)

// Small-matrix LU, beside smallchol.go the other factorization of the
// pack-free regime: under the Config.GemmSmallDim crossover the general
// machinery (Ilaenv lookup, recursion, lookahead plumbing, a Laswp, a Trsm
// and a Gemm per panel) costs more than the factorization itself. getrfSmall
// is a right-looking factorization in blocks of blas.CholNB whose every step
// is one leaf of the kernel table (blas.Small.LUStep: panel with its pivot
// search, interchanges on either side, U block row, trailing update),
// getrsSmall substitutes in blocks of the same width. Both are gated by the
// LA90_GEMM_SMALL knob and by problem shape only, so what a batch driver
// computes stays bit-identical to the looped driver at any thread count.

// smallLUOK reports whether the m×n factorization, or the solve from it,
// takes the small-matrix path.
func smallLUOK(cfg *core.Config, m, n int) bool {
	d := core.Cfg(cfg).GemmSmallDim
	return d > 0 && m <= d && n <= d
}

// getrfSmall computes the LU factorization with partial pivoting of the m×n
// matrix a, with Getf2's ipiv and INFO. The ragged block of min(m, n) mod
// CholNB columns comes first, so every later step is a full block — and, for
// a square matrix, on a trailing order that is a multiple of the block width,
// the shape the vector kernel takes.
func getrfSmall[T core.Scalar](m, n int, a []T, lda int, ipiv []int) int {
	s := blas.SmallFor[T]()
	mn := min(m, n)
	jb := mn % blas.CholNB
	if jb == 0 {
		jb = blas.CholNB
	}
	info := 0
	for j := 0; j < mn; j, jb = j+jb, blas.CholNB {
		if iinfo := s.LUStep(j, jb, m-j, n, a[j:], lda, ipiv[j:j+jb]); iinfo != 0 && info == 0 {
			info = j + iinfo
		}
		// The step counts rows from the top of its block.
		for q := j; q < j+jb; q++ {
			ipiv[q] += j
		}
	}
	return info
}

// getrsSmall solves A·X = B from getrfSmall's factors for a few right-hand
// sides by substitution in blocks of CholNB, both sweeps in axpy form: a
// diagonal block is solved (L forward with its unit diagonal, U backward)
// and folded into the rest of the vector with one GemvSub8. The full blocks
// start at row 0; the ragged tail is substituted entry by entry, dividing by
// the diagonal of U, and so is a full block whose diagonal has an entry
// without a finite reciprocal — a Cholesky diagonal is a square root and
// always has one, a pivot can lie under SafeMin, where Getf2 divides too.
func getrsSmall[T core.Scalar](n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) {
	s := blas.SmallFor[T]()
	const nb = blas.CholNB
	n8 := n - n%nb
	for r := 0; r < nrhs; r++ {
		x := b[r*ldb : r*ldb+n]
		for i, p := range ipiv[:n] {
			x[i], x[p] = x[p], x[i]
		}
		for j0 := 0; j0 < n8; j0 += nb {
			xs := (*[nb]T)(x[j0:])
			triForwardUnit8(a[j0+j0*lda:], lda, xs)
			s.GemvSub8(*xs, a[j0+nb+j0*lda:], lda, x[j0+nb:])
		}
		for j := n8; j < n; j++ {
			for i, v := range a[j+1+j*lda : n+j*lda] {
				x[j+1+i] -= x[j] * v
			}
		}
		backDivide(n8, n, a, lda, x)
		for j0 := n8 - nb; j0 >= 0; j0 -= nb {
			// v−v is zero for every v but Inf and NaN, in either part.
			inv, finite := reciprocals8(a[j0+j0*lda:], lda+1), true
			for _, v := range inv {
				finite = finite && v-v == 0
			}
			if !finite {
				backDivide(j0, j0+nb, a, lda, x)
				continue
			}
			xs := (*[nb]T)(x[j0:])
			triBackwardBy8(a[j0+j0*lda:], lda, 1, false, &inv, xs)
			s.GemvSub8(*xs, a[j0*lda:], lda, x[:j0])
		}
	}
}

// backDivide substitutes backward through rows lo…hi−1 of the upper
// triangular a, entry by entry in axpy form: x[j] is divided by its diagonal
// entry and taken out of every row above it.
func backDivide[T core.Scalar](lo, hi int, a []T, lda int, x []T) {
	for j := hi - 1; j >= lo; j-- {
		x[j] /= a[j+j*lda]
		for i, v := range a[j*lda : j+j*lda] {
			x[i] -= x[j] * v
		}
	}
}
