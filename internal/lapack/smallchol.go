package lapack

import (
	"repro/internal/blas"
	"repro/internal/core"
)

// Small-matrix Cholesky, beside smalllu.go the other factorization of the
// pack-free regime: under blas.SmallOK's crossover a Level-2 Potf2 spends its
// time entering one leaf per column per step, and the Trsm recursion under
// Potrs does the same per column of the triangle. potrfSmall
// is a right-looking factorization in blocks of blas.CholNB whose every step
// is one leaf of the kernel table (blas.Small.CholStep: diagonal block,
// panel, trailing triangle), potrsSmall substitutes in blocks of the same
// width. Both are gated by blas.SmallOK and by problem shape only, so what a
// batch driver computes stays bit-identical to the looped driver at any
// thread count.

// potrfSmall computes the Cholesky factorization of the uplo triangle of a,
// with Potf2's INFO and pivot semantics. The ragged block of n mod CholNB
// columns comes first, so every later step is a full block on an order that
// is a multiple of the block width — the shape the vector kernels take.
func potrfSmall[T core.Scalar](uplo Uplo, n int, a []T, lda int) int {
	s := blas.SmallFor[T]()
	jb := n % blas.CholNB
	if jb == 0 {
		jb = blas.CholNB
	}
	for j := 0; j < n; j, jb = j+jb, blas.CholNB {
		if info := s.CholStep(uplo, jb, n-j, a[j+j*lda:], lda); info != 0 {
			return j + info
		}
	}
	return 0
}

// potrsSmall solves A·X = B from potrfSmall's factor for a few right-hand
// sides by substitution in blocks of CholNB: the axpy-form sweep (L forward,
// U backward) solves a diagonal block and folds it into the rest of the
// vector with one GemvSub8, the transposed sweep (Uᴴ forward, Lᴴ backward)
// gathers the finished part with one Dot8 and solves the block. The full
// blocks start at row 0; the ragged tail is substituted entry by entry.
func potrsSmall[T core.Scalar](uplo Uplo, n, nrhs int, a []T, lda int, b []T, ldb int) {
	s := blas.SmallFor[T]()
	cj := core.IsComplex[T]()
	const nb = blas.CholNB
	n8 := n - n%nb
	// The diagonal block at j0 through the strides of its lower triangle.
	rs, cs := 1, lda
	if uplo == Upper {
		rs, cs = lda, 1
	}
	for r := 0; r < nrhs; r++ {
		x := b[r*ldb : r*ldb+n]
		if uplo == Lower {
			for j0 := 0; j0 < n8; j0 += nb {
				xs := (*[nb]T)(x[j0:])
				triForward8(a[j0+j0*lda:], rs, cs, false, xs)
				s.GemvSub8(*xs, a[j0+nb+j0*lda:], lda, x[j0+nb:])
			}
			for j := n8; j < n; j++ {
				x[j] /= a[j+j*lda]
				for i, v := range a[j+1+j*lda : n+j*lda] {
					x[j+1+i] -= x[j] * v
				}
			}
			for j := n - 1; j >= n8; j-- {
				x[j] = (x[j] - blas.Dotc(n-j-1, a[j+1+j*lda:], 1, x[j+1:], 1)) / a[j+j*lda]
			}
			for j0 := n8 - nb; j0 >= 0; j0 -= nb {
				xs := (*[nb]T)(x[j0:])
				t := s.Dot8(a[j0+nb+j0*lda:], lda, x[j0+nb:], cj)
				for q := range xs {
					xs[q] -= t[q]
				}
				triBackward8(a[j0+j0*lda:], rs, cs, cj, xs)
			}
			continue
		}
		for j0 := 0; j0 < n8; j0 += nb {
			xs := (*[nb]T)(x[j0:])
			t := s.Dot8(a[j0*lda:], lda, x[:j0], cj)
			for q := range xs {
				xs[q] -= t[q]
			}
			triForward8(a[j0+j0*lda:], rs, cs, cj, xs)
		}
		for j := n8; j < n; j++ {
			x[j] = (x[j] - blas.Dotc(j, a[j*lda:], 1, x, 1)) / a[j+j*lda]
		}
		for j := n - 1; j >= n8; j-- {
			x[j] /= a[j+j*lda]
			for i, v := range a[j*lda : j+j*lda] {
				x[i] -= x[j] * v
			}
		}
		for j0 := n8 - nb; j0 >= 0; j0 -= nb {
			xs := (*[nb]T)(x[j0:])
			triBackward8(a[j0+j0*lda:], rs, cs, false, xs)
			s.GemvSub8(*xs, a[j0*lda:], lda, x[:j0])
		}
	}
}

// triForward8 solves op(M)·y = x in place for the 8×8 lower triangular M with
// M(i, k) = m[i·rs + k·cs], and triBackward8 op(M)ᵀ·y = x; op conjugates when
// conj is set, which — the diagonal of a Cholesky factor being real — is the
// plain solve between two conjugations of the vector. The sweep is written
// out over eight locals, with the entry that was solved last as the last term
// of every row, and the eight divisions are reciprocals taken beforehand: the
// dependency chain of a block is one multiply, subtract and multiply per
// unknown. triForwardUnit8 is the forward sweep for the L of an LU
// factorization — columns lda apart, ones for a diagonal whatever is stored
// there — whose chain has no second multiply, triBackwardBy8 the backward
// sweep on reciprocals its caller took, and has looked at: a pivot of an LU
// factorization, unlike a Cholesky diagonal, need not have a finite one.
func triForward8[T core.Scalar](m []T, rs, cs int, conj bool, x *[blas.CholNB]T) {
	if conj {
		lacgv(blas.CholNB, x[:], 1)
	}
	inv := reciprocals8(m, rs+cs)
	x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	x0 *= inv[0]
	x1 = (x1 - m[rs]*x0) * inv[1]
	x2 = (x2 - m[2*rs]*x0 - m[2*rs+cs]*x1) * inv[2]
	x3 = (x3 - m[3*rs]*x0 - m[3*rs+cs]*x1 - m[3*rs+2*cs]*x2) * inv[3]
	x4 = (x4 - m[4*rs]*x0 - m[4*rs+cs]*x1 - m[4*rs+2*cs]*x2 - m[4*rs+3*cs]*x3) * inv[4]
	x5 = (x5 - m[5*rs]*x0 - m[5*rs+cs]*x1 - m[5*rs+2*cs]*x2 - m[5*rs+3*cs]*x3 - m[5*rs+4*cs]*x4) * inv[5]
	x6 = (x6 - m[6*rs]*x0 - m[6*rs+cs]*x1 - m[6*rs+2*cs]*x2 - m[6*rs+3*cs]*x3 - m[6*rs+4*cs]*x4 - m[6*rs+5*cs]*x5) * inv[6]
	x7 = (x7 - m[7*rs]*x0 - m[7*rs+cs]*x1 - m[7*rs+2*cs]*x2 - m[7*rs+3*cs]*x3 - m[7*rs+4*cs]*x4 - m[7*rs+5*cs]*x5 - m[7*rs+6*cs]*x6) * inv[7]
	x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7] = x0, x1, x2, x3, x4, x5, x6, x7
	if conj {
		lacgv(blas.CholNB, x[:], 1)
	}
}

func triForwardUnit8[T core.Scalar](m []T, lda int, x *[blas.CholNB]T) {
	x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	x1 = x1 - m[1]*x0
	x2 = x2 - m[2]*x0 - m[2+lda]*x1
	x3 = x3 - m[3]*x0 - m[3+lda]*x1 - m[3+2*lda]*x2
	x4 = x4 - m[4]*x0 - m[4+lda]*x1 - m[4+2*lda]*x2 - m[4+3*lda]*x3
	x5 = x5 - m[5]*x0 - m[5+lda]*x1 - m[5+2*lda]*x2 - m[5+3*lda]*x3 - m[5+4*lda]*x4
	x6 = x6 - m[6]*x0 - m[6+lda]*x1 - m[6+2*lda]*x2 - m[6+3*lda]*x3 - m[6+4*lda]*x4 - m[6+5*lda]*x5
	x7 = x7 - m[7]*x0 - m[7+lda]*x1 - m[7+2*lda]*x2 - m[7+3*lda]*x3 - m[7+4*lda]*x4 - m[7+5*lda]*x5 - m[7+6*lda]*x6
	x[1], x[2], x[3], x[4], x[5], x[6], x[7] = x1, x2, x3, x4, x5, x6, x7
}

func triBackward8[T core.Scalar](m []T, rs, cs int, conj bool, x *[blas.CholNB]T) {
	inv := reciprocals8(m, rs+cs)
	triBackwardBy8(m, rs, cs, conj, &inv, x)
}

func triBackwardBy8[T core.Scalar](m []T, rs, cs int, conj bool, inv, x *[blas.CholNB]T) {
	if conj {
		lacgv(blas.CholNB, x[:], 1)
	}
	x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	x7 *= inv[7]
	x6 = (x6 - m[7*rs+6*cs]*x7) * inv[6]
	x5 = (x5 - m[7*rs+5*cs]*x7 - m[6*rs+5*cs]*x6) * inv[5]
	x4 = (x4 - m[7*rs+4*cs]*x7 - m[6*rs+4*cs]*x6 - m[5*rs+4*cs]*x5) * inv[4]
	x3 = (x3 - m[7*rs+3*cs]*x7 - m[6*rs+3*cs]*x6 - m[5*rs+3*cs]*x5 - m[4*rs+3*cs]*x4) * inv[3]
	x2 = (x2 - m[7*rs+2*cs]*x7 - m[6*rs+2*cs]*x6 - m[5*rs+2*cs]*x5 - m[4*rs+2*cs]*x4 - m[3*rs+2*cs]*x3) * inv[2]
	x1 = (x1 - m[7*rs+cs]*x7 - m[6*rs+cs]*x6 - m[5*rs+cs]*x5 - m[4*rs+cs]*x4 - m[3*rs+cs]*x3 - m[2*rs+cs]*x2) * inv[1]
	x0 = (x0 - m[7*rs]*x7 - m[6*rs]*x6 - m[5*rs]*x5 - m[4*rs]*x4 - m[3*rs]*x3 - m[2*rs]*x2 - m[rs]*x1) * inv[0]
	x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7] = x0, x1, x2, x3, x4, x5, x6, x7
	if conj {
		lacgv(blas.CholNB, x[:], 1)
	}
}

func reciprocals8[T core.Scalar](m []T, step int) (inv [blas.CholNB]T) {
	one := core.FromFloat[T](1)
	for q := range inv {
		inv[q] = one / m[q*step]
	}
	return inv
}
