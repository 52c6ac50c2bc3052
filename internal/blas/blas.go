// Package blas implements the Basic Linear Algebra Subprograms (levels 1, 2
// and 3) in pure Go, generically over the library's four element types.
//
// LAPACK90 (the paper this module reproduces) sits on top of LAPACK 77,
// which in turn performs "as much of the computation as possible" through
// the BLAS; this package is the from-scratch substrate standing in for the
// vendor BLAS of the original system.
//
// Conventions, chosen to match the FORTRAN reference BLAS exactly:
//
//   - Matrices are stored column-major in a flat slice with an explicit
//     leading dimension: element (i, j) of an m×n matrix a with leading
//     dimension lda lives at a[i+j*lda], 0 ≤ i < m ≤ lda.
//   - Vector arguments carry an explicit length n and stride inc ≥ 1.
//   - Quick returns on zero dimensions mirror the reference BLAS.
//
// Argument validation: these are internal kernels; callers (package lapack
// and the public wrappers) validate shapes. Kernels panic on obviously
// corrupt arguments (non-positive stride, lda < max(1,rows)) to fail fast in
// tests rather than silently corrupting memory.
package blas

import (
	"fmt"

	"repro/internal/core"
)

// Trans specifies the operation applied to a matrix operand.
type Trans uint8

// Trans values.
const (
	NoTrans   Trans = iota // op(A) = A
	TransT                 // op(A) = Aᵀ
	ConjTrans              // op(A) = Aᴴ
)

// realTrans is t with ConjTrans mapped to TransT for real element types, for
// which they are the same operation. The Level-2/3 entry points and the
// packers apply it once on entry, so no loop below them conjugates real data
// (core.Conj under gcshape stenciling is a type switch per element).
func realTrans[T core.Scalar](t Trans) Trans {
	if t == ConjTrans && !core.IsComplex[T]() {
		return TransT
	}
	return t
}

func (t Trans) String() string {
	switch t {
	case NoTrans:
		return "N"
	case TransT:
		return "T"
	case ConjTrans:
		return "C"
	}
	return fmt.Sprintf("Trans(%d)", uint8(t))
}

// Uplo specifies which triangle of a matrix is referenced.
type Uplo uint8

// Uplo values.
const (
	Upper Uplo = iota
	Lower
)

// flip returns the other triangle: where the transpose of the u triangle is
// stored.
func (u Uplo) flip() Uplo {
	if u == Upper {
		return Lower
	}
	return Upper
}

func (u Uplo) String() string {
	if u == Upper {
		return "U"
	}
	return "L"
}

// Diag specifies whether a triangular matrix has a unit diagonal.
type Diag uint8

// Diag values.
const (
	NonUnit Diag = iota
	Unit
)

// Side specifies the side on which a matrix operand is applied.
type Side uint8

// Side values.
const (
	Left Side = iota
	Right
)

func checkInc(inc int) {
	if inc <= 0 {
		panic("blas: non-positive increment")
	}
}

func checkLD(rows, ld int) {
	if ld < 1 || ld < rows {
		panic("blas: leading dimension too small")
	}
}
