// Package lapack is a from-scratch pure-Go implementation of the LAPACK 77
// computational core that the LAPACK90 interface layer (this module's public
// la and f77 packages) wraps.
//
// It follows the reference LAPACK conventions:
//
//   - column-major storage with explicit leading dimensions,
//   - an integer info return: 0 on success, -i when the i-th argument is
//     invalid (only checks that cannot be done in the wrapper layer happen
//     here), +i for numerical failures such as a zero pivot U(i,i)=0 —
//     reported 1-based exactly as in LAPACK,
//   - pivot vectors (ipiv) are 0-based Go indices internally; the public
//     f77 layer converts to LAPACK's 1-based convention.
//
// Routines are generic: a single real implementation covers LAPACK's S/D
// families (instantiated at float32 and float64) and a single complex
// implementation covers C/Z. Where an algorithm is identical up to
// conjugation the implementation is shared across all four element types.
package lapack

import "repro/internal/blas"

// Norm selects which matrix norm a xLANxx routine computes.
type Norm byte

// Norm values, matching the LAPACK character arguments.
const (
	MaxAbs        Norm = 'M' // max |a_ij| (not a consistent norm)
	OneNorm       Norm = '1' // maximum column sum
	InfNorm       Norm = 'I' // maximum row sum
	FrobeniusNorm Norm = 'F' // sqrt of sum of squares
)

// Valid reports whether n is one of the supported norms.
func (n Norm) Valid() bool {
	switch n {
	case MaxAbs, OneNorm, InfNorm, FrobeniusNorm:
		return true
	}
	return false
}

// Re-exported storage enums so lapack callers do not need to import blas
// alongside this package for every call.
type (
	// Uplo selects a triangle.
	Uplo = blas.Uplo
	// Trans selects an operation applied to a matrix operand.
	Trans = blas.Trans
	// Diag marks a unit or non-unit triangular diagonal.
	Diag = blas.Diag
	// Side selects a multiplication side.
	Side = blas.Side
)

// Enum values re-exported from package blas.
const (
	Upper     = blas.Upper
	Lower     = blas.Lower
	NoTrans   = blas.NoTrans
	TransT    = blas.TransT
	ConjTrans = blas.ConjTrans
	NonUnit   = blas.NonUnit
	Unit      = blas.Unit
	Left      = blas.Left
	Right     = blas.Right
)

// Crossover dimensions below which the condensed-form reductions stay
// unblocked: under ~4 panels the rank-2k/GEMM trailing updates are too small
// to amortize the extra Latrd/Labrd/Lahr2 bookkeeping.
const (
	nxSytrd = 128
	nxGebrd = 128
	nxGehrd = 128
)

// nxOrgqr is the order of the square matrix up to whose area, m·n ≤ nxOrgqr²,
// Orgqr generates Q with the unblocked Org2r when the factorization handed no
// T stack over: while the whole matrix is L2-resident the Level-2 sweeps are
// not the cost, and the blocked generator's Larft per block and ragged k = 32
// products only overtake them on the square shapes Orgtr/Orghr/Orgbr/Orglq
// call it with between n = 255 and 319, on tall ones (1024×64, 512×128) at
// the same area (EXPERIMENTS.md, "ORGQR crossover").
const nxOrgqr = 240

// Leaves of the recursive QR panel (geqrt3), from the EXPERIMENTS.md table
// "QR panel leaf width". A panel no wider than qrLeafWidth, or shorter than
// qrRecurseMinRows, is factored by Geqr2 plus the Level-2 Larft. A split's
// k-long products, V1ᴴ·V2 and C2ᴴ·V2 (8×8×k and 16×16×k on a 32-column
// panel), run on Gemm's inner-product route from k = 256 on, which is what
// makes the 8-column leaf pay on tall panels; below 512 rows the rest of a
// split — the Larfb and Trmm steps, the T12 fill — still costs more than the
// vector Level-2 leaves.
const (
	qrLeafWidth      = 8
	qrRecurseMinRows = 512
)

// Ilaenv returns algorithm tuning parameters, the analogue of LAPACK's
// ILAENV. ispec 1 requests the optimal block size for the named routine
// (name "GETRF2" is the leaf order below which the recursive LU panel falls
// back to Getf2); ispec 3 is the crossover dimension below which the named
// routine should use unblocked code. The LA_GETRI wrapper in the paper's
// Appendix C queries exactly this hook to size its workspace. Names are
// LAPACK's without the type letter (f77.ILAENV strips it).
//
// The table is constant, like every other route number of the package. The
// block sizes were measured against the packed Level-3 engine when the
// factorizations moved their panels onto it: with recursive, Level-3 panels
// the old nb² unblocked-panel penalty is gone, so LU prefers wider panels at
// large n (deeper GEMM k per update, fewer pivot sweeps), while QR keeps
// nb=32 (Larft/Larfb overhead grows as nb²·n). The condensed reductions keep
// nb=32 as well: their panels are Level-2 bound (each Latrd/Labrd/Lahr2
// column touches the whole trailing matrix), so wider panels shrink the
// Level-3 fraction without saving panel work. Every name not listed at
// ispec 1 — the QR/LQ family and the reductions among them — gets 32.
func Ilaenv(ispec int, name string, n1, n2, n3, n4 int) int {
	switch ispec {
	case 1: // optimal block size
		switch name {
		case "GETRF":
			if max(n1, n2) >= 512 {
				return 256
			}
			return 64
		case "GETRF2":
			return 8
		case "POTRF":
			return 64
		case "GETRI", "SYTRF", "HETRF":
			return 48
		}
		return 32
	case 2: // minimum block size
		return 2
	case 3: // crossover point below which unblocked code is used
		switch name {
		case "GEQRF", "GELQF":
			return 64
		case "ORGQR":
			if n1*n2 <= nxOrgqr*nxOrgqr {
				return max(n1, n2) // no reflector count k ≤ min(m, n) exceeds it
			}
			return 8
		case "ORMQR", "ORGLQ", "ORMLQ":
			return 8
		case "SYTRD", "HETRD":
			return nxSytrd
		case "GEBRD":
			return nxGebrd
		case "GEHRD":
			return nxGehrd
		}
		return 128
	}
	return 1
}
