package blas

import (
	"math"

	"repro/internal/core"
)

// packers512 are the packers of a real AVX-512 row over its two pack kernels
// (gemmkernel512_amd64.s): runs copies kb scaled runs of `rows` elements into
// zero-padded runs of mr, gather transposes eight columns into eight adjacent
// slots of each row. Either operand in either orientation is one of the two;
// what is left to the generic packers is the ragged end of a transposing
// pack.
type packers512[T core.Float] struct {
	runs   func(kb int, alpha T, src []T, lds int, dst []T, rows, mr int)
	gather func(kb int, alpha T, src []T, lds int, dst []T, ld int)
}

func (pk packers512[T]) packA(dst []T, mr int, trans Trans, alpha T, a []T, lda int, i0, mb, p0, kb int) {
	for r0 := 0; r0 < mb; r0 += mr {
		panel := dst[r0*kb : r0*kb+mr*kb]
		rows := min(mr, mb-r0)
		if trans == NoTrans {
			pk.runs(kb, alpha, a[i0+r0+p0*lda:], lda, panel, rows, mr)
			continue
		}
		off, r := p0+(i0+r0)*lda, 0
		for ; r+8 <= rows; r += 8 {
			pk.gather(kb, alpha, a[off+r*lda:], lda, panel[r:], mr)
		}
		if r < mr {
			// The rows past the last octet, and the padding.
			packTail(panel[r:], mr, rows-r, mr-r, alpha, a, off+r*lda, lda, kb)
		}
	}
}

func (pk packers512[T]) packB(dst []T, nr int, trans Trans, b []T, ldb int, p0, kb, j0, nb int) {
	for c0 := 0; c0 < nb; c0 += nr {
		panel := dst[c0*kb : c0*kb+nr*kb]
		switch cols := min(nr, nb-c0); {
		case trans != NoTrans:
			pk.runs(kb, 1, b[j0+c0+p0*ldb:], ldb, panel, cols, nr)
		case cols == nr:
			pk.gather(kb, 1, b[p0+(j0+c0)*ldb:], ldb, panel, nr)
		default:
			packTail(panel, nr, cols, nr, 1, b, p0+(j0+c0)*ldb, ldb, kb)
		}
	}
}

// packTail writes dst[p·ld+c] = alpha·src[off+p+c·lds] for c < cols and zero
// for cols ≤ c < width, p < kb: the transposing pack of fewer than eight
// columns (none at all when only padding is left).
func packTail[T core.Float](dst []T, ld, cols, width int, alpha T, src []T, off, lds, kb int) {
	for p := 0; p < kb; p++ {
		d := dst[p*ld : p*ld+width]
		for c := range d {
			if c < cols {
				d[c] = alpha * src[off+p+c*lds]
			} else {
				d[c] = 0
			}
		}
	}
}

var (
	pack512F64 = packers512[float64]{runs: dpack512, gather: dgather8}
	pack512F32 = packers512[float32]{runs: spack512, gather: sgather8}
)

// packers1m are the packers of a complex row (oneM, kernel.go) over the real
// views of its operands: packA in 1e form with alpha = ar+ai·i, packB in 1r
// form, both zero-padding the ragged last panel.
type packers1m[R core.Float] struct {
	packA func(dst []R, mr int, trans Trans, ar, ai R, a []R, lda int, i0, mb, p0, kb int)
	packB func(dst []R, nr int, trans Trans, b []R, ldb int, p0, kb, j0, nb int)
}

// kernels1m512 are the 1m pack kernels of a complex AVX-512 row
// (gemmkernel512_amd64.s): runs1e packs a NoTrans A panel, gather1e a group
// of `group` rows of a transposed one, runs1r a transposed B panel, and a
// NoTrans B panel is the real row's gather on the real view. What is left to
// the Go packer is the ragged last panel of a NoTrans B. The panels are those
// of the row's micro-tile: mr complex rows are three vectors of reals.
type kernels1m512[R core.Float] struct {
	runs1e   func(kb int, src []R, lds int, dst []R, rows int, ar, ai R)
	gather1e func(kb int, src []R, lds int, dst []R, cols int, ar, ai, neg R)
	group    int
	runs1r   func(kb int, src []R, lds int, dst []R, cols int, neg R)
	gather   func(kb int, alpha R, src []R, lds int, dst []R, ld int)
}

func (pk kernels1m512[R]) packA(dst []R, mr int, trans Trans, ar, ai R, a []R, lda int, i0, mb, p0, kb int) {
	neg := conjSign[R](trans)
	for r0 := 0; r0 < mb; r0 += mr {
		panel := dst[4*r0*kb : 4*(r0+mr)*kb]
		rows := min(mr, mb-r0)
		if trans == NoTrans {
			pk.runs1e(kb, a[2*(i0+r0+p0*lda):], 2*lda, panel, 2*rows, ar, ai)
			continue
		}
		// Row r of the panel is column i0+r0+r of A; a group with no live
		// rows reads the panel's first and packs zeros.
		col := 2 * (p0 + (i0+r0)*lda)
		for g := 0; g < mr; g += pk.group {
			src, cols := a[col:], min(max(rows-g, 0), pk.group)
			if cols > 0 {
				src = a[col+2*g*lda:]
			}
			pk.gather1e(kb, src, 2*lda, panel[2*g:], cols, ar, ai, neg)
		}
	}
}

func (pk kernels1m512[R]) packB(dst []R, nr int, trans Trans, b []R, ldb int, p0, kb, j0, nb int) {
	neg := conjSign[R](trans)
	for c0 := 0; c0 < nb; c0 += nr {
		panel := dst[2*c0*kb : 2*(c0+nr)*kb]
		switch cols := min(nr, nb-c0); {
		case trans != NoTrans:
			pk.runs1r(kb, b[2*(j0+c0+p0*ldb):], 2*ldb, panel, cols, neg)
		case cols == nr:
			// Real row 2p of the real view is the real parts of row p, 2p+1
			// its imaginary parts: the 1r form is the real gather of 2·kb rows.
			pk.gather(2*kb, 1, b[2*(p0+(j0+c0)*ldb):], 2*ldb, panel, nr)
		default:
			packB1m(panel, nr, trans, b, ldb, p0, kb, j0+c0, cols)
		}
	}
}

func (pk kernels1m512[R]) packers() packers1m[R] {
	return packers1m[R]{packA: pk.packA, packB: pk.packB}
}

// conjSign is the sign the 1m kernels XOR onto imaginary parts: −0 for
// ConjTrans, +0 (no change) otherwise.
func conjSign[R core.Float](trans Trans) R {
	if trans == ConjTrans {
		return R(math.Copysign(0, -1))
	}
	return 0
}

var (
	pack1mGoF64  = packers1m[float64]{packA: packA1m[float64], packB: packB1m[float64]}
	pack1mGoF32  = packers1m[float32]{packA: packA1m[float32], packB: packB1m[float32]}
	pack1m512F64 = kernels1m512[float64]{runs1e: zpack1e, gather1e: zgather1e, group: 4, runs1r: zpack1r, gather: dgather8}.packers()
	pack1m512F32 = kernels1m512[float32]{runs1e: cpack1e, gather1e: cgather1e, group: 8, runs1r: cpack1r, gather: sgather8}.packers()
)
