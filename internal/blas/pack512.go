package blas

import "repro/internal/core"

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
