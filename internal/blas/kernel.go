package blas

import (
	"math"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// The kernel table of the packed Level-3 engines (gemm.go, rankk.go): one
// descriptor per scalar type and kernel flavour, selected once per call by
// kernelFor. The engines themselves are type-generic and know only the
// descriptor — the tile geometry, how operands are packed, and the two
// routines that consume a packed tile — so supporting an element type means
// adding a row here, not another type switch in the loops.
//
//	type        asm row (amd64, AVX2+FMA)                 portable row
//	float64     8×4 dgemmKernel8x4                         4×4 Go kernel
//	float32     16×4 sgemmKernel16x4, asm pack fast paths  4×4 Go kernel
//	complex128  1m over the float64 row (4×4 complex)      4×4 Go kernel
//	complex64   1m over the float32 row (8×4 complex)      4×4 Go kernel
//
// The complex asm rows use the 1m method (Van Zee, "Implementing
// high-performance complex matrix multiplication via the 1m method"): a
// column-major complex C is, in memory, a real matrix with twice the rows and
// twice the leading dimension, and
//
//	Re C(i,j) += Σ_p  ar·br − ai·bi
//	Im C(i,j) += Σ_p  ai·br + ar·bi
//
// is the real product of A packed in "1e" form — complex k-step p becomes the
// two real steps [re, im, …] and [−im, re, …] — with B packed in "1r" form —
// the row of real parts, then the row of imaginary parts. The unchanged real
// micro-kernel then computes the conventional four-multiply complex product
// in place: no 3M cancellation, no temporaries, and transposition,
// conjugation and alpha are still resolved while packing.
type kernel[T core.Scalar] struct {
	// mr×nr is the register micro-tile of C in elements of T.
	mr, nr int
	// kScale is the number of elements of T a packed A micro-panel stores per
	// row and k-step: 2 for the 1e format, else 1. (Packed B always stores 1.)
	kScale int
	// minVol is the multiply volume (m·n·k) from which packing pays for
	// itself: below it Level-3 operations stay on their unpacked loops.
	// smallMaxVol is the volume from which the row leaves the pack-free
	// small-matrix path (gemmsmall.go) for the packed engine even though
	// every dimension is under the pack-free crossover.
	minVol, smallMaxVol int
	// trsmLeaf is the triangle order at which the recursive Trsm stops
	// splitting into GEMM updates and runs direct substitution (trsmBase),
	// whose eight-wide leaves are trsvOct — A·X = B for eight right-hand
	// sides, left side — and gemvSub8 — y -= Σ t[q]·b(:,q), right side.
	trsmLeaf int
	trsvOct  func(uplo Uplo, diag Diag, m int, a []T, lda int, b []T, ldb int)
	gemvSub8 func(m int, t [8]T, b []T, ldb int, y []T)

	// packA packs alpha·op(A)(i0:i0+mb, p0:p0+kb) into mr-row micro-panels,
	// packB packs op(B)(p0:p0+kb, j0:j0+nb) into nr-column micro-panels;
	// both zero-pad the ragged last panel.
	packA func(dst []T, mr int, trans Trans, alpha T, a []T, lda int, i0, mb, p0, kb int)
	packB func(dst []T, nr int, trans Trans, b []T, ldb int, p0, kb, j0, nb int)
	// micro accumulates one full mr×nr tile into c; edge accumulates the
	// leading rows×cols part of a ragged tile, with tile (at least mr·nr
	// elements, contents arbitrary) as its scratch. The scratch is the
	// caller's because a stack array handed to a func value escapes to the
	// heap — one allocation per edge tile.
	micro func(kb int, ap, bp, c []T, ldc int)
	edge  func(kb, mr, nr int, ap, bp, c []T, ldc, rows, cols int, tile []T)
}

// Geometry of the portable register kernel, and the scratch the engines
// carve off their pooled pack buffer for the edge kernels and
// macroKernelTri: two tiles of the largest geometry in the table.
const (
	gemmMR      = 4
	gemmNR      = 4
	tileScratch = 2 * asmF32MR * asmF32NR
)

func portableKernel[T core.Scalar](trsmLeaf int) kernel[T] {
	return kernel[T]{
		mr: gemmMR, nr: gemmNR, kScale: 1, trsmLeaf: trsmLeaf,
		trsvOct: trsvOct[T], gemvSub8: gemvSub8[T],
		minVol: gemmPackedMinVol, smallMaxVol: math.MaxInt,
		packA: packA[T], packB: packB[T],
		micro: microKernel4x4[T], edge: microEdge[T],
	}
}

// oneM builds the 1m row of complex type C from the real row rk it runs on;
// view is the matching real view from realview.go.
func oneM[C core.Cmplx, R core.Float](rk *kernel[R], view func([]C) []R, trsmLeaf int) kernel[C] {
	micro := func(kb int, ap, bp, c []C, ldc int) {
		rk.micro(2*kb, view(ap), view(bp), view(c), 2*ldc)
	}
	return kernel[C]{
		mr: rk.mr / 2, nr: rk.nr, kScale: 2, trsmLeaf: trsmLeaf,
		trsvOct: trsvOct[C], gemvSub8: gemvSub8[C],
		minVol: gemmPackedMinVol1m, smallMaxVol: gemmPackedMinVol1m,
		packA: func(dst []C, mr int, trans Trans, alpha C, a []C, lda int, i0, mb, p0, kb int) {
			packA1m(view(dst), mr, trans, R(core.Re(alpha)), R(core.Im(alpha)), view(a), lda, i0, mb, p0, kb)
		},
		packB: func(dst []C, nr int, trans Trans, b []C, ldb int, p0, kb, j0, nb int) {
			packB1m(view(dst), nr, trans, view(b), ldb, p0, kb, j0, nb)
		},
		micro: micro,
		// Ragged tiles run the full-tile kernel into the scratch tile (the
		// packed panels are zero-padded) and add the live part to C: the
		// scalar edge kernel is several times slower, and with every
		// n < nr product made of edge tiles only that would show.
		edge: func(kb, mr, nr int, ap, bp, c []C, ldc, rows, cols int, tile []C) {
			tile = tile[:mr*nr]
			clear(tile)
			micro(kb, ap, bp, tile, mr)
			for j := 0; j < cols; j++ {
				col := c[j*ldc : j*ldc+rows]
				for i, v := range tile[j*mr : j*mr+rows] {
					col[i] += v
				}
			}
		},
	}
}

var (
	kernGoF64  = portableKernel[float64](trsmLeafSize)
	kernGoF32  = portableKernel[float32](trsmLeafSizeF32)
	kernGoC128 = portableKernel[complex128](trsmLeafSize)
	kernGoC64  = portableKernel[complex64](trsmLeafSize)

	kernAsmF64 = kernel[float64]{
		mr: asmF64MR, nr: asmF64NR, kScale: 1, trsmLeaf: trsmLeafSize,
		trsvOct: trsvOctFma[float64],
		gemvSub8: func(m int, t [8]float64, b []float64, ldb int, y []float64) {
			dgemvSub8(int64(m), &t[0], &b[0], int64(ldb), &y[0])
		},
		minVol: gemmPackedMinVolAsm, smallMaxVol: math.MaxInt,
		packA: packA[float64], packB: packB[float64],
		micro: func(kb int, ap, bp, c []float64, ldc int) {
			dgemmKernel8x4(int64(kb), &ap[0], &bp[0], &c[0], int64(ldc))
		},
		edge: microEdge[float64],
	}
	kernAsmF32 = kernel[float32]{
		mr: asmF32MR, nr: asmF32NR, kScale: 1, trsmLeaf: trsmLeafSizeF32,
		trsvOct: trsvOctFma[float32],
		gemvSub8: func(m int, t [8]float32, b []float32, ldb int, y []float32) {
			sgemvSub8(int64(m), &t[0], &b[0], int64(ldb), &y[0])
		},
		minVol: gemmPackedMinVolAsm, smallMaxVol: math.MaxInt,
		packA: packAF32, packB: packBF32,
		micro: func(kb int, ap, bp, c []float32, ldc int) {
			sgemmKernel16x4(int64(kb), &ap[0], &bp[0], &c[0], int64(ldc))
		},
		edge: microEdge[float32],
	}
	kern1mC128 = oneM(&kernAsmF64, realView128, trsmLeafSizeC128)
	kern1mC64  = oneM(&kernAsmF32, realView64, trsmLeafSizeC64)
)

// asmF64/asmF32 report whether the assembly kernels may be used right now:
// the static CPU + LA90_NO_ASM gate, minus the test-only fault-injection
// override that forces the portable kernels.
func asmF64() bool { return useAsmF64 && !faultinject.PortableOnly() }
func asmF32() bool { return useAsmF32 && !faultinject.PortableOnly() }

// kernelFor returns the table row for element type T: the asm row when the
// CPU gate allows it, else the portable one. An engine calls it once and uses
// the row for the whole call, so geometry, packing and kernel always agree.
func kernelFor[T core.Scalar]() *kernel[T] {
	var z T
	var k any
	switch any(z).(type) {
	case float64:
		k = &kernGoF64
		if asmF64() {
			k = &kernAsmF64
		}
	case float32:
		k = &kernGoF32
		if asmF32() {
			k = &kernAsmF32
		}
	case complex128:
		k = &kernGoC128
		if asmF64() {
			k = &kern1mC128
		}
	case complex64:
		k = &kernGoC64
		if asmF32() {
			k = &kern1mC64
		}
	}
	return k.(*kernel[T])
}

// packAF32 and packBF32 are the float32 asm row's packers: full NoTrans
// micro-panels go to the vectorized pack kernels, everything else to the
// generic packers.
func packAF32(dst []float32, mr int, trans Trans, alpha float32, a []float32, lda int, i0, mb, p0, kb int) {
	full := mb - mb%mr
	if trans == NoTrans && full > 0 {
		for r0 := 0; r0 < full; r0 += mr {
			spackA16(int64(kb), alpha, &a[i0+r0+p0*lda], int64(lda), &dst[r0*kb])
		}
		if full == mb {
			return
		}
		dst, i0, mb = dst[full*kb:], i0+full, mb-full
	}
	packA(dst, mr, trans, alpha, a, lda, i0, mb, p0, kb)
}

func packBF32(dst []float32, nr int, trans Trans, b []float32, ldb int, p0, kb, j0, nb int) {
	full := nb - nb%nr
	if trans == NoTrans && full > 0 {
		for c0 := 0; c0 < full; c0 += nr {
			s := b[p0+(j0+c0)*ldb:]
			spackB4(int64(kb), &s[0], &s[ldb], &s[2*ldb], &s[3*ldb], &dst[c0*kb])
		}
		if full == nb {
			return
		}
		dst, j0, nb = dst[full*kb:], j0+full, nb-full
	}
	packB(dst, nr, trans, b, ldb, p0, kb, j0, nb)
}

// packA1m packs alpha·op(A)(i0:i0+mb, p0:p0+kb), alpha = ar+ai·i, in 1e
// form. a and dst are real views: a of the complex operand with (complex)
// leading dimension lda, dst of kb·roundUp(mb, mr)·2 complex elements. A
// micro-panel holds mr complex rows as 2·mr real ones and 2·kb real k-steps:
// step 2p is [re, im, …] of column p, step 2p+1 is [−im, re, …].
func packA1m[R core.Float](dst []R, mr int, trans Trans, ar, ai R, a []R, lda int, i0, mb, p0, kb int) {
	// Complex element (r, p) of op(A) sits at a[2·(base + r·rs + p·ps)].
	base, rs, ps := i0+p0*lda, 1, lda
	if trans != NoTrans {
		base, rs, ps = p0+i0*lda, lda, 1
	}
	cj := R(1)
	if trans == ConjTrans {
		cj = -1
	}
	for r0 := 0; r0 < mb; r0 += mr {
		panel := dst[4*r0*kb : 4*(r0+mr)*kb]
		rows := min(mr, mb-r0)
		if rows < mr {
			clear(panel)
		}
		for p := 0; p < kb; p++ {
			d0 := panel[4*p*mr:][:2*rows]
			d1 := panel[4*p*mr+2*mr:][:len(d0)]
			j := 2 * (base + r0*rs + p*ps)
			if trans == NoTrans {
				// The rows of one k-step are a contiguous run.
				src := a[j:][:len(d0)]
				for i := 1; i < len(src); i += 2 {
					vr, vi := src[i-1], src[i]
					tr, ti := ar*vr-ai*vi, ar*vi+ai*vr
					d0[i-1], d0[i] = tr, ti
					d1[i-1], d1[i] = -ti, tr
				}
				continue
			}
			for i := 1; i < len(d0); i += 2 {
				vr, vi := a[j], cj*a[j+1]
				tr, ti := ar*vr-ai*vi, ar*vi+ai*vr
				d0[i-1], d0[i] = tr, ti
				d1[i-1], d1[i] = -ti, tr
				j += 2 * rs
			}
		}
	}
}

// packB1m packs op(B)(p0:p0+kb, j0:j0+nb) in 1r form over the same real
// views: a micro-panel holds nr columns and 2·kb real k-steps, step 2p the
// real parts of row p and step 2p+1 its imaginary parts.
func packB1m[R core.Float](dst []R, nr int, trans Trans, b []R, ldb int, p0, kb, j0, nb int) {
	base, ps, cs := p0+j0*ldb, 1, ldb
	if trans != NoTrans {
		base, ps, cs = j0+p0*ldb, ldb, 1
	}
	cj := R(1)
	if trans == ConjTrans {
		cj = -1
	}
	for c0 := 0; c0 < nb; c0 += nr {
		panel := dst[2*c0*kb : 2*(c0+nr)*kb]
		cols := min(nr, nb-c0)
		if cols < nr {
			clear(panel)
		}
		if cols == 4 && nr == 4 {
			// Full micro-panel: walk the four source columns (rows, for a
			// transposed operand) together so each panel step is written in
			// one pass.
			j := 2 * (base + c0*cs)
			s0, s1, s2, s3 := b[j:], b[j+2*cs:], b[j+4*cs:], b[j+6*cs:]
			for p := 0; p < kb; p++ {
				d := panel[8*p : 8*p+8 : 8*p+8]
				q := 2 * p * ps
				d[0], d[1], d[2], d[3] = s0[q], s1[q], s2[q], s3[q]
				d[4], d[5], d[6], d[7] = cj*s0[q+1], cj*s1[q+1], cj*s2[q+1], cj*s3[q+1]
			}
			continue
		}
		for p := 0; p < kb; p++ {
			d0 := panel[2*p*nr:][:cols]
			d1 := panel[(2*p+1)*nr:][:len(d0)]
			j := 2 * (base + c0*cs + p*ps)
			for c := range d0 {
				d0[c], d1[c] = b[j], cj*b[j+1]
				j += 2 * cs
			}
		}
	}
}
