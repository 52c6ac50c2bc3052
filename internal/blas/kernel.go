package blas

import (
	"math"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// The kernel table of package blas: one descriptor per scalar type and kernel
// flavour, selected once per call by kernelFor — the only place a routine's
// kernel is chosen by element type. The packed Level-3 engines (gemm.go,
// rankk.go) and the Level-1/2 routines are type-generic and know only the
// descriptor — the tile geometry, how operands are packed, and the leaves —
// so supporting an element type, or moving one onto a vector kernel, means
// editing a row here, not another type switch in the loops. "Go" is the
// plain Go loop of that leaf (leaves.go, and beside each engine), "view" the
// real row's entry on the real view of the complex data. Each type has three
// rows: AVX-512, AVX2 and portable. The two asm rows differ in the micro-tile
// — its geometry, kernels and packers, the first three lines below, where
// the AVX-512 entry stands under the AVX2 one — and in the register tiles
// of the float64 and complex128 trsvOct, which keep the sweep's bits; they
// share every other leaf and every crossover. The portable row is the AVX2
// row with every assembly entry replaced by its Go twin (twins.go: the same
// operations in the same order), built by the same avx2F64/avx2F32 and oneM,
// so it has no column of its own and computes the same bits:
//
//	leaf       float64 asm          float32 asm        complex 1m
//	micro      8×4 dgemmKernel8x4   16×4 sgemmKernel   real row's, 1m
//	           24×8 dgemmKernel24x8 48×8 sgemmKernel48x8
//	edge       micro → scratch tile (scratchEdge)      real row's, view
//	           dgemmEdge24x8        sgemmEdge48x8      (opmask rows×cols tile)
//	packA/B    Go                   spackA16/spackB4   packA1m/packB1m
//	           dpack512/dgather8    spack512/sgather8  z/cpack1e, z/cgather1e,
//	           (packers512)                            z/cpack1r, d/sgather8
//	trsvOct    dsubFma8             ssubFma8           view, 1e triangle
//	           dtrsvOct512 (tiles)                     + dfold512, Lower
//	gemvSub8   dgemvSub8            sgemvSub8          eight axpy
//	axpy       daxpyFma             saxpyFma           zaxpyFma/caxpyFma
//	scal       dscalFma             sscalFma           zscalFma/cscalFma
//	dot        ddotFma              sdotFma            zdotFma/cdotFma
//	axpyDot    daxpyDotFma          Go                 Go
//	iamax      diamaxF64, n ≥ 16    siamaxF32, n ≥ 16  Go
//	sumSq      ddotFma              sdotFma            view
//	rotRun     drotSeqFma           srotSeqFma         view
//	refl3/2    drefl3Fma/drefl2Fma  Go                 Go
//	refl·Rows  drefl3/2RowsFma      Go                 Go
//	small      dgemmSmallStripF64   Go 4×4 tile        Go 4×4 tile
//	skinny     strip kernel         Gemv per column    none
//	cholStep   dcholStep8 on full   Go on axpy, scal   Go on axpy, scal
//	           blocks, else Go      and gemvSub8       and gemvSub8
//	dot8       ddot8                dot per column     dot per column
//	dot4x3     ddot4x3              none               none
//	luStep     dluStep8 on full     Go on iamax, scal, Go on iamax, scal
//	           blocks, else Go      axpy and gemvSub8  and axpy
//
// The asm rows need amd64 with AVX2+FMA, the AVX-512 ones AVX512F on top; the
// portable row of each type serves LA90_NO_ASM=1, other CPUs and other ports.
// The assembly is filed by leaf: micro, edge and pack in gemmkernel_amd64.s
// (AVX2, with the small strip kernel) and gemmkernel512_amd64.s (AVX-512);
// trsvOct through iamax in leaves_amd64.s; rotRun and the reflectors in
// iterate_amd64.s; cholStep, dot8, dot4x3 and luStep in smallchol_amd64.s
// and smalllu_amd64.s. The AVX-512 trsvOct kernels — dtrsvOct512, and the
// fold dfold512 of the complex128 row — sit with the tiles in
// gemmkernel512_amd64.s, whose transpose they share with the gather packers.
// dot8 serves the small Cholesky's solves and, with dot4x3, Gemm's
// inner-product route (gemmDots).
//
// On every row each element of C is one chain of fused multiply-adds over
// the k-steps of a kc slab, started at zero and added to C once — in a full
// tile, in a ragged one (masked on the AVX-512 rows, through the scratch
// tile on the others) and in a tile that crosses a stored diagonal. What the
// engines compute therefore does not depend on the geometry or on where a
// tile grid or a Trsm slab cuts, and the rows, which share kc and the
// crossovers that pick a route, agree bit for bit (TestRowsAgree).
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
	// whose eight-wide leaves are trsvOct — A·X = B for n right-hand sides,
	// n a multiple of eight, left side — and gemvSub8 — y -= Σ t[q]·b(:,q),
	// right side.
	trsmLeaf int
	trsvOct  func(uplo Uplo, diag Diag, m, n int, a []T, lda int, b []T, ldb int)
	gemvSub8 func(m int, t [8]T, b []T, ldb int, y []T)
	// cholStep is one block step of the small Cholesky and dot8 the
	// transposed counterpart of gemvSub8, out[q] = Σ_i op(a(i, q))·x[i]
	// (Small.CholStep and Small.Dot8 have the contracts; dot8 is also the leaf
	// of Gemm's inner-product route); both take the row because their Go
	// forms run on its other leaves.
	cholStep func(k *kernel[T], upper bool, jb, m int, a []T, lda int) int
	dot8     func(k *kernel[T], a []T, lda int, x []T, conj bool) [CholNB]T
	// luStep is one block step of the small LU (Small.LUStep has the
	// contract), taking the row for the same reason.
	luStep func(k *kernel[T], nl, jb, m, n int, a []T, lda int, ipiv []int) int

	// The Level-1/2 leaves, over unit-stride vectors as long as the first one
	// (at least one element; leaves.go has the Go form of each):
	// y += alpha·x; x *= alpha; Σ op(x_i)·y_i; the symmetric column
	// y += alpha·a returning Σ op(a_i)·x_i; the first largest |re|+|im|. op
	// conjugates when conj is set, which callers only do for complex T. sumSq
	// returns Σ|x_i|² and whether it is safe to use (Nrm2), and is nil on
	// rows without a vector dot.
	axpy    func(alpha T, x, y []T)
	scal    func(alpha T, x []T)
	dot     func(x, y []T, conj bool) T
	axpyDot func(alpha T, a, x, y []T, conj bool) T
	iamax   func(x []T) int
	sumSq   func(x []T) (float64, bool)
	// rotRun carries m rows through nrot chained proper rotations (RotSeq);
	// refl3/refl2 apply one reflector to three/two columns as long as the
	// first (Refl3, Refl2), refl3Rows/refl2Rows the same reflector from the
	// left to the first three/two rows of the n columns of h (Refl3Rows,
	// Refl2Rows).
	rotRun    func(forward bool, m, nrot int, c, s []float64, a []T, lda int)
	refl3     func(x0, x1, x2 []T, v2, v3, t1, t2, t3 T)
	refl2     func(x0, x1 []T, v2, t1, t2 T)
	refl3Rows func(n int, h []T, ldh int, v2, v3, t1, t2, t3 T)
	refl2Rows func(n int, h []T, ldh int, v2, t1, t2 T)
	// small is the pack-free product C += alpha·A·B of gemmsmall.go; skinny,
	// where a row has one, takes NoTrans products of n ≤ 8 columns (a block
	// of right-hand sides) off the packed engine at any m and k.
	small  func(m, n, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int)
	skinny func(cfg *core.Config, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int)
	// dotRows and dotMinK bound the inner-product route (gemmDots): Trans or
	// ConjTrans × NoTrans products of at most dotRows rows of C over at least
	// dotMinK k-steps run pack-free on dot8 and, where a real row has it, on
	// dot4x3, its wider tile — the twelve sums Σ_i a(i, q)·b(i, c), q < 4,
	// c < 3, over k rows (out[q+4c]), each bit for bit dot8's.
	dotRows, dotMinK int
	dot4x3           func(k int, a []T, lda int, b []T, ldb int) [12]T

	// packA packs alpha·op(A)(i0:i0+mb, p0:p0+kb) into mr-row micro-panels,
	// packB packs op(B)(p0:p0+kb, j0:j0+nb) into nr-column micro-panels;
	// both zero-pad the ragged last panel.
	packA func(dst []T, mr int, trans Trans, alpha T, a []T, lda int, i0, mb, p0, kb int)
	packB func(dst []T, nr int, trans Trans, b []T, ldb int, p0, kb, j0, nb int)
	// micro accumulates one full mr×nr tile into c; edge accumulates the
	// leading rows×cols part of a ragged tile, with tile (at least mr·nr
	// elements, contents arbitrary; the AVX-512 rows ignore it) as its
	// scratch. The scratch is the caller's because a stack array handed to a
	// func value escapes to the heap — one allocation per edge tile.
	micro func(kb int, ap, bp, c []T, ldc int)
	edge  func(kb, mr, nr int, ap, bp, c []T, ldc, rows, cols int, tile []T)
}

// The scratch the engines carve off their pooled pack buffer for
// macroKernelTri's crossing tile and the scratch-tile edge kernels: two tiles
// of the largest geometry in the table.
const tileScratch = 2 * avx512F32MR * avx512NR

// rotView is a complex row's rotRun: the rotations are real, so the block is
// swept as the real block of twice the height by the real row's run.
func rotView[C core.Cmplx, R core.Float](view func([]C) []R, run func(bool, int, int, []float64, []float64, []R, int)) func(bool, int, int, []float64, []float64, []C, int) {
	return func(forward bool, m, nrot int, c, s []float64, a []C, lda int) {
		run(forward, 2*m, nrot, c, s, view(a), 2*lda)
	}
}

// scratchEdge is the edge kernel of a row whose micro-kernel only does full
// tiles: the full-tile kernel runs into the zeroed scratch tile (the packed
// panels are zero-padded) and the live part is added to C, so that a ragged
// tile's elements are the same chain of fused multiply-adds, added to C once,
// as a full tile's — and as the AVX-512 rows' masked tiles.
func scratchEdge[T core.Scalar](micro func(kb int, ap, bp, c []T, ldc int)) func(kb, mr, nr int, ap, bp, c []T, ldc, rows, cols int, tile []T) {
	return func(kb, mr, nr int, ap, bp, c []T, ldc, rows, cols int, tile []T) {
		tile = tile[:mr*nr]
		clear(tile)
		micro(kb, ap, bp, tile, mr)
		for j := 0; j < cols; j++ {
			col := c[j*ldc : j*ldc+rows]
			for i, v := range tile[j*mr : j*mr+rows] {
				col[i] += v
			}
		}
	}
}

// oneM builds the 1m row of complex type C from the real row rk it runs on;
// view is the matching real view from realview.go, axpy, dot and scal the
// type's vector kernels, pk the row's 1m packers, fold the register fold of
// trsvOct1e's Lower blocks (nil: the sweeps alone) and twin whether rk is a
// portable row, whose sweeps run subFma8's Go twin.
func oneM[C core.Cmplx, R core.Float](rk *kernel[R], view func([]C) []R, trsmLeaf int, axpy func(C, []C, []C), dot func([]C, []C, bool) C, scal func(C, []C), pk packers1m[R], fold func(n, k int, a []R, lda int, b []R, ldb int, r0, rows int), twin bool) kernel[C] {
	// The Level-1/2 leaves that are not the type's own vector kernels are the
	// real row's on the real view — the sum of squares, the rotations, the
	// substitution sweep under trsvOct — or stay on the Go loops.
	k := kernel[C]{
		mr: rk.mr / 2, nr: rk.nr, kScale: 2, trsmLeaf: trsmLeaf,
		trsvOct: trsvOct1e(view, fold, twin),
		gemvSub8: func(m int, t [8]C, b []C, ldb int, y []C) {
			for q, tq := range t {
				axpy(-tq, b[q*ldb:q*ldb+m], y)
			}
		},
		cholStep: cholStepGo[C], dot8: dot8Go[C], luStep: luStepGo[C],
		axpy: axpy, scal: scal, dot: dot, axpyDot: axpyDotGo[C], iamax: iamaxGo[C],
		sumSq:  func(x []C) (float64, bool) { return rk.sumSq(view(x)) },
		rotRun: rotView(view, rk.rotRun), refl3: refl3Go[C], refl2: refl2Go[C],
		refl3Rows: refl3RowsGo[C], refl2Rows: refl2RowsGo[C],
		small:  gemmSmallPortable[C],
		minVol: gemmPackedMinVol1m, smallMaxVol: gemmPackedMinVol1m,
		dotRows: dotRows1m, dotMinK: dotMinK,
	}
	k.micro = func(kb int, ap, bp, c []C, ldc int) {
		rk.micro(2*kb, view(ap), view(bp), view(c), 2*ldc)
	}
	k.packA = func(dst []C, mr int, trans Trans, alpha C, a []C, lda int, i0, mb, p0, kb int) {
		pk.packA(view(dst), mr, trans, R(core.Re(alpha)), R(core.Im(alpha)), view(a), lda, i0, mb, p0, kb)
	}
	k.packB = func(dst []C, nr int, trans Trans, b []C, ldb int, p0, kb, j0, nb int) {
		pk.packB(view(dst), nr, trans, view(b), ldb, p0, kb, j0, nb)
	}
	// A ragged tile is the real row's ragged tile of twice the rows.
	k.edge = func(kb, mr, nr int, ap, bp, c []C, ldc, rows, cols int, tile []C) {
		rk.edge(2*kb, 2*mr, nr, view(ap), view(bp), view(c), 2*ldc, 2*rows, cols, view(tile))
	}
	return k
}

// avx2F64 and avx2F32 build the AVX2 row of their type from its leaves: the
// assembly kernels or, with twin set, their Go twins (twins.go), which makes
// the portable row. Everything else — geometry, crossovers, packers and the
// Go leaves — is one list, so the two rows take the same routes and, each
// twin doing its kernel's operations in its order, compute the same bits.
func avx2F64(twin bool) kernel[float64] {
	k := kernel[float64]{
		mr: asmF64MR, nr: asmF64NR, kScale: 1, trsmLeaf: trsmLeafSize,
		trsvOct: trsvOctFma[float64](twin), cholStep: cholStepF64(twin), luStep: luStepF64(twin),
		small:  gemmSmallF64(twin),
		minVol: gemmPackedMinVolAsm, smallMaxVol: math.MaxInt,
		dotRows: dotRowsAsm, dotMinK: dotMinK,
		packA: packA[float64], packB: packB[float64],
	}
	if twin {
		k.gemvSub8, k.dot8, k.dot4x3 = gemvSub8Fma[float64], dot8Fma, dot4x3Fma
		k.axpy, k.scal, k.dot, k.axpyDot = axpyFma[float64], scalFma[float64], dotFma[float64], axpyDotFma
		k.iamax = iamaxFloat[float64]
		k.sumSq = func(x []float64) (float64, bool) {
			s := dotFma(x, x, false)
			return s, s > 1e-280 && s < 1e280
		}
		k.rotRun, k.refl3, k.refl2 = rotSeqFma[float64], refl3Fma, refl2Fma
		k.refl3Rows, k.refl2Rows = refl3RowsOn(refl3GroupsFma), refl2RowsOn(refl2GroupsFma)
		k.micro = gemmKernelFma[float64](asmF64MR)
	} else {
		k.gemvSub8 = func(m int, t [8]float64, b []float64, ldb int, y []float64) {
			dgemvSub8(int64(m), &t[0], &b[0], int64(ldb), &y[0])
		}
		k.dot8, k.dot4x3 = dot8F64, ddot4x3
		k.axpy, k.scal, k.dot, k.axpyDot = daxpyFma, dscalFma, ddotFma, daxpyDotFma
		k.iamax = func(x []float64) int {
			if len(x) >= iamaxAsmMin && x[0] == x[0] {
				return int(diamaxF64(int64(len(x)), &x[0]))
			}
			return iamaxFloat(x)
		}
		// The sum-of-squares windows: a sum of non-negative FMA terms is only
		// ever wrong by overflow — then it is Inf, as it is for Inf input, and
		// NaN input gives NaN — or by terms lost below the subnormal
		// threshold, which cannot matter once the total is a factor 1/ε clear
		// of it; 1e±280 for float64 lanes and 1e±28 for float32 keep a wide
		// margin on top of that.
		k.sumSq = func(x []float64) (float64, bool) {
			s := ddotFma(x, x, false)
			return s, s > 1e-280 && s < 1e280
		}
		k.rotRun = rotRunFma(drotSeqFma)
		k.refl3 = func(x0, x1, x2 []float64, v2, v3, t1, t2, t3 float64) {
			drefl3Fma(int64(len(x0)), &x0[0], &x1[0], &x2[0], v2, v3, t1, t2, t3)
		}
		k.refl2 = func(x0, x1 []float64, v2, t1, t2 float64) {
			drefl2Fma(int64(len(x0)), &x0[0], &x1[0], v2, t1, t2)
		}
		k.refl3Rows, k.refl2Rows = refl3RowsOn(drefl3RowsFma), refl2RowsOn(drefl2RowsFma)
		k.micro = microAVX2F64
	}
	k.edge = scratchEdge(k.micro)
	// The packed engine would copy all of A to produce a few columns; the
	// strip kernel makes one pass of A per four columns of C.
	small := k.small
	k.skinny = func(_ *core.Config, m, n, kk int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
		small(m, n, kk, alpha, a, lda, b, ldb, c, ldc)
	}
	return k
}

func avx2F32(twin bool) kernel[float32] {
	k := kernel[float32]{
		mr: asmF32MR, nr: asmF32NR, kScale: 1, trsmLeaf: trsmLeafSizeF32,
		trsvOct:  trsvOctFma[float32](twin),
		cholStep: cholStepGo[float32], dot8: dot8Go[float32], luStep: luStepGo[float32],
		axpyDot: axpyDotGo[float32], refl3: refl3Go[float32], refl2: refl2Go[float32],
		refl3Rows: refl3RowsGo[float32], refl2Rows: refl2RowsGo[float32],
		small:  gemmSmallPortable[float32],
		minVol: gemmPackedMinVolAsm, smallMaxVol: math.MaxInt,
		dotRows: dotRowsAsm, dotMinK: dotMinK,
	}
	if twin {
		k.gemvSub8 = gemvSub8Fma[float32]
		k.axpy, k.scal, k.dot = axpyFma[float32], scalFma[float32], dotFma[float32]
		k.iamax = iamaxFloat[float32]
		k.sumSq = func(x []float32) (float64, bool) {
			s := float64(dotFma(x, x, false))
			return s, s > 1e-28 && s < 1e28
		}
		k.rotRun = rotSeqFma[float32]
		k.packA, k.packB = packA[float32], packB[float32]
		k.micro = gemmKernelFma[float32](asmF32MR)
	} else {
		k.gemvSub8 = func(m int, t [8]float32, b []float32, ldb int, y []float32) {
			sgemvSub8(int64(m), &t[0], &b[0], int64(ldb), &y[0])
		}
		k.axpy, k.scal, k.dot = saxpyFma, sscalFma, sdotFma
		k.iamax = func(x []float32) int {
			if len(x) >= iamaxAsmMin && x[0] == x[0] {
				return int(siamaxF32(int64(len(x)), &x[0]))
			}
			return iamaxFloat(x)
		}
		k.sumSq = func(x []float32) (float64, bool) {
			s := float64(sdotFma(x, x, false))
			return s, s > 1e-28 && s < 1e28
		}
		k.rotRun = rotRunFma(srotSeqFma)
		k.packA, k.packB = packAF32, packBF32
		k.micro = microAVX2F32
	}
	k.edge = scratchEdge(k.micro)
	return k
}

var (
	kernGoF64  = avx2F64(true)
	kernGoF32  = avx2F32(true)
	kernGoC128 = oneM(&kernGoF64, realView128, trsmLeafSizeC128, complexAxpyFma[complex128](realView128), complexDotFma[complex128](realView128), complexScalFma[complex128](realView128), pack1mGoF64, nil, true)
	kernGoC64  = oneM(&kernGoF32, realView64, trsmLeafSizeC64, complexAxpyFma[complex64](realView64), complexDotFma[complex64](realView64), complexScalFma[complex64](realView64), pack1mGoF32, nil, true)

	kernAsmF64 = avx2F64(false)
	kernAsmF32 = avx2F32(false)
	kern1mC128 = oneM(&kernAsmF64, realView128, trsmLeafSizeC128, zaxpyFma, zdotFma, zscalFma, pack1mGoF64, nil, false)
	kern1mC64  = oneM(&kernAsmF32, realView64, trsmLeafSizeC64, caxpyFma, cdotFma, cscalFma, pack1mGoF32, nil, false)

	// The AVX-512 rows are the AVX2 rows with the micro-tile, its packers and
	// its kernels replaced, and float64's trsvOct (complex128's fold): every
	// other leaf, and every crossover, is shared, so the two asm rows take the
	// same routes and — each C(i,j) being one FMA chain over a kc slab on
	// both, each solved element the sweep's chain — produce the same bits.
	kern512F64 = func() kernel[float64] {
		k := kernAsmF64
		k.mr, k.nr = avx512F64MR, avx512NR
		k.packA, k.packB = pack512F64.packA, pack512F64.packB
		k.micro, k.edge = dgemmKernel24x8, dgemmEdge24x8
		k.trsvOct = trsvOct512F64
		return k
	}()
	kern512F32 = func() kernel[float32] {
		k := kernAsmF32
		k.mr, k.nr = avx512F32MR, avx512NR
		k.packA, k.packB = pack512F32.packA, pack512F32.packB
		k.micro, k.edge = sgemmKernel48x8, sgemmEdge48x8
		return k
	}()
	kern1m512C128 = oneM(&kern512F64, realView128, trsmLeafSizeC128, zaxpyFma, zdotFma, zscalFma, pack1m512F64, dfold512, false)
	kern1m512C64  = oneM(&kern512F32, realView64, trsmLeafSizeC64, caxpyFma, cdotFma, cscalFma, pack1m512F32, nil, false)
)

func microAVX2F64(kb int, ap, bp, c []float64, ldc int) {
	dgemmKernel8x4(int64(kb), &ap[0], &bp[0], &c[0], int64(ldc))
}

func microAVX2F32(kb int, ap, bp, c []float32, ldc int) {
	sgemmKernel16x4(int64(kb), &ap[0], &bp[0], &c[0], int64(ldc))
}

// The float32 skinny product is one vectorized column sweep per column of C
// (the recursive panels of a float32 LU issue this shape constantly). Gemv
// itself looks its row up in the table, so the entry cannot be part of the
// row's initializer.
func init() {
	skinny := func(cfg *core.Config, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
		for j := 0; j < n; j++ {
			Gemv(cfg, NoTrans, m, k, alpha, a, lda, b[j*ldb:], 1, 1, c[j*ldc:], 1)
		}
	}
	kernGoF32.skinny, kernAsmF32.skinny, kern512F32.skinny = skinny, skinny, skinny
}

// asmF64 reports whether the assembly kernels, of every element type, may be
// used right now: the static CPU + LA90_NO_ASM gate, minus the test-only
// fault-injection override that forces the portable kernels.
func asmF64() bool { return useAsmF64 && !faultinject.PortableOnly() }

// The rows of one element type, in the order kernelFor prefers them.
const (
	rowPortable = iota
	rowAVX2
	rowAVX512
)

var (
	rowsF64  = [...]*kernel[float64]{&kernGoF64, &kernAsmF64, &kern512F64}
	rowsF32  = [...]*kernel[float32]{&kernGoF32, &kernAsmF32, &kern512F32}
	rowsC128 = [...]*kernel[complex128]{&kernGoC128, &kern1mC128, &kern1m512C128}
	rowsC64  = [...]*kernel[complex64]{&kernGoC64, &kern1mC64, &kern1m512C64}
)

// kernelFor returns the table row for element type T: the AVX-512 row when
// the CPU gate allows it, else the AVX2 row, else the portable one (the
// test-only overrides of faultinject step down the same ladder). An engine
// calls it once and uses the row for the whole call, so geometry, packing and
// kernel always agree.
func kernelFor[T core.Scalar]() *kernel[T] {
	row := rowPortable
	if asmF64() {
		row = rowAVX2
		if useAVX512 && !faultinject.AVX2Only() {
			row = rowAVX512
		}
	}
	var z T
	var k any
	switch any(z).(type) {
	case float64:
		k = rowsF64[row]
	case float32:
		k = rowsF32[row]
	case complex128:
		k = rowsC128[row]
	case complex64:
		k = rowsC64[row]
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
// step 2p is [re, im, …] of column p, step 2p+1 is [−im, re, …]. Each
// product is rounded before the add (the conversions forbid the compiler a
// fused multiply-add), so the packed values do not depend on GOAMD64 and
// equal the AVX-512 rows' packers bit for bit.
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
					tr, ti := R(ar*vr)-R(ai*vi), R(ar*vi)+R(ai*vr)
					d0[i-1], d0[i] = tr, ti
					d1[i-1], d1[i] = -ti, tr
				}
				continue
			}
			for i := 1; i < len(d0); i += 2 {
				vr, vi := a[j], cj*a[j+1]
				tr, ti := R(ar*vr)-R(ai*vi), R(ar*vi)+R(ai*vr)
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
