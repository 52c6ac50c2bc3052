//go:build amd64

#include "textflag.h"

// The AVX2+FMA register tiles of the packed engine and the pack-free small
// products: an 8×4 float64 or 16×4 float32 tile, one body (GEMM8X4) over
// elements of 1<<LOGES bytes. Register plan:
//   CX  k counter          SI packed A panel     DI packed B panel
//   DX  C column cursor    R8 ldc in bytes
//   Y0..Y7  the 2×4 grid of accumulators (two vectors per C column)
//   Y8,Y9   the current A micro-panel step
//   Y10..Y13 broadcast B elements
// The k loop touches no memory beyond the two operands and performs eight
// FMAs per step; C is read and written only in the epilogue.

// The macros come first and the entry points after them: go vet checks the
// argument names of every line against the TEXT symbol last seen, a macro's
// definition included.

// COL4 is one column of a k-step: broadcast the B element at MEM into YB and
// fold it with the A step into the column's two accumulators.
#define COL4(BCAST, FMA, MEM, YB, A0, A1) \
	BCAST MEM, YB; \
	FMA   Y8, YB, A0; \
	FMA   Y9, YB, A1

// OUT4 adds one column of accumulators to C at DX.
#define OUT4(ADD, MOV, A0, A1) \
	ADD (DX), A0, A0; \
	MOV A0, (DX); \
	ADD 32(DX), A1, A1; \
	MOV A1, 32(DX)

// GEMM8X4 is dgemmKernel8x4/sgemmKernel16x4: C(0:mr, 0:4) += Σ_p
// ap[p·mr : p·mr+mr] ⊗ bp[p·4 : p·4+4], C column-major at ldc.
#define GEMM8X4(XOR, MOVU, BCAST, FMA, ADD, LOGES) \
	MOVQ k+0(FP), CX; \
	MOVQ ap+8(FP), SI; \
	MOVQ bp+16(FP), DI; \
	MOVQ c+24(FP), DX; \
	MOVQ ldc+32(FP), R8; \
	SHLQ $LOGES, R8; \
	XOR  Y0, Y0, Y0; \
	XOR  Y1, Y1, Y1; \
	XOR  Y2, Y2, Y2; \
	XOR  Y3, Y3, Y3; \
	XOR  Y4, Y4, Y4; \
	XOR  Y5, Y5, Y5; \
	XOR  Y6, Y6, Y6; \
	XOR  Y7, Y7, Y7; \
loop: \
	MOVU (SI), Y8; \
	MOVU 32(SI), Y9; \
	COL4(BCAST, FMA, (0<<LOGES)(DI), Y10, Y0, Y1); \
	COL4(BCAST, FMA, (1<<LOGES)(DI), Y11, Y2, Y3); \
	COL4(BCAST, FMA, (2<<LOGES)(DI), Y12, Y4, Y5); \
	COL4(BCAST, FMA, (3<<LOGES)(DI), Y13, Y6, Y7); \
	ADDQ $64, SI; \
	ADDQ $(4<<LOGES), DI; \
	DECQ CX; \
	JNZ  loop; \
	OUT4(ADD, MOVU, Y0, Y1); \
	ADDQ R8, DX; \
	OUT4(ADD, MOVU, Y2, Y3); \
	ADDQ R8, DX; \
	OUT4(ADD, MOVU, Y4, Y5); \
	ADDQ R8, DX; \
	OUT4(ADD, MOVU, Y6, Y7); \
	VZEROUPPER; \
	RET

// STRIPOUT is OUT4 for the strip kernel: C += alpha·acc, alpha in Y15.
#define STRIPOUT(A0, A1) \
	VMOVUPD     (DX), Y8; \
	VFMADD231PD A0, Y15, Y8; \
	VMOVUPD     Y8, (DX); \
	VMOVUPD     32(DX), Y9; \
	VFMADD231PD A1, Y15, Y9; \
	VMOVUPD     Y9, 32(DX)

// func dgemmKernel8x4(k int64, ap, bp, c *float64, ldc int64)
TEXT ·dgemmKernel8x4(SB), NOSPLIT, $0-40
	GEMM8X4(VXORPD, VMOVUPD, VBROADCASTSD, VFMADD231PD, VADDPD, 3)

// func sgemmKernel16x4(k int64, ap, bp, c *float32, ldc int64)
TEXT ·sgemmKernel16x4(SB), NOSPLIT, $0-40
	GEMM8X4(VXORPS, VMOVUPS, VBROADCASTSS, VFMADD231PS, VADDPS, 2)

// func dgemmSmallStripF64(strips, k int64, a *float64, lda int64, b *float64, ldb int64, c *float64, ldc int64, alpha float64)
//
// The pack-free small-matrix kernel: one call computes a full m×4 column
// strip C(0:8·strips, 0:4) += alpha·A(0:8·strips, 0:k)·B(0:k, 0:4) directly
// on strided column-major operands — no packed panels. Per k step the A tile
// is two contiguous YMM loads from one matrix column (advance lda bytes to
// the next column) and the four B elements are strided broadcasts from one
// matrix row (the row cursor advances 8 bytes down the columns). The strip
// loop keeps the whole call's loop overhead off the Go side, which matters
// at k ≤ 64 where a per-tile call would cost as much as the tile.
//
// Register plan:
//   AX  strip counter      CX k counter
//   R12 A strip base       SI A column cursor     R9  lda in bytes
//   R14 B base             DI B row cursor        R10 ldb in bytes, R11 3·ldb
//   R13 C strip base       DX C column cursor     R8  ldc in bytes
//   Y0..Y7 accumulators, Y8,Y9 A step, Y10..Y13 B broadcasts, Y15 alpha
// alpha is folded in at the epilogue (C += alpha·acc via FMA), so the k loop
// is identical in cost to the packed kernel's.
TEXT ·dgemmSmallStripF64(SB), NOSPLIT, $0-72
	MOVQ         strips+0(FP), AX
	MOVQ         a+16(FP), R12
	MOVQ         lda+24(FP), R9
	SHLQ         $3, R9
	MOVQ         b+32(FP), R14
	MOVQ         ldb+40(FP), R10
	SHLQ         $3, R10
	LEAQ         (R10)(R10*2), R11
	MOVQ         c+48(FP), R13
	MOVQ         ldc+56(FP), R8
	SHLQ         $3, R8
	VBROADCASTSD alpha+64(FP), Y15

dsstrip:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   k+8(FP), CX
	MOVQ   R12, SI
	MOVQ   R14, DI

dsloop:
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	COL4(VBROADCASTSD, VFMADD231PD, (DI), Y10, Y0, Y1)
	COL4(VBROADCASTSD, VFMADD231PD, (DI)(R10*1), Y11, Y2, Y3)
	COL4(VBROADCASTSD, VFMADD231PD, (DI)(R10*2), Y12, Y4, Y5)
	COL4(VBROADCASTSD, VFMADD231PD, (DI)(R11*1), Y13, Y6, Y7)
	ADDQ    R9, SI
	ADDQ    $8, DI
	DECQ    CX
	JNZ     dsloop

	MOVQ R13, DX
	STRIPOUT(Y0, Y1)
	ADDQ R8, DX
	STRIPOUT(Y2, Y3)
	ADDQ R8, DX
	STRIPOUT(Y4, Y5)
	ADDQ R8, DX
	STRIPOUT(Y6, Y7)

	ADDQ $64, R12
	ADDQ $64, R13
	DECQ AX
	JNZ  dsstrip
	VZEROUPPER
	RET

// func spackA16(kb int64, alpha float32, src *float32, lda int64, dst *float32)
// Packs a full 16-row A micro-panel: dst[p*16:p*16+16] = alpha*src[p*lda:...]
// for p in [0,kb). One 64-byte panel step per column, so the pack runs at
// copy speed instead of the scalar per-element loop.
TEXT ·spackA16(SB), NOSPLIT, $0-40
	MOVQ         kb+0(FP), CX
	VBROADCASTSS alpha+8(FP), Y8
	MOVQ         src+16(FP), SI
	MOVQ         lda+24(FP), AX
	MOVQ         dst+32(FP), DX
	SHLQ         $2, AX
	TESTQ        CX, CX
	JZ           spackdone

spackloop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMULPS  Y8, Y0, Y0
	VMULPS  Y8, Y1, Y1
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	ADDQ    AX, SI
	ADDQ    $64, DX
	DECQ    CX
	JNZ     spackloop

spackdone:
	VZEROUPPER
	RET

// func spackB4(kb int64, s0, s1, s2, s3, dst *float32)
// Interleaves four kb-long source columns into a kb×4 row-major micro-panel
// (dst[p*4+c] = sc[p]): the float32 packB NoTrans full-panel case. Works in
// 4×4 blocks — four 16-byte column loads, an unpack/shuffle transpose, four
// contiguous 16-byte row stores — with a scalar tail.
TEXT ·spackB4(SB), NOSPLIT, $0-48
	MOVQ kb+0(FP), CX
	MOVQ s0+8(FP), SI
	MOVQ s1+16(FP), DI
	MOVQ s2+24(FP), R8
	MOVQ s3+32(FP), R9
	MOVQ dst+40(FP), DX
	XORQ AX, AX

spb4loop:
	LEAQ      4(AX), BX
	CMPQ      BX, CX
	JGT       spb4tail
	VMOVUPS   (SI)(AX*4), X0
	VMOVUPS   (DI)(AX*4), X1
	VMOVUPS   (R8)(AX*4), X2
	VMOVUPS   (R9)(AX*4), X3
	VUNPCKLPS X1, X0, X4            // s0[p] s1[p] s0[p+1] s1[p+1]
	VUNPCKHPS X1, X0, X6
	VUNPCKLPS X3, X2, X5            // s2[p] s3[p] s2[p+1] s3[p+1]
	VUNPCKHPS X3, X2, X7
	VSHUFPS   $0x44, X5, X4, X8     // row p
	VSHUFPS   $0xEE, X5, X4, X9     // row p+1
	VSHUFPS   $0x44, X7, X6, X10    // row p+2
	VSHUFPS   $0xEE, X7, X6, X11    // row p+3
	MOVQ      AX, R10
	SHLQ      $4, R10               // dst byte offset = p*16
	VMOVUPS   X8, (DX)(R10*1)
	VMOVUPS   X9, 16(DX)(R10*1)
	VMOVUPS   X10, 32(DX)(R10*1)
	VMOVUPS   X11, 48(DX)(R10*1)
	MOVQ      BX, AX
	JMP       spb4loop

spb4tail:
	CMPQ  AX, CX
	JGE   spb4done
	MOVQ  AX, R10
	SHLQ  $4, R10
	MOVSS (SI)(AX*4), X0
	MOVSS X0, (DX)(R10*1)
	MOVSS (DI)(AX*4), X0
	MOVSS X0, 4(DX)(R10*1)
	MOVSS (R8)(AX*4), X0
	MOVSS X0, 8(DX)(R10*1)
	MOVSS (R9)(AX*4), X0
	MOVSS X0, 12(DX)(R10*1)
	INCQ  AX
	JMP   spb4tail

spb4done:
	VZEROUPPER
	RET

// func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
