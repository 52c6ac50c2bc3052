//go:build amd64

#include "textflag.h"

// The kernels of the iteration phase (iterate.go). First the rotation chains:
// RotSeq's wavefront on YMM vectors, one body for float64 (four lanes,
// drotSeqFma) and float32 (eight lanes, srotSeqFma). A block of rows crosses
// the whole chain with the column two consecutive links share held in
// registers. The rotation coefficients are float64 in memory for both types;
// BCASTC rounds one to the element type and broadcasts it, the conversion the
// portable loop makes.
//
// Register plan:
//   AX  rows left          BX  rotations          SI, DI  c and s bases
//   R8  coefficient step   DX  row block base     R9  column stride (bytes)
//   R10 carry's column     R11, R12 c and s cursors   R13 loaded column
//   CX  links left in the block's chain
//   Y0..Y7  carried vectors   Y8, Y9 products   Y12 c   Y13 σ   Y15 flip

// The macros come first and the entry points after them: go vet checks the
// argument names of every line against the TEXT symbol last seen.

// BCASTPD and BCASTPS load the float64 at src into every lane of dst in the
// element type; tmp is dst's low half.
#define BCASTPD(src, dst, tmp) \
	VBROADCASTSD src, dst

#define BCASTPS(src, dst, tmp) \
	VCVTSD2SS    src, tmp, tmp; \
	VBROADCASTSS tmp, dst

// ROTVEC advances one vector of the carried column P through a rotation: the
// finished column goes to off(R10), P becomes the carry of the next link. The
// products with the loaded column are rounded, the carried column's are fused
// in, so only the final FMA sits on P's dependency chain.
#define ROTVEC(MUL, FMA, FNMA, P, off) \
	MUL     off(R13), Y13, Y8; \
	MUL     off(R13), Y12, Y9; \
	FMA     P, Y12, Y8; \
	FNMA    Y9, Y13, P; \
	VMOVUPS Y8, off(R10)

// ROTLINK opens a link: c and σ = s xor flip into Y12 and Y13, R13 at the
// column to load. ROTNEXT closes it: the loaded column's place becomes the
// carry's, the coefficient cursors step.
#define ROTLINK(BCASTC) \
	BCASTC((R11), Y12, X12); \
	BCASTC((R12), Y13, X13); \
	VXORPS Y15, Y13, Y13; \
	LEAQ   (R10)(R9*1), R13

#define ROTNEXT \
	MOVQ R13, R10; \
	ADDQ R8, R11; \
	ADDQ R8, R12; \
	DECQ CX

// ROTBLOCK restarts the chain for the next row block at DX.
#define ROTBLOCK \
	MOVQ DX, R10; \
	MOVQ SI, R11; \
	MOVQ DI, R12; \
	MOVQ BX, CX

// ROTSEQ is the kernel body over LANES elements per 32-byte vector: row
// blocks of eight carried vectors (16 cycles of FMA-port work per link over a
// 4-cycle carry chain), then four, then one, then single rows with the scalar
// forms of the same instructions, so every element sees the same operations
// whatever block it falls in.
#define ROTSEQ(BCASTC, MOVS, MUL, FMA, FNMA, MULS, FMAS, FNMAS, LANES) \
	MOVQ m+0(FP), AX; \
	MOVQ nrot+8(FP), BX; \
	MOVQ c+16(FP), SI; \
	MOVQ s+24(FP), DI; \
	MOVQ cstep+32(FP), R8; \
	SHLQ $3, R8; \
	MOVQ a+40(FP), DX; \
	MOVQ colStride+48(FP), R9; \
	IMULQ $(32/LANES), R9; \
	BCASTC(flip+56(FP), Y15, X15); \
block8: \
	CMPQ    AX, $(8*LANES); \
	JLT     block4; \
	ROTBLOCK; \
	VMOVUPS (R10), Y0; \
	VMOVUPS 32(R10), Y1; \
	VMOVUPS 64(R10), Y2; \
	VMOVUPS 96(R10), Y3; \
	VMOVUPS 128(R10), Y4; \
	VMOVUPS 160(R10), Y5; \
	VMOVUPS 192(R10), Y6; \
	VMOVUPS 224(R10), Y7; \
loop8: \
	ROTLINK(BCASTC); \
	ROTVEC(MUL, FMA, FNMA, Y0, 0); \
	ROTVEC(MUL, FMA, FNMA, Y1, 32); \
	ROTVEC(MUL, FMA, FNMA, Y2, 64); \
	ROTVEC(MUL, FMA, FNMA, Y3, 96); \
	ROTVEC(MUL, FMA, FNMA, Y4, 128); \
	ROTVEC(MUL, FMA, FNMA, Y5, 160); \
	ROTVEC(MUL, FMA, FNMA, Y6, 192); \
	ROTVEC(MUL, FMA, FNMA, Y7, 224); \
	ROTNEXT; \
	JNZ     loop8; \
	VMOVUPS Y0, (R10); \
	VMOVUPS Y1, 32(R10); \
	VMOVUPS Y2, 64(R10); \
	VMOVUPS Y3, 96(R10); \
	VMOVUPS Y4, 128(R10); \
	VMOVUPS Y5, 160(R10); \
	VMOVUPS Y6, 192(R10); \
	VMOVUPS Y7, 224(R10); \
	ADDQ    $256, DX; \
	SUBQ    $(8*LANES), AX; \
	JMP     block8; \
block4: \
	CMPQ    AX, $(4*LANES); \
	JLT     block1; \
	ROTBLOCK; \
	VMOVUPS (R10), Y0; \
	VMOVUPS 32(R10), Y1; \
	VMOVUPS 64(R10), Y2; \
	VMOVUPS 96(R10), Y3; \
loop4: \
	ROTLINK(BCASTC); \
	ROTVEC(MUL, FMA, FNMA, Y0, 0); \
	ROTVEC(MUL, FMA, FNMA, Y1, 32); \
	ROTVEC(MUL, FMA, FNMA, Y2, 64); \
	ROTVEC(MUL, FMA, FNMA, Y3, 96); \
	ROTNEXT; \
	JNZ     loop4; \
	VMOVUPS Y0, (R10); \
	VMOVUPS Y1, 32(R10); \
	VMOVUPS Y2, 64(R10); \
	VMOVUPS Y3, 96(R10); \
	ADDQ    $128, DX; \
	SUBQ    $(4*LANES), AX; \
	JMP     block4; \
block1: \
	CMPQ    AX, $LANES; \
	JLT     rows; \
	ROTBLOCK; \
	VMOVUPS (R10), Y0; \
loop1: \
	ROTLINK(BCASTC); \
	ROTVEC(MUL, FMA, FNMA, Y0, 0); \
	ROTNEXT; \
	JNZ     loop1; \
	VMOVUPS Y0, (R10); \
	ADDQ    $32, DX; \
	SUBQ    $LANES, AX; \
	JMP     block1; \
rows: \
	TESTQ AX, AX; \
	JZ    done; \
	ROTBLOCK; \
	MOVS  (R10), X0; \
looprow: \
	ROTLINK(BCASTC); \
	MULS  (R13), X13, X8; \
	MULS  (R13), X12, X9; \
	FMAS  X0, X12, X8; \
	FNMAS X9, X13, X0; \
	MOVS  X8, (R10); \
	ROTNEXT; \
	JNZ   looprow; \
	MOVS  X0, (R10); \
	ADDQ  $(32/LANES), DX; \
	DECQ  AX; \
	JMP   rows; \
done: \
	VZEROUPPER; \
	RET

// func drotSeqFma(m, nrot int64, c, s *float64, cstep int64, a *float64, colStride int64, flip float64)
// Applies nrot ≥ 1 chained rotations to the m rows starting at a: the carry
// starts in the column at a, link t uses c[t·cstep], s[t·cstep] (cstep and
// colStride in elements, either sign), loads the column colStride further
// on, and flip is +0 (σ = s) or −0 (σ = −s).
TEXT ·drotSeqFma(SB), NOSPLIT, $0-64
	ROTSEQ(BCASTPD, VMOVSD, VMULPD, VFMADD231PD, VFNMADD213PD, VMULSD, VFMADD231SD, VFNMADD213SD, 4)

// func srotSeqFma(m, nrot int64, c, s *float64, cstep int64, a *float32, colStride int64, flip float64)
// drotSeqFma on float32 columns: the same chain, eight rows per vector.
TEXT ·srotSeqFma(SB), NOSPLIT, $0-64
	ROTSEQ(BCASTPS, VMOVSS, VMULPS, VFMADD231PS, VFNMADD213PS, VMULSS, VFMADD231SS, VFNMADD213SS, 8)

// Then the reflectors, float64 only: three-element reflectors applied to
// adjacent unit-stride columns or rows.

// func drefl3Fma(n int64, x0, x1, x2 *float64, v2, v3, t1, t2, t3 float64)
// One three-element reflector applied from the right to the columns x0, x1,
// x2: sum = x0 + v2·x1 + v3·x2 accumulated by two FMAs in that order, then
// x0 −= sum·t1, x1 −= sum·t2, x2 −= sum·t3, one FMA each.
TEXT ·drefl3Fma(SB), NOSPLIT, $0-72
	MOVQ         n+0(FP), CX
	MOVQ         x0+8(FP), SI
	MOVQ         x1+16(FP), DI
	MOVQ         x2+24(FP), DX
	VBROADCASTSD v2+32(FP), Y11
	VBROADCASTSD v3+40(FP), Y12
	VBROADCASTSD t1+48(FP), Y13
	VBROADCASTSD t2+56(FP), Y14
	VBROADCASTSD t3+64(FP), Y15

	MOVQ CX, BX
	SHRQ $3, BX
	JZ   refl3tail4

refl3loop8:
	VMOVUPD      (SI), Y0
	VMOVUPD      32(SI), Y1
	VMOVUPD      (DI), Y2
	VMOVUPD      32(DI), Y3
	VMOVUPD      (DX), Y4
	VMOVUPD      32(DX), Y5
	VMOVAPD      Y0, Y6
	VMOVAPD      Y1, Y7
	VFMADD231PD  Y2, Y11, Y6
	VFMADD231PD  Y3, Y11, Y7
	VFMADD231PD  Y4, Y12, Y6
	VFMADD231PD  Y5, Y12, Y7
	VFNMADD231PD Y6, Y13, Y0
	VFNMADD231PD Y7, Y13, Y1
	VFNMADD231PD Y6, Y14, Y2
	VFNMADD231PD Y7, Y14, Y3
	VFNMADD231PD Y6, Y15, Y4
	VFNMADD231PD Y7, Y15, Y5
	VMOVUPD      Y0, (SI)
	VMOVUPD      Y1, 32(SI)
	VMOVUPD      Y2, (DI)
	VMOVUPD      Y3, 32(DI)
	VMOVUPD      Y4, (DX)
	VMOVUPD      Y5, 32(DX)
	ADDQ         $64, SI
	ADDQ         $64, DI
	ADDQ         $64, DX
	DECQ         BX
	JNZ          refl3loop8

refl3tail4:
	TESTQ $4, CX
	JZ    refl3tail1
	VMOVUPD      (SI), Y0
	VMOVUPD      (DI), Y2
	VMOVUPD      (DX), Y4
	VMOVAPD      Y0, Y6
	VFMADD231PD  Y2, Y11, Y6
	VFMADD231PD  Y4, Y12, Y6
	VFNMADD231PD Y6, Y13, Y0
	VFNMADD231PD Y6, Y14, Y2
	VFNMADD231PD Y6, Y15, Y4
	VMOVUPD      Y0, (SI)
	VMOVUPD      Y2, (DI)
	VMOVUPD      Y4, (DX)
	ADDQ         $32, SI
	ADDQ         $32, DI
	ADDQ         $32, DX

refl3tail1:
	ANDQ $3, CX
	JZ   refl3done

refl3loop1:
	VMOVSD       (SI), X0
	VMOVSD       (DI), X2
	VMOVSD       (DX), X4
	VMOVAPD      X0, X6
	VFMADD231SD  X2, X11, X6
	VFMADD231SD  X4, X12, X6
	VFNMADD231SD X6, X13, X0
	VFNMADD231SD X6, X14, X2
	VFNMADD231SD X6, X15, X4
	VMOVSD       X0, (SI)
	VMOVSD       X2, (DI)
	VMOVSD       X4, (DX)
	ADDQ         $8, SI
	ADDQ         $8, DI
	ADDQ         $8, DX
	DECQ         CX
	JNZ          refl3loop1

refl3done:
	VZEROUPPER
	RET

// func drefl2Fma(n int64, x0, x1 *float64, v2, t1, t2 float64)
// The two-column reflector that ends a double-shift sweep:
// sum = x0 + v2·x1, x0 −= sum·t1, x1 −= sum·t2.
TEXT ·drefl2Fma(SB), NOSPLIT, $0-48
	MOVQ         n+0(FP), CX
	MOVQ         x0+8(FP), SI
	MOVQ         x1+16(FP), DI
	VBROADCASTSD v2+24(FP), Y11
	VBROADCASTSD t1+32(FP), Y13
	VBROADCASTSD t2+40(FP), Y14

	MOVQ CX, BX
	SHRQ $2, BX
	JZ   refl2tail1

refl2loop4:
	VMOVUPD      (SI), Y0
	VMOVUPD      (DI), Y2
	VMOVAPD      Y0, Y6
	VFMADD231PD  Y2, Y11, Y6
	VFNMADD231PD Y6, Y13, Y0
	VFNMADD231PD Y6, Y14, Y2
	VMOVUPD      Y0, (SI)
	VMOVUPD      Y2, (DI)
	ADDQ         $32, SI
	ADDQ         $32, DI
	DECQ         BX
	JNZ          refl2loop4

refl2tail1:
	ANDQ $3, CX
	JZ   refl2done

refl2loop1:
	VMOVSD       (SI), X0
	VMOVSD       (DI), X2
	VMOVAPD      X0, X6
	VFMADD231SD  X2, X11, X6
	VFNMADD231SD X6, X13, X0
	VFNMADD231SD X6, X14, X2
	VMOVSD       X0, (SI)
	VMOVSD       X2, (DI)
	ADDQ         $8, SI
	ADDQ         $8, DI
	DECQ         CX
	JNZ          refl2loop1

refl2done:
	VZEROUPPER
	RET

// func drefl3RowsFma(groups int64, h *float64, ldh int64, v2, v3, t1, t2, t3 float64)
// drefl3Fma's reflector applied from the left to rows 0..2 of 4·groups
// columns ldh bytes apart. A column's rows 0..3 are loaded as two pairs and
// the pairs of columns j and j+2 share a register, so two unpacks turn four
// columns into the row vectors a, b, c (and the fourth row d, which rides
// along and is stored back unchanged); the arithmetic is drefl3Fma's.
TEXT ·drefl3RowsFma(SB), NOSPLIT, $0-64
	MOVQ         groups+0(FP), CX
	MOVQ         h+8(FP), SI
	MOVQ         ldh+16(FP), R8
	VBROADCASTSD v2+24(FP), Y11
	VBROADCASTSD v3+32(FP), Y12
	VBROADCASTSD t1+40(FP), Y13
	VBROADCASTSD t2+48(FP), Y14
	VBROADCASTSD t3+56(FP), Y15
	LEAQ         (R8)(R8*2), R10

refl3rowsloop:
	VMOVUPD      (SI), X0
	VMOVUPD      16(SI), X2
	VMOVUPD      (SI)(R8*1), X1
	VMOVUPD      16(SI)(R8*1), X3
	VINSERTF128  $1, (SI)(R8*2), Y0, Y0
	VINSERTF128  $1, 16(SI)(R8*2), Y2, Y2
	VINSERTF128  $1, (SI)(R10*1), Y1, Y1
	VINSERTF128  $1, 16(SI)(R10*1), Y3, Y3
	VUNPCKLPD    Y1, Y0, Y4
	VUNPCKHPD    Y1, Y0, Y5
	VUNPCKLPD    Y3, Y2, Y6
	VUNPCKHPD    Y3, Y2, Y7
	VMOVAPD      Y4, Y8
	VFMADD231PD  Y5, Y11, Y8
	VFMADD231PD  Y6, Y12, Y8
	VFNMADD231PD Y8, Y13, Y4
	VFNMADD231PD Y8, Y14, Y5
	VFNMADD231PD Y8, Y15, Y6
	VUNPCKLPD    Y5, Y4, Y0
	VUNPCKHPD    Y5, Y4, Y1
	VUNPCKLPD    Y7, Y6, Y2
	VUNPCKHPD    Y7, Y6, Y3
	VMOVUPD      X0, (SI)
	VMOVUPD      X2, 16(SI)
	VMOVUPD      X1, (SI)(R8*1)
	VMOVUPD      X3, 16(SI)(R8*1)
	VEXTRACTF128 $1, Y0, (SI)(R8*2)
	VEXTRACTF128 $1, Y2, 16(SI)(R8*2)
	VEXTRACTF128 $1, Y1, (SI)(R10*1)
	VEXTRACTF128 $1, Y3, 16(SI)(R10*1)
	LEAQ         (SI)(R8*4), SI
	DECQ         CX
	JNZ          refl3rowsloop
	VZEROUPPER
	RET

// func drefl2RowsFma(groups int64, h *float64, ldh int64, v2, t1, t2 float64)
// The two-row form of drefl3RowsFma; it touches rows 0 and 1 only.
TEXT ·drefl2RowsFma(SB), NOSPLIT, $0-48
	MOVQ         groups+0(FP), CX
	MOVQ         h+8(FP), SI
	MOVQ         ldh+16(FP), R8
	VBROADCASTSD v2+24(FP), Y11
	VBROADCASTSD t1+32(FP), Y13
	VBROADCASTSD t2+40(FP), Y14
	LEAQ         (R8)(R8*2), R10

refl2rowsloop:
	VMOVUPD      (SI), X0
	VMOVUPD      (SI)(R8*1), X1
	VINSERTF128  $1, (SI)(R8*2), Y0, Y0
	VINSERTF128  $1, (SI)(R10*1), Y1, Y1
	VUNPCKLPD    Y1, Y0, Y4
	VUNPCKHPD    Y1, Y0, Y5
	VMOVAPD      Y4, Y8
	VFMADD231PD  Y5, Y11, Y8
	VFNMADD231PD Y8, Y13, Y4
	VFNMADD231PD Y8, Y14, Y5
	VUNPCKLPD    Y5, Y4, Y0
	VUNPCKHPD    Y5, Y4, Y1
	VMOVUPD      X0, (SI)
	VMOVUPD      X1, (SI)(R8*1)
	VEXTRACTF128 $1, Y0, (SI)(R8*2)
	VEXTRACTF128 $1, Y1, (SI)(R10*1)
	LEAQ         (SI)(R8*4), SI
	DECQ         CX
	JNZ          refl2rowsloop
	VZEROUPPER
	RET
