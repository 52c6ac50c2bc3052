//go:build amd64

#include "textflag.h"

// The rotation-chain kernels of the iteration phase (iterate.go): RotSeq's
// wavefront on YMM vectors, one body for float64 (four lanes, drotSeqFma) and
// float32 (eight lanes, srotSeqFma). A block of rows crosses the whole chain
// with the column two consecutive links share held in registers. The
// rotation coefficients are float64 in memory for both types; BCASTC rounds
// one to the element type and broadcasts it, the conversion the portable
// loop makes.
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
