//go:build amd64

#include "textflag.h"

// The float64 leaves of the small-matrix Cholesky (smallchol.go), AVX2+FMA:
// both asm rows of the kernel table run them, so the rows agree bit for bit.

// Lane masks of a 4×4 tile on a stored diagonal, one 32-byte mask per tile
// column c: first the lower triangle (lanes i ≥ c), then the upper (lanes
// i ≤ c). Upper mask c is also "the first c+1 lanes", the ragged-tail mask of
// ddot8.
DATA cholMask<>+0(SB)/8, $-1
DATA cholMask<>+8(SB)/8, $-1
DATA cholMask<>+16(SB)/8, $-1
DATA cholMask<>+24(SB)/8, $-1
DATA cholMask<>+32(SB)/8, $0
DATA cholMask<>+40(SB)/8, $-1
DATA cholMask<>+48(SB)/8, $-1
DATA cholMask<>+56(SB)/8, $-1
DATA cholMask<>+64(SB)/8, $0
DATA cholMask<>+72(SB)/8, $0
DATA cholMask<>+80(SB)/8, $-1
DATA cholMask<>+88(SB)/8, $-1
DATA cholMask<>+96(SB)/8, $0
DATA cholMask<>+104(SB)/8, $0
DATA cholMask<>+112(SB)/8, $0
DATA cholMask<>+120(SB)/8, $-1
DATA cholMask<>+128(SB)/8, $-1
DATA cholMask<>+136(SB)/8, $0
DATA cholMask<>+144(SB)/8, $0
DATA cholMask<>+152(SB)/8, $0
DATA cholMask<>+160(SB)/8, $-1
DATA cholMask<>+168(SB)/8, $-1
DATA cholMask<>+176(SB)/8, $0
DATA cholMask<>+184(SB)/8, $0
DATA cholMask<>+192(SB)/8, $-1
DATA cholMask<>+200(SB)/8, $-1
DATA cholMask<>+208(SB)/8, $-1
DATA cholMask<>+216(SB)/8, $0
DATA cholMask<>+224(SB)/8, $-1
DATA cholMask<>+232(SB)/8, $-1
DATA cholMask<>+240(SB)/8, $-1
DATA cholMask<>+248(SB)/8, $-1
GLOBL cholMask<>(SB), RODATA|NOPTR, $256

// The frame of dcholStep8: the factor of the diagonal block as a compact
// column-major 8×8 tile, T(i, k) = L(i, k), zero above the diagonal on entry
// and scratch there afterwards, and the reciprocals of its diagonal.
#define T(i, k) ((i)+8*(k))*8(SP)
#define TT(k) (64*(k))(SP)
#define TB(k) (64*(k)+32)(SP)
#define INV(j) (512+8*(j))(SP)

// PIVOT takes column j's pivot: not positive or NaN leaves the function
// through cholfail with j in BX and the pivot in X0, else X1 = its root and
// Y2 = the reciprocal of the root in every lane (X14 = 1, X15 = 0).
#define PIVOT(j) \
	MOVQ         $j, BX;      \
	VMOVSD       T(j, j), X0; \
	VUCOMISD     X15, X0;     \
	JBE          cholfail;    \
	VSQRTSD      X0, X0, X1;  \
	VDIVSD       X1, X14, X2; \
	VMOVSD       X2, INV(j);  \
	VBROADCASTSD X2, Y2

// SCALE_LO scales tile column j < 4 (both halves, left in Y4 and Y5),
// SCALE_HI column j ≥ 4, whose upper half is above the diagonal; the root
// then replaces the scaled pivot.
#define SCALE_LO(j) \
	VMOVUPD TT(j), Y4;    \
	VMOVUPD TB(j), Y5;    \
	VMULPD  Y2, Y4, Y4;   \
	VMULPD  Y2, Y5, Y5;   \
	VMOVUPD Y4, TT(j);    \
	VMOVUPD Y5, TB(j);    \
	VMOVSD  X1, T(j, j)

#define SCALE_HI(j) \
	VMOVUPD TB(j), Y5;    \
	VMULPD  Y2, Y5, Y5;   \
	VMOVUPD Y5, TB(j);    \
	VMOVSD  X1, T(j, j)

// UPD_LO and UPD_HI subtract the scaled column (Y4, Y5) times its entry k —
// lane `lane` of src — from tile column k; a column k ≥ 4 has no stored
// entry in its upper half.
#define UPD_LO(k, lane, src) \
	VPERMPD      lane, src, Y3; \
	VMOVUPD      TT(k), Y6;     \
	VMOVUPD      TB(k), Y7;     \
	VFNMADD231PD Y3, Y4, Y6;    \
	VFNMADD231PD Y3, Y5, Y7;    \
	VMOVUPD      Y6, TT(k);     \
	VMOVUPD      Y7, TB(k)

#define UPD_HI(k, lane) \
	VPERMPD      lane, Y5, Y3;  \
	VMOVUPD      TB(k), Y7;     \
	VFNMADD231PD Y3, Y5, Y7;    \
	VMOVUPD      Y7, TB(k)

// STRIPSOLVE solves four rows of the panel against the tile: on entry Yq is
// the four rows' entries of panel column q, on exit their entries of the
// factor, x_q = (x_q − Σ_{p<q} x_p·L(q, p)) / L(q, q).
#define STRIPSOLVE \
	VBROADCASTSD INV(0), Y10;   \
	VMULPD       Y10, Y0, Y0; \
	VBROADCASTSD T(1, 0), Y8;   \
	VFNMADD231PD Y8, Y0, Y1; \
	VBROADCASTSD INV(1), Y10;   \
	VMULPD       Y10, Y1, Y1; \
	VBROADCASTSD T(2, 0), Y8;   \
	VFNMADD231PD Y8, Y0, Y2; \
	VBROADCASTSD T(2, 1), Y9;   \
	VFNMADD231PD Y9, Y1, Y2; \
	VBROADCASTSD INV(2), Y10;   \
	VMULPD       Y10, Y2, Y2; \
	VBROADCASTSD T(3, 0), Y8;   \
	VFNMADD231PD Y8, Y0, Y3; \
	VBROADCASTSD T(3, 1), Y9;   \
	VFNMADD231PD Y9, Y1, Y3; \
	VBROADCASTSD T(3, 2), Y8;   \
	VFNMADD231PD Y8, Y2, Y3; \
	VBROADCASTSD INV(3), Y10;   \
	VMULPD       Y10, Y3, Y3; \
	VBROADCASTSD T(4, 0), Y8;   \
	VFNMADD231PD Y8, Y0, Y4; \
	VBROADCASTSD T(4, 1), Y9;   \
	VFNMADD231PD Y9, Y1, Y4; \
	VBROADCASTSD T(4, 2), Y8;   \
	VFNMADD231PD Y8, Y2, Y4; \
	VBROADCASTSD T(4, 3), Y9;   \
	VFNMADD231PD Y9, Y3, Y4; \
	VBROADCASTSD INV(4), Y10;   \
	VMULPD       Y10, Y4, Y4; \
	VBROADCASTSD T(5, 0), Y8;   \
	VFNMADD231PD Y8, Y0, Y5; \
	VBROADCASTSD T(5, 1), Y9;   \
	VFNMADD231PD Y9, Y1, Y5; \
	VBROADCASTSD T(5, 2), Y8;   \
	VFNMADD231PD Y8, Y2, Y5; \
	VBROADCASTSD T(5, 3), Y9;   \
	VFNMADD231PD Y9, Y3, Y5; \
	VBROADCASTSD T(5, 4), Y8;   \
	VFNMADD231PD Y8, Y4, Y5; \
	VBROADCASTSD INV(5), Y10;   \
	VMULPD       Y10, Y5, Y5; \
	VBROADCASTSD T(6, 0), Y8;   \
	VFNMADD231PD Y8, Y0, Y6; \
	VBROADCASTSD T(6, 1), Y9;   \
	VFNMADD231PD Y9, Y1, Y6; \
	VBROADCASTSD T(6, 2), Y8;   \
	VFNMADD231PD Y8, Y2, Y6; \
	VBROADCASTSD T(6, 3), Y9;   \
	VFNMADD231PD Y9, Y3, Y6; \
	VBROADCASTSD T(6, 4), Y8;   \
	VFNMADD231PD Y8, Y4, Y6; \
	VBROADCASTSD T(6, 5), Y9;   \
	VFNMADD231PD Y9, Y5, Y6; \
	VBROADCASTSD INV(6), Y10;   \
	VMULPD       Y10, Y6, Y6; \
	VBROADCASTSD T(7, 0), Y8;   \
	VFNMADD231PD Y8, Y0, Y7; \
	VBROADCASTSD T(7, 1), Y9;   \
	VFNMADD231PD Y9, Y1, Y7; \
	VBROADCASTSD T(7, 2), Y8;   \
	VFNMADD231PD Y8, Y2, Y7; \
	VBROADCASTSD T(7, 3), Y9;   \
	VFNMADD231PD Y9, Y3, Y7; \
	VBROADCASTSD T(7, 4), Y8;   \
	VFNMADD231PD Y8, Y4, Y7; \
	VBROADCASTSD T(7, 5), Y9;   \
	VFNMADD231PD Y9, Y5, Y7; \
	VBROADCASTSD T(7, 6), Y8;   \
	VFNMADD231PD Y8, Y6, Y7; \
	VBROADCASTSD INV(7), Y10;   \
	VMULPD       Y10, Y7, Y7

// TRANS4 transposes the 4×4 block with columns a0..a3 into o0..o3 (which may
// be a0..a3); t0..t3 are scratch.
#define TRANS4(a0, a1, a2, a3, t0, t1, t2, t3, o0, o1, o2, o3) \
	VUNPCKLPD  a1, a0, t0;        \
	VUNPCKHPD  a1, a0, t1;        \
	VUNPCKLPD  a3, a2, t2;        \
	VUNPCKHPD  a3, a2, t3;        \
	VPERM2F128 $0x20, t2, t0, o0; \
	VPERM2F128 $0x20, t3, t1, o1; \
	VPERM2F128 $0x31, t2, t0, o2; \
	VPERM2F128 $0x31, t3, t1, o3

// ROUND is one k-step of a 4×4 tile of the trailing update: the four
// accumulators Y8..Y11 (tile columns) lose the strip's column a times the
// four entries b0..b3 of the panel.
#define ROUND(a, b0, b1, b2, b3) \
	VBROADCASTSD b0, Y12;      \
	VFNMADD231PD Y12, a, Y8;   \
	VBROADCASTSD b1, Y13;      \
	VFNMADD231PD Y13, a, Y9;   \
	VBROADCASTSD b2, Y14;      \
	VFNMADD231PD Y14, a, Y10;  \
	VBROADCASTSD b3, Y15;      \
	VFNMADD231PD Y15, a, Y11

// ROUNDS_L and ROUNDS_U are the eight k-steps with the strip in Y0..Y7 and
// SI at the tile's four panel rows (Lower: rows of the panel, its columns
// lda apart) or columns (Upper: columns of the block row).
#define ROUNDS_L \
	ROUND(Y0, (SI), 8(SI), 16(SI), 24(SI)); \
	ROUND(Y1, (SI)(R8*1), 8(SI)(R8*1), 16(SI)(R8*1), 24(SI)(R8*1)); \
	ROUND(Y2, (SI)(R8*2), 8(SI)(R8*2), 16(SI)(R8*2), 24(SI)(R8*2)); \
	ROUND(Y3, (SI)(R9*1), 8(SI)(R9*1), 16(SI)(R9*1), 24(SI)(R9*1)); \
	ROUND(Y4, (SI)(R8*4), 8(SI)(R8*4), 16(SI)(R8*4), 24(SI)(R8*4)); \
	ROUND(Y5, (SI)(R10*1), 8(SI)(R10*1), 16(SI)(R10*1), 24(SI)(R10*1)); \
	ROUND(Y6, (SI)(R9*2), 8(SI)(R9*2), 16(SI)(R9*2), 24(SI)(R9*2)); \
	ROUND(Y7, (SI)(R11*1), 8(SI)(R11*1), 16(SI)(R11*1), 24(SI)(R11*1))

#define ROUNDS_U \
	ROUND(Y0, 0(SI), 0(SI)(R8*1), 0(SI)(R8*2), 0(SI)(R9*1)); \
	ROUND(Y1, 8(SI), 8(SI)(R8*1), 8(SI)(R8*2), 8(SI)(R9*1)); \
	ROUND(Y2, 16(SI), 16(SI)(R8*1), 16(SI)(R8*2), 16(SI)(R9*1)); \
	ROUND(Y3, 24(SI), 24(SI)(R8*1), 24(SI)(R8*2), 24(SI)(R9*1)); \
	ROUND(Y4, 32(SI), 32(SI)(R8*1), 32(SI)(R8*2), 32(SI)(R9*1)); \
	ROUND(Y5, 40(SI), 40(SI)(R8*1), 40(SI)(R8*2), 40(SI)(R9*1)); \
	ROUND(Y6, 48(SI), 48(SI)(R8*1), 48(SI)(R8*2), 48(SI)(R9*1)); \
	ROUND(Y7, 56(SI), 56(SI)(R8*1), 56(SI)(R8*2), 56(SI)(R9*1))

#define LOADTILE \
	VMOVUPD (DI), Y8;        \
	VMOVUPD (DI)(R8*1), Y9;  \
	VMOVUPD (DI)(R8*2), Y10; \
	VMOVUPD (DI)(R9*1), Y11

#define STORETILE \
	VMOVUPD Y8, (DI);        \
	VMOVUPD Y9, (DI)(R8*1);  \
	VMOVUPD Y10, (DI)(R8*2); \
	VMOVUPD Y11, (DI)(R9*1)

// The diagonal tile under the four masks at off(R13): masked-off lanes load
// as zero, accumulate scratch and are not stored.
#define LOADMASKS(off) \
	VMOVUPD off(R13), Y12;      \
	VMOVUPD (off+32)(R13), Y13; \
	VMOVUPD (off+64)(R13), Y14; \
	VMOVUPD (off+96)(R13), Y15

#define LOADDIAG(off) \
	LOADMASKS(off);                    \
	VMASKMOVPD (DI), Y12, Y8;          \
	VMASKMOVPD (DI)(R8*1), Y13, Y9;    \
	VMASKMOVPD (DI)(R8*2), Y14, Y10;   \
	VMASKMOVPD (DI)(R9*1), Y15, Y11

#define STOREDIAG(off) \
	LOADMASKS(off);                    \
	VMASKMOVPD Y8, Y12, (DI);          \
	VMASKMOVPD Y9, Y13, (DI)(R8*1);    \
	VMASKMOVPD Y10, Y14, (DI)(R8*2);   \
	VMASKMOVPD Y11, Y15, (DI)(R9*1)

// The steps of ddot4x3. DOT43ROW takes one column of a (at src, four rows)
// into the accumulators of its three sums, c_q += a·b_c with the columns of
// b in Y12..Y14; DOT43TAIL takes one column of b (at src, under the mask in
// Y15) into the accumulators of its four sums; HSUM2 stores the two sums of
// accumulators ya and yb (xa is ya's low half) at off(DX), as ddot8 does.
#define DOT43ROW(src, c0, c1, c2) \
	VMOVUPD     src, Y15;      \
	VFMADD231PD Y15, Y12, c0; \
	VFMADD231PD Y15, Y13, c1; \
	VFMADD231PD Y15, Y14, c2

#define DOT43TAIL(src, c0, c1, c2, c3) \
	VMASKMOVPD  src, Y15, Y12;         \
	VMASKMOVPD  (SI), Y15, Y13;        \
	VFMADD231PD Y13, Y12, c0;          \
	VMASKMOVPD  (SI)(R8*1), Y15, Y13; \
	VFMADD231PD Y13, Y12, c1;          \
	VMASKMOVPD  (SI)(R8*2), Y15, Y13; \
	VFMADD231PD Y13, Y12, c2;          \
	VMASKMOVPD  (SI)(R9*1), Y15, Y13; \
	VFMADD231PD Y13, Y12, c3

#define HSUM2(ya, yb, xa, off) \
	VHADDPD      yb, ya, ya;  \
	VEXTRACTF128 $1, ya, X12; \
	VADDPD       X12, xa, xa; \
	VMOVUPD      xa, off(DX)

// func dcholStep8(upper bool, m int, a []float64, lda int) int
//
// One step of the small Cholesky (Small.CholStep) with a full block: m ≥ 8 a
// multiple of 8, the matrix at a with leading dimension lda, of which only
// the upper or the lower triangle is touched.
//
// The diagonal block is gathered into the frame tile through the strides of
// its lower factor (Upper: U = Lᵀ, the stored triangle read by rows), factored
// there a column at a time — the tile's columns are two vectors each, the
// multipliers broadcast from registers — and scattered back; on a bad pivot
// only the finished columns and the pivot go back. The rest runs a strip of
// four panel rows (Lower) or four block-row columns transposed in registers
// (Upper) at a time: the strip is solved against the tile with broadcast
// multipliers, stored, and, still in Y0..Y7, folded into its four rows of the
// trailing triangle, 4×4 tiles of four accumulators whose multipliers are
// the already solved panel entries — Lower walks its strips down and its
// tiles from the left edge to the masked diagonal tile, Upper walks its
// strips from the last one up and its tiles from the masked diagonal tile
// to the right edge, so every multiplier is final when it is read.
//
// Registers: AX a, R8 lda in bytes, R9/R10/R11 3·, 5·, 7· that, CX m,
// R12 the strip's first row or column, DX its address, SI the tile's panel
// entries, DI the tile, BX a counter, R13 the mask table.
TEXT ·dcholStep8(SB), NOSPLIT, $576-56
	MOVQ   a_base+16(FP), AX
	MOVQ   lda+40(FP), R8
	SHLQ   $3, R8
	MOVQ   m+8(FP), CX
	VXORPD X15, X15, X15
	MOVQ   $0x3FF0000000000000, DX
	VMOVQ  DX, X14

	// R12, R13: the row and column stride of the diagonal block's lower
	// factor.
	MOVQ $8, R12
	MOVQ R8, R13
	CMPB upper+0(FP), $0
	JEQ  cholgather
	MOVQ R8, R12
	MOVQ $8, R13

cholgather:
	VXORPD Y0, Y0, Y0
	VMOVUPD Y0, 0(SP)
	VMOVUPD Y0, 32(SP)
	VMOVUPD Y0, 64(SP)
	VMOVUPD Y0, 96(SP)
	VMOVUPD Y0, 128(SP)
	VMOVUPD Y0, 160(SP)
	VMOVUPD Y0, 192(SP)
	VMOVUPD Y0, 224(SP)
	VMOVUPD Y0, 256(SP)
	VMOVUPD Y0, 288(SP)
	VMOVUPD Y0, 320(SP)
	VMOVUPD Y0, 352(SP)
	VMOVUPD Y0, 384(SP)
	VMOVUPD Y0, 416(SP)
	VMOVUPD Y0, 448(SP)
	VMOVUPD Y0, 480(SP)
	MOVQ AX, SI
	LEAQ (SP), DI
	MOVQ $8, BX

cholgcol:
	MOVQ SI, DX
	MOVQ DI, R14
	MOVQ BX, R15

cholgrow:
	MOVQ (DX), R9
	MOVQ R9, (R14)
	ADDQ R12, DX
	ADDQ $8, R14
	DECQ R15
	JNZ  cholgrow
	ADDQ R12, SI
	ADDQ R13, SI
	ADDQ $72, DI
	DECQ BX
	JNZ  cholgcol

	PIVOT(0)
	SCALE_LO(0)
	UPD_LO(1, $0x55, Y4)
	UPD_LO(2, $0xaa, Y4)
	UPD_LO(3, $0xff, Y4)
	UPD_HI(4, $0x00)
	UPD_HI(5, $0x55)
	UPD_HI(6, $0xaa)
	UPD_HI(7, $0xff)
	PIVOT(1)
	SCALE_LO(1)
	UPD_LO(2, $0xaa, Y4)
	UPD_LO(3, $0xff, Y4)
	UPD_HI(4, $0x00)
	UPD_HI(5, $0x55)
	UPD_HI(6, $0xaa)
	UPD_HI(7, $0xff)
	PIVOT(2)
	SCALE_LO(2)
	UPD_LO(3, $0xff, Y4)
	UPD_HI(4, $0x00)
	UPD_HI(5, $0x55)
	UPD_HI(6, $0xaa)
	UPD_HI(7, $0xff)
	PIVOT(3)
	SCALE_LO(3)
	UPD_HI(4, $0x00)
	UPD_HI(5, $0x55)
	UPD_HI(6, $0xaa)
	UPD_HI(7, $0xff)
	PIVOT(4)
	SCALE_HI(4)
	UPD_HI(5, $0x55)
	UPD_HI(6, $0xaa)
	UPD_HI(7, $0xff)
	PIVOT(5)
	SCALE_HI(5)
	UPD_HI(6, $0xaa)
	UPD_HI(7, $0xff)
	PIVOT(6)
	SCALE_HI(6)
	UPD_HI(7, $0xff)
	PIVOT(7)
	SCALE_HI(7)
	MOVQ $0, ret+48(FP)
	MOVQ $8, R15
	JMP  cholscatter

cholfail:
	// Column BX failed with pivot X0: it goes back in its place, with the
	// BX columns before it.
	LEAQ   (R12)(R13*1), DX
	IMULQ  BX, DX
	VMOVSD X0, (AX)(DX*1)
	LEAQ   1(BX), DX
	MOVQ   DX, ret+48(FP)
	MOVQ   BX, R15
	TESTQ  R15, R15
	JZ     choldone

cholscatter:
	MOVQ AX, SI
	LEAQ (SP), DI
	MOVQ $8, BX

cholscol:
	MOVQ SI, DX
	MOVQ DI, R14
	MOVQ BX, R9

cholsrow:
	MOVQ (R14), R10
	MOVQ R10, (DX)
	ADDQ R12, DX
	ADDQ $8, R14
	DECQ R9
	JNZ  cholsrow
	ADDQ R12, SI
	ADDQ R13, SI
	ADDQ $72, DI
	DECQ BX
	DECQ R15
	JNZ  cholscol

	CMPQ ret+48(FP), $0
	JNE  choldone
	CMPQ CX, $8
	JEQ  choldone

	LEAQ (R8)(R8*2), R9
	LEAQ (R8)(R8*4), R10
	LEAQ (R9)(R8*4), R11
	LEAQ cholMask<>(SB), R13
	CMPB upper+0(FP), $0
	JNE  cholupper

	// Lower: strips of four panel rows, top down.
	MOVQ $8, R12

chollstrip:
	LEAQ    (AX)(R12*8), DX
	VMOVUPD (DX), Y0
	VMOVUPD (DX)(R8*1), Y1
	VMOVUPD (DX)(R8*2), Y2
	VMOVUPD (DX)(R9*1), Y3
	VMOVUPD (DX)(R8*4), Y4
	VMOVUPD (DX)(R10*1), Y5
	VMOVUPD (DX)(R9*2), Y6
	VMOVUPD (DX)(R11*1), Y7
	STRIPSOLVE
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, (DX)(R8*1)
	VMOVUPD Y2, (DX)(R8*2)
	VMOVUPD Y3, (DX)(R9*1)
	VMOVUPD Y4, (DX)(R8*4)
	VMOVUPD Y5, (DX)(R10*1)
	VMOVUPD Y6, (DX)(R9*2)
	VMOVUPD Y7, (DX)(R11*1)

	// Tiles of trailing columns 8, 12, … up to the strip's own rows, whose
	// tile is the masked one.
	LEAQ 64(AX), SI
	LEAQ (DX)(R8*8), DI
	MOVQ R12, BX
	SUBQ $8, BX
	SHRQ $2, BX
	JZ   chollast

cholltile:
	LOADTILE
	ROUNDS_L
	STORETILE
	ADDQ $32, SI
	LEAQ (DI)(R8*4), DI
	DECQ BX
	JNZ  cholltile

chollast:
	LOADDIAG(0)
	ROUNDS_L
	STOREDIAG(0)
	ADDQ $4, R12
	CMPQ R12, CX
	JLT  chollstrip
	JMP  choldone

cholupper:
	// Upper: strips of four block-row columns, last one first.
	LEAQ -4(CX), R12

cholustrip:
	MOVQ    R12, DX
	IMULQ   R8, DX
	ADDQ    AX, DX
	VMOVUPD (DX), Y8
	VMOVUPD (DX)(R8*1), Y9
	VMOVUPD (DX)(R8*2), Y10
	VMOVUPD (DX)(R9*1), Y11
	VMOVUPD 32(DX), Y12
	VMOVUPD 32(DX)(R8*1), Y13
	VMOVUPD 32(DX)(R8*2), Y14
	VMOVUPD 32(DX)(R9*1), Y15
	TRANS4(Y8, Y9, Y10, Y11, Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y3)
	TRANS4(Y12, Y13, Y14, Y15, Y8, Y9, Y10, Y11, Y4, Y5, Y6, Y7)
	STRIPSOLVE
	TRANS4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	VMOVUPD Y12, (DX)
	VMOVUPD Y13, (DX)(R8*1)
	VMOVUPD Y14, (DX)(R8*2)
	VMOVUPD Y15, (DX)(R9*1)
	TRANS4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	VMOVUPD Y12, 32(DX)
	VMOVUPD Y13, 32(DX)(R8*1)
	VMOVUPD Y14, 32(DX)(R8*2)
	VMOVUPD Y15, 32(DX)(R9*1)

	// The masked tile on the diagonal, then the tiles to its right.
	MOVQ DX, SI
	LEAQ (DX)(R12*8), DI
	LOADDIAG(128)
	ROUNDS_U
	STOREDIAG(128)
	MOVQ CX, BX
	SUBQ R12, BX
	SUBQ $4, BX
	SHRQ $2, BX
	JZ   cholunext

cholutile:
	LEAQ (SI)(R8*4), SI
	LEAQ (DI)(R8*4), DI
	LOADTILE
	ROUNDS_U
	STORETILE
	DECQ BX
	JNZ  cholutile

cholunext:
	SUBQ $4, R12
	CMPQ R12, $8
	JGE  cholustrip

choldone:
	VZEROUPPER
	RET

// func ddot8(a []float64, lda int, x []float64) [8]float64
//
// The eight sums Σ_i a(i, q)·x[i] over the len(x) ≥ 1 leading rows of eight
// columns lda apart: one accumulator per column, four rows per step, the
// last one to three rows under a lane mask.
TEXT ·ddot8(SB), NOSPLIT, $0-120
	MOVQ a_base+0(FP), SI
	MOVQ lda+24(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	LEAQ (R8)(R8*4), R10
	LEAQ (R9)(R8*4), R11
	MOVQ x_base+32(FP), DI
	MOVQ x_len+40(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   ddot8tail

ddot8loop:
	VMOVUPD (DI), Y8
	VFMADD231PD (SI), Y8, Y0
	VFMADD231PD (SI)(R8*1), Y8, Y1
	VFMADD231PD (SI)(R8*2), Y8, Y2
	VFMADD231PD (SI)(R9*1), Y8, Y3
	VFMADD231PD (SI)(R8*4), Y8, Y4
	VFMADD231PD (SI)(R10*1), Y8, Y5
	VFMADD231PD (SI)(R9*2), Y8, Y6
	VFMADD231PD (SI)(R11*1), Y8, Y7
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ BX
	JNZ  ddot8loop

ddot8tail:
	ANDQ $3, CX
	JZ   ddot8sum
	LEAQ       cholMask<>(SB), DX
	SHLQ       $5, CX
	VMOVUPD    96(DX)(CX*1), Y9
	VMASKMOVPD (DI), Y9, Y8
	VMASKMOVPD  (SI), Y9, Y10
	VFMADD231PD Y10, Y8, Y0
	VMASKMOVPD  (SI)(R8*1), Y9, Y10
	VFMADD231PD Y10, Y8, Y1
	VMASKMOVPD  (SI)(R8*2), Y9, Y10
	VFMADD231PD Y10, Y8, Y2
	VMASKMOVPD  (SI)(R9*1), Y9, Y10
	VFMADD231PD Y10, Y8, Y3
	VMASKMOVPD  (SI)(R8*4), Y9, Y10
	VFMADD231PD Y10, Y8, Y4
	VMASKMOVPD  (SI)(R10*1), Y9, Y10
	VFMADD231PD Y10, Y8, Y5
	VMASKMOVPD  (SI)(R9*2), Y9, Y10
	VFMADD231PD Y10, Y8, Y6
	VMASKMOVPD  (SI)(R11*1), Y9, Y10
	VFMADD231PD Y10, Y8, Y7

ddot8sum:
	LEAQ ret+56(FP), DX
	VHADDPD      Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X8
	VADDPD       X8, X0, X0
	VMOVUPD      X0, 0(DX)
	VHADDPD      Y3, Y2, Y2
	VEXTRACTF128 $1, Y2, X8
	VADDPD       X8, X2, X2
	VMOVUPD      X2, 16(DX)
	VHADDPD      Y5, Y4, Y4
	VEXTRACTF128 $1, Y4, X8
	VADDPD       X8, X4, X4
	VMOVUPD      X4, 32(DX)
	VHADDPD      Y7, Y6, Y6
	VEXTRACTF128 $1, Y6, X8
	VADDPD       X8, X6, X6
	VMOVUPD      X6, 48(DX)
	VZEROUPPER
	RET

// func ddot4x3(k int, a []float64, lda int, b []float64, ldb int) [12]float64
//
// The wider tile of ddot8 under Gemm's inner-product route: the twelve sums
// Σ_i a(i, q)·b(i, c), q < 4, c < 3, over k ≥ 1 rows, returned as
// out[q+4c]. Each column of b is read once for four of a and each column of a
// once for three of b, where ddot8 reads a once per column of b. Every sum is
// ddot8's chain — one accumulator, four rows per step, the last one to three
// rows under the same lane mask, the same horizontal sum — so the bits are
// ddot8's. The twelve accumulators leave four registers: three columns of b
// and one of a in the loop, one column of b at a time under the mask.
TEXT ·ddot4x3(SB), NOSPLIT, $0-168
	MOVQ   a_base+8(FP), SI
	MOVQ   lda+32(FP), R8
	SHLQ   $3, R8
	LEAQ   (R8)(R8*2), R9
	MOVQ   b_base+40(FP), DI
	MOVQ   ldb+64(FP), R10
	SHLQ   $3, R10
	MOVQ   k+0(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	MOVQ   CX, BX
	SHRQ   $2, BX
	JZ     dot43tail

dot43loop:
	VMOVUPD (DI), Y12
	VMOVUPD (DI)(R10*1), Y13
	VMOVUPD (DI)(R10*2), Y14
	DOT43ROW((SI), Y0, Y4, Y8)
	DOT43ROW((SI)(R8*1), Y1, Y5, Y9)
	DOT43ROW((SI)(R8*2), Y2, Y6, Y10)
	DOT43ROW((SI)(R9*1), Y3, Y7, Y11)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    BX
	JNZ     dot43loop

dot43tail:
	ANDQ    $3, CX
	JZ      dot43sum
	LEAQ    cholMask<>(SB), DX
	SHLQ    $5, CX
	VMOVUPD 96(DX)(CX*1), Y15
	DOT43TAIL((DI), Y0, Y1, Y2, Y3)
	DOT43TAIL((DI)(R10*1), Y4, Y5, Y6, Y7)
	DOT43TAIL((DI)(R10*2), Y8, Y9, Y10, Y11)

dot43sum:
	LEAQ ret+72(FP), DX
	HSUM2(Y0, Y1, X0, 0)
	HSUM2(Y2, Y3, X2, 16)
	HSUM2(Y4, Y5, X4, 32)
	HSUM2(Y6, Y7, X6, 48)
	HSUM2(Y8, Y9, X8, 64)
	HSUM2(Y10, Y11, X10, 80)
	VZEROUPPER
	RET
