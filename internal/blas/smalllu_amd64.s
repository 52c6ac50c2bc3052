//go:build amd64

#include "textflag.h"

// dluStep8, the float64 step of the small-matrix LU (smalllu.go), AVX2+FMA:
// both asm rows of the kernel table run it, so the rows agree bit for bit.

// Constants: the mask of |x|; −1, what a lane of the pivot search holds before
// it has seen a number (and for good when it only ever sees NaN); the rows of
// the first two strips and the step from strip to strip; 2⁻¹⁰²², the smallest
// pivot whose reciprocal cannot overflow; 1.
DATA luAbs<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA luAbs<>+8(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA luAbs<>+16(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA luAbs<>+24(SB)/8, $0x7FFFFFFFFFFFFFFF
GLOBL luAbs<>(SB), RODATA|NOPTR, $32
DATA luNeg1<>+0(SB)/8, $-1.0
DATA luNeg1<>+8(SB)/8, $-1.0
DATA luNeg1<>+16(SB)/8, $-1.0
DATA luNeg1<>+24(SB)/8, $-1.0
GLOBL luNeg1<>(SB), RODATA|NOPTR, $32
DATA luRows<>+0(SB)/8, $0
DATA luRows<>+8(SB)/8, $1
DATA luRows<>+16(SB)/8, $2
DATA luRows<>+24(SB)/8, $3
DATA luRows<>+32(SB)/8, $4
DATA luRows<>+40(SB)/8, $5
DATA luRows<>+48(SB)/8, $6
DATA luRows<>+56(SB)/8, $7
GLOBL luRows<>(SB), RODATA|NOPTR, $64
DATA luFour<>+0(SB)/8, $4
DATA luFour<>+8(SB)/8, $4
DATA luFour<>+16(SB)/8, $4
DATA luFour<>+24(SB)/8, $4
GLOBL luFour<>(SB), RODATA|NOPTR, $32
DATA luSafeMin<>+0(SB)/8, $0x0010000000000000
GLOBL luSafeMin<>(SB), RODATA|NOPTR, $8
DATA luOne<>+0(SB)/8, $1.0
GLOBL luOne<>(SB), RODATA|NOPTR, $8

// The frame: the eight interchanges of the block as byte offsets from its
// first row; INFO; the count of eight-row tiles under the block row; the
// block's interchanges as one permutation (below); and a column nobody owns,
// for the groups of four columns that are short of four — on top of the part
// of FROM that is done with by the time a column is written.
#define PIV(q) (8*(q))(SP)
#define INFO 64(SP)
#define TILES 72(SP)
#define MOVES 80(SP)
#define DST 88
#define SRC 152
#define FROM 216
#define NOBODY 280(SP)

// Kc(off, B) is the entry off bytes below B in the column c columns on.
#define K0(off, B) off(B)
#define K1(off, B) off(B)(R8*1)
#define K2(off, B) off(B)(R8*2)
#define K3(off, B) off(B)(R9*1)
#define K4(off, B) off(B)(R8*4)
#define K5(off, B) off(B)(R10*1)
#define K6(off, B) off(B)(R9*2)
#define K7(off, B) off(B)(R11*1)

// TRACK takes the strip in Y4, of the rows in Y5, into the pivot search: Y0
// is the largest |x| each lane has seen, Y1 the row it first saw it in and Y9
// the entry itself.
// NaN is larger than nothing and VMAXPD keeps its first operand over one, so
// a lane never takes a NaN. TRACKM leaves out the lanes in out — those at and
// above the pivot's row.
#define TRACK \
	VANDPD    Y15, Y4, Y6;          \
	VCMPPD    $0x1E, Y0, Y6, Y7;    \
	VMAXPD    Y0, Y6, Y0;           \
	VBLENDVPD Y7, Y5, Y1, Y1;       \
	VBLENDVPD Y7, Y4, Y9, Y9;       \
	VPADDQ    luFour<>(SB), Y5, Y5

#define TRACKM(out) \
	VANDPD    Y15, Y4, Y6;               \
	VBLENDPD  out, luNeg1<>(SB), Y6, Y6; \
	VCMPPD    $0x1E, Y0, Y6, Y7;         \
	VMAXPD    Y0, Y6, Y0;                \
	VBLENDVPD Y7, Y5, Y1, Y1;            \
	VBLENDVPD Y7, Y4, Y9, Y9;            \
	VPADDQ    luFour<>(SB), Y5, Y5

// BEST keeps in (v, r, x) the better of the candidates (v, r, x) and
// (w, s, y), lane by lane: the larger |x|, of equal ones the one from the
// earlier row. SEARCH opens a pivot search over strips from row0 on and FOUND
// closes it, folding the lanes twice — halves, then neighbours — so that
// every lane ends with the winner: BX is the first row that holds the largest
// |x| and Y2 the entry there in every lane — unless the first entry of the
// column, x0 in row first, is NaN: then that is the pivot, as in blas.Iamax.
#define BEST(v, r, x, w, s, y) \
	VCMPPD    $0x1E, v, w, Y2; \
	VCMPPD    $0x00, v, w, Y3; \
	VPCMPGTQ  s, r, Y4;        \
	VANDPD    Y4, Y3, Y3;      \
	VORPD     Y3, Y2, Y2;      \
	VBLENDVPD Y2, w, v, v;     \
	VBLENDVPD Y2, s, r, r;     \
	VBLENDVPD Y2, y, x, x

#define SEARCH(row0) \
	VMOVUPD luNeg1<>(SB), Y0;      \
	VXORPD  Y1, Y1, Y1;            \
	VXORPD  Y9, Y9, Y9;            \
	VMOVUPD luRows<>+row0(SB), Y5

#define FOUND(x0, first) \
	VPERM2F128   $1, Y0, Y0, Y6;  \
	VPERM2F128   $1, Y1, Y1, Y7;  \
	VPERM2F128   $1, Y9, Y9, Y5;  \
	BEST(Y0, Y1, Y9, Y6, Y7, Y5); \
	VPERMILPD    $5, Y0, Y6;      \
	VPERMILPD    $5, Y1, Y7;      \
	VPERMILPD    $5, Y9, Y5;      \
	BEST(Y0, Y1, Y9, Y6, Y7, Y5); \
	VMOVQ        X1, BX;          \
	VBROADCASTSD x0, Y2;          \
	MOVQ         first, DX;       \
	VUCOMISD     X2, X2;          \
	CMOVQPS      DX, BX;          \
	VCMPPD       $3, Y2, Y2, Y3;  \
	VBLENDVPD    Y3, Y2, Y9, Y2

// SWAP exchanges two entries; SWAPROW the row j8 bytes below AX with the row
// at SI across the eight columns of the panel.
#define SWAP(x, y) \
	MOVQ x, R12; \
	MOVQ y, R13; \
	MOVQ R13, x; \
	MOVQ R12, y

#define SWAPROW(j8) \
	SWAP(K0(j8, AX), K0(0, SI)); \
	SWAP(K1(j8, AX), K1(0, SI)); \
	SWAP(K2(j8, AX), K2(0, SI)); \
	SWAP(K3(j8, AX), K3(0, SI)); \
	SWAP(K4(j8, AX), K4(0, SI)); \
	SWAP(K5(j8, AX), K5(0, SI)); \
	SWAP(K6(j8, AX), K6(0, SI)); \
	SWAP(K7(j8, AX), K7(0, SI))

// PIVOT takes column j's pivot, Y2 in row BX: the interchange is recorded
// and made, and Y2 becomes the reciprocal of the pivot. A pivot under 2⁻¹⁰²²
// — zero, subnormal or NaN — goes through luslow, which comes back to the
// label scaled with a multiplier of one.
#define PIVOT(j, pivot, normal, scaled) \
	MOVQ     BX, (8*j)(R15);      \
	SHLQ     $3, BX;              \
	MOVQ     BX, PIV(j);          \
	LEAQ     (AX)(BX*1), SI;      \
	SWAPROW(8*j);                 \
	VANDPD   X15, X2, X6;         \
	VUCOMISD luSafeMin<>(SB), X6; \
	JAE      normal;              \
	MOVQ     $j, R14;             \
	LEAQ     pivot, DI;           \
	JMP      luslow;              \
	normal:                      \
	VBROADCASTSD luOne<>(SB), Y6; \
	VDIVPD   Y2, Y6, Y2;          \
	scaled:

// SCALE scales a strip of the pivot column and leaves it in Y3, UPD takes Y3
// times the multiplier u out of a strip of a later column (left in Y4). The M
// forms change only the lanes in keep, those below the pivot's row: the lanes
// above hold finished entries of U, which a multiplier of Inf would turn
// into NaN if they went through the arithmetic.
#define SCALE(col) \
	VMOVUPD col, Y3;    \
	VMULPD  Y2, Y3, Y3; \
	VMOVUPD Y3, col

#define SCALEM(col, keep) \
	VMOVUPD  col, Y4;          \
	VMULPD   Y2, Y4, Y3;       \
	VBLENDPD keep, Y3, Y4, Y3; \
	VMOVUPD  Y3, col

#define UPD(col, u) \
	VMOVUPD      col, Y4;   \
	VFNMADD231PD u, Y3, Y4; \
	VMOVUPD      Y4, col

#define UPDM(col, u, keep) \
	VMOVUPD      col, Y6;          \
	VMOVAPD      Y6, Y4;           \
	VFNMADD231PD u, Y3, Y4;        \
	VBLENDPD     keep, Y4, Y6, Y4; \
	VMOVUPD      Y4, col

// The multipliers of step j are row j of the columns after j: Y8 for the
// first of them, and MULTj broadcasts the others into Y9 on. Step j makes two
// passes over the rows below row j, four rows off bytes below B at a time:
// FIRSTj scales the pivot column and reduces the column after it, which is
// searched as it goes by, so that the next pivot is known — and the next step
// can start on the strips that are ready — while RESTj reduces the other
// columns. FIRSTMj and RESTMj are the two on the strip that holds row j
// itself.
#define MULT0 \
	VBROADCASTSD 0(AX)(R8*2), Y9;   \
	VBROADCASTSD 0(AX)(R9*1), Y10;  \
	VBROADCASTSD 0(AX)(R8*4), Y11;  \
	VBROADCASTSD 0(AX)(R10*1), Y12; \
	VBROADCASTSD 0(AX)(R9*2), Y13;  \
	VBROADCASTSD 0(AX)(R11*1), Y14

#define MULT1 \
	VBROADCASTSD 8(AX)(R9*1), Y9;   \
	VBROADCASTSD 8(AX)(R8*4), Y10;  \
	VBROADCASTSD 8(AX)(R10*1), Y11; \
	VBROADCASTSD 8(AX)(R9*2), Y12;  \
	VBROADCASTSD 8(AX)(R11*1), Y13

#define MULT2 \
	VBROADCASTSD 16(AX)(R8*4), Y9;   \
	VBROADCASTSD 16(AX)(R10*1), Y10; \
	VBROADCASTSD 16(AX)(R9*2), Y11;  \
	VBROADCASTSD 16(AX)(R11*1), Y12

#define MULT3 \
	VBROADCASTSD 24(AX)(R10*1), Y9;  \
	VBROADCASTSD 24(AX)(R9*2), Y10;  \
	VBROADCASTSD 24(AX)(R11*1), Y11

#define MULT4 \
	VBROADCASTSD 32(AX)(R9*2), Y9;   \
	VBROADCASTSD 32(AX)(R11*1), Y10

#define MULT5 VBROADCASTSD 40(AX)(R11*1), Y9

#define FIRST0(off, B) \
	SCALE(K0(off, B));   \
	UPD(K1(off, B), Y8); \
	TRACK

#define FIRST1(off, B) \
	SCALE(K1(off, B));   \
	UPD(K2(off, B), Y8); \
	TRACK

#define FIRST2(off, B) \
	SCALE(K2(off, B));   \
	UPD(K3(off, B), Y8); \
	TRACK

#define FIRST3(off, B) \
	SCALE(K3(off, B));   \
	UPD(K4(off, B), Y8); \
	TRACK

#define FIRST4(off, B) \
	SCALE(K4(off, B));   \
	UPD(K5(off, B), Y8); \
	TRACK

#define FIRST5(off, B) \
	SCALE(K5(off, B));   \
	UPD(K6(off, B), Y8); \
	TRACK

#define FIRST6(off, B) \
	SCALE(K6(off, B));   \
	UPD(K7(off, B), Y8); \
	TRACK

#define FIRST7(off, B) SCALE(K7(off, B))

#define REST0(off, B) \
	VMOVUPD K0(off, B), Y3; \
	UPD(K2(off, B), Y9);    \
	UPD(K3(off, B), Y10);   \
	UPD(K4(off, B), Y11);   \
	UPD(K5(off, B), Y12);   \
	UPD(K6(off, B), Y13);   \
	UPD(K7(off, B), Y14)

#define REST1(off, B) \
	VMOVUPD K1(off, B), Y3; \
	UPD(K3(off, B), Y9);    \
	UPD(K4(off, B), Y10);   \
	UPD(K5(off, B), Y11);   \
	UPD(K6(off, B), Y12);   \
	UPD(K7(off, B), Y13)

#define REST2(off, B) \
	VMOVUPD K2(off, B), Y3; \
	UPD(K4(off, B), Y9);    \
	UPD(K5(off, B), Y10);   \
	UPD(K6(off, B), Y11);   \
	UPD(K7(off, B), Y12)

#define REST3(off, B) \
	VMOVUPD K3(off, B), Y3; \
	UPD(K5(off, B), Y9);    \
	UPD(K6(off, B), Y10);   \
	UPD(K7(off, B), Y11)

#define REST4(off, B) \
	VMOVUPD K4(off, B), Y3; \
	UPD(K6(off, B), Y9);    \
	UPD(K7(off, B), Y10)

#define REST5(off, B) \
	VMOVUPD K5(off, B), Y3; \
	UPD(K7(off, B), Y9)

#define FIRSTM0(off, keep, out) \
	SCALEM(K0(off, AX), keep);   \
	UPDM(K1(off, AX), Y8, keep); \
	TRACKM(out)

#define FIRSTM1(off, keep, out) \
	SCALEM(K1(off, AX), keep);   \
	UPDM(K2(off, AX), Y8, keep); \
	TRACKM(out)

#define FIRSTM2(off, keep, out) \
	SCALEM(K2(off, AX), keep);   \
	UPDM(K3(off, AX), Y8, keep); \
	TRACKM(out)

#define FIRSTM4(off, keep, out) \
	SCALEM(K4(off, AX), keep);   \
	UPDM(K5(off, AX), Y8, keep); \
	TRACKM(out)

#define FIRSTM5(off, keep, out) \
	SCALEM(K5(off, AX), keep);   \
	UPDM(K6(off, AX), Y8, keep); \
	TRACKM(out)

#define FIRSTM6(off, keep, out) \
	SCALEM(K6(off, AX), keep);   \
	UPDM(K7(off, AX), Y8, keep); \
	TRACKM(out)

#define RESTM0(off, keep) \
	VMOVUPD K0(off, AX), Y3;      \
	UPDM(K2(off, AX), Y9, keep);  \
	UPDM(K3(off, AX), Y10, keep); \
	UPDM(K4(off, AX), Y11, keep); \
	UPDM(K5(off, AX), Y12, keep); \
	UPDM(K6(off, AX), Y13, keep); \
	UPDM(K7(off, AX), Y14, keep)

#define RESTM1(off, keep) \
	VMOVUPD K1(off, AX), Y3;      \
	UPDM(K3(off, AX), Y9, keep);  \
	UPDM(K4(off, AX), Y10, keep); \
	UPDM(K5(off, AX), Y11, keep); \
	UPDM(K6(off, AX), Y12, keep); \
	UPDM(K7(off, AX), Y13, keep)

#define RESTM2(off, keep) \
	VMOVUPD K2(off, AX), Y3;      \
	UPDM(K4(off, AX), Y9, keep);  \
	UPDM(K5(off, AX), Y10, keep); \
	UPDM(K6(off, AX), Y11, keep); \
	UPDM(K7(off, AX), Y12, keep)

#define RESTM4(off, keep) \
	VMOVUPD K4(off, AX), Y3;      \
	UPDM(K6(off, AX), Y9, keep);  \
	UPDM(K7(off, AX), Y10, keep)

#define RESTM5(off, keep) \
	VMOVUPD K5(off, AX), Y3;     \
	UPDM(K7(off, AX), Y9, keep)

// BELOW runs a pass over the rows under the diagonal block, eight to a turn.
#define BELOW(STRIP, loop, end) \
	LEAQ -8(CX), R13; \
	SHRQ $3, R13;    \
	JZ   end;        \
	LEAQ 64(AX), DX; \
	loop:            \
	STRIP(0, DX);    \
	STRIP(32, DX);   \
	ADDQ $64, DX;    \
	DECQ R13;        \
	JNZ  loop;       \
	end:

// The eight interchanges of a block, made one after the other in every
// column, are two loads and two stores apiece and the stores are what they
// wait for. Taken together they are a permutation that moves at most sixteen
// rows: the first eight rows of a column end up with entries from anywhere,
// and each row below them that a pivot came from ends up with an entry from
// the first eight. dluStep8 works that out once for the block (lufrom on):
// it plays the interchanges on the row numbers — FROM(r) is the row whose
// entry row r ends up with, kept for the rows they touch — and lists the
// moves into the rows below, DST(k) ← SRC(k) for k < MOVES (a row two pivots
// came from is listed twice, with the same source).
//
// FOUR points SI, R12 and R13 at the three columns after the one at DI, or
// at the column nobody owns where fewer than four (BX) are left. GATHER then
// collects what the permutation puts in the first eight rows of the four
// columns, column c's in X(4c)..X(4c+3), and MOVE makes its moves into the
// rows below — from the first eight rows, which are stored only afterwards.
#define FOUR \
	LEAQ    NOBODY, R14;     \
	LEAQ    (DI)(R8*1), SI;  \
	CMPQ    BX, $2;          \
	CMOVQLT R14, SI;         \
	LEAQ    (DI)(R8*2), R12; \
	CMPQ    BX, $3;          \
	CMOVQLT R14, R12;        \
	LEAQ    (DI)(R9*1), R13; \
	CMPQ    BX, $4;          \
	CMOVQLT R14, R13

#define GATHER \
	MOVQ    (FROM+0)(SP), R14;         \
	VMOVSD  (DI)(R14*1), X0;        \
	VMOVSD  (SI)(R14*1), X4;        \
	VMOVSD  (R12)(R14*1), X8;       \
	VMOVSD  (R13)(R14*1), X12;      \
	MOVQ    (FROM+8)(SP), R14;         \
	VMOVHPD (DI)(R14*1), X0, X0;    \
	VMOVHPD (SI)(R14*1), X4, X4;    \
	VMOVHPD (R12)(R14*1), X8, X8;   \
	VMOVHPD (R13)(R14*1), X12, X12; \
	MOVQ    (FROM+16)(SP), R14;        \
	VMOVSD  (DI)(R14*1), X1;        \
	VMOVSD  (SI)(R14*1), X5;        \
	VMOVSD  (R12)(R14*1), X9;       \
	VMOVSD  (R13)(R14*1), X13;      \
	MOVQ    (FROM+24)(SP), R14;        \
	VMOVHPD (DI)(R14*1), X1, X1;    \
	VMOVHPD (SI)(R14*1), X5, X5;    \
	VMOVHPD (R12)(R14*1), X9, X9;   \
	VMOVHPD (R13)(R14*1), X13, X13; \
	MOVQ    (FROM+32)(SP), R14;        \
	VMOVSD  (DI)(R14*1), X2;        \
	VMOVSD  (SI)(R14*1), X6;        \
	VMOVSD  (R12)(R14*1), X10;      \
	VMOVSD  (R13)(R14*1), X14;      \
	MOVQ    (FROM+40)(SP), R14;        \
	VMOVHPD (DI)(R14*1), X2, X2;    \
	VMOVHPD (SI)(R14*1), X6, X6;    \
	VMOVHPD (R12)(R14*1), X10, X10; \
	VMOVHPD (R13)(R14*1), X14, X14; \
	MOVQ    (FROM+48)(SP), R14;        \
	VMOVSD  (DI)(R14*1), X3;        \
	VMOVSD  (SI)(R14*1), X7;        \
	VMOVSD  (R12)(R14*1), X11;      \
	VMOVSD  (R13)(R14*1), X15;      \
	MOVQ    (FROM+56)(SP), R14;        \
	VMOVHPD (DI)(R14*1), X3, X3;    \
	VMOVHPD (SI)(R14*1), X7, X7;    \
	VMOVHPD (R12)(R14*1), X11, X11; \
	VMOVHPD (R13)(R14*1), X15, X15

#define MOVE(loop, done) \
	MOVQ  MOVES, CX;              \
	TESTQ CX, CX;                 \
	JZ    done;                   \
	loop:                        \
	MOVQ  (DST-8)(SP)(CX*8), R14; \
	MOVQ  (SRC-8)(SP)(CX*8), R15; \
	MOVQ  (DI)(R15*1), DX;        \
	MOVQ  DX, (DI)(R14*1);        \
	MOVQ  (SI)(R15*1), DX;        \
	MOVQ  DX, (SI)(R14*1);        \
	MOVQ  (R12)(R15*1), DX;       \
	MOVQ  DX, (R12)(R14*1);       \
	MOVQ  (R13)(R15*1), DX;       \
	MOVQ  DX, (R13)(R14*1);       \
	DECQ  CX;                     \
	JNZ   loop;                   \
	done:

// The U block row, four columns at a time: column c's first eight rows are
// Y(2c) and Y(2c+1). ELIM takes the multiple of column q of the unit lower
// triangle (its two halves in Y8 and Y9) that entry q of a column — lane of
// its half src — calls for out of the rows below q. ELIMT is the form for q
// in the upper half, ELIMB for q in the lower, ELIM3 for q = 3, where the
// upper half is done and the lower needs no mask.
#define ELIMT(lane, keep, top, bot) \
	VPERMPD      lane, top, Y10;      \
	VMOVAPD      top, Y11;            \
	VFNMADD231PD Y8, Y10, Y11;        \
	VBLENDPD     keep, Y11, top, top; \
	VFNMADD231PD Y9, Y10, bot

#define ELIM3(top, bot) \
	VPERMPD      $0xFF, top, Y10; \
	VFNMADD231PD Y9, Y10, bot

#define ELIMB(lane, keep, bot) \
	VPERMPD      lane, bot, Y10;      \
	VMOVAPD      bot, Y11;            \
	VFNMADD231PD Y9, Y10, Y11;        \
	VBLENDPD     keep, Y11, bot, bot

// ROUND is one k-step of an 8×4 tile of the trailing update: the tile in
// Y0..Y7 loses column k of the eight rows of L at SI times row k of the four
// columns of U at DI.
#define ROUND(k8, a0, a1) \
	VMOVUPD      a0, Y8;            \
	VMOVUPD      a1, Y9;            \
	VBROADCASTSD k8(DI), Y10;       \
	VFNMADD231PD Y10, Y8, Y0;       \
	VFNMADD231PD Y10, Y9, Y1;       \
	VBROADCASTSD k8(DI)(R8*1), Y11; \
	VFNMADD231PD Y11, Y8, Y2;       \
	VFNMADD231PD Y11, Y9, Y3;       \
	VBROADCASTSD k8(DI)(R8*2), Y12; \
	VFNMADD231PD Y12, Y8, Y4;       \
	VFNMADD231PD Y12, Y9, Y5;       \
	VBROADCASTSD k8(DI)(R9*1), Y13; \
	VFNMADD231PD Y13, Y8, Y6;       \
	VFNMADD231PD Y13, Y9, Y7

#define LOAD4(B) \
	VMOVUPD (B), Y0;         \
	VMOVUPD 32(B), Y1;       \
	VMOVUPD (B)(R8*1), Y2;   \
	VMOVUPD 32(B)(R8*1), Y3; \
	VMOVUPD (B)(R8*2), Y4;   \
	VMOVUPD 32(B)(R8*2), Y5; \
	VMOVUPD (B)(R9*1), Y6;   \
	VMOVUPD 32(B)(R9*1), Y7

#define STORE4(B) \
	VMOVUPD Y0, (B);         \
	VMOVUPD Y1, 32(B);       \
	VMOVUPD Y2, (B)(R8*1);   \
	VMOVUPD Y3, 32(B)(R8*1); \
	VMOVUPD Y4, (B)(R8*2);   \
	VMOVUPD Y5, 32(B)(R8*2); \
	VMOVUPD Y6, (B)(R9*1);   \
	VMOVUPD Y7, 32(B)(R9*1)

// func dluStep8(nl, m, nr int, a []float64, lda int, ipiv []int) int
//
// One step of the small LU (Small.LUStep) with a full block: the row block at
// a has m rows, a multiple of 8 between 8 and 256, and nl + 8 + nr columns lda
// apart, nr a multiple of 4; ipiv has eight entries.
//
// The panel is factored a column at a time in place. Step j exchanges row j
// with the pivot's, scales column j below the diagonal and takes its
// multiples out of the columns after it, four rows to a vector — the rows of
// the diagonal block under lane masks, so that nothing above row j is
// touched — in two passes: the first does the column after j and, while it
// goes by, looks for the largest entry in it, so the next pivot is known
// before the second has done the rest. Then the columns on the left take the
// eight interchanges, as one permutation, four columns at a time; and the
// columns on the right, four at a time, take it on the way into registers,
// are solved there against the unit lower triangle — their first eight rows
// are the block row of U — and lose the panel's product with those rows, in
// tiles of eight rows whose multipliers are broadcast from the rows of U
// just stored.
//
// Registers: AX the panel, R8 lda in bytes, R9/R10/R11 3·, 5·, 7· that,
// CX m and, once the panel is done, a counter of moves, R15 ipiv, BX the
// pivot's row or the columns left to do, SI the pivot's row, the second
// column of four or the rows of L, DI a column, DX a strip, R12..R14 scratch
// or the third and fourth column, Y15 the mask of |x|.
TEXT ·dluStep8(SB), 0, $2328-88
	MOVQ    a_base+24(FP), AX
	MOVQ    lda+48(FP), R8
	MOVQ    nl+0(FP), DX
	IMULQ   R8, DX
	LEAQ    (AX)(DX*8), AX
	SHLQ    $3, R8
	LEAQ    (R8)(R8*2), R9
	LEAQ    (R8)(R8*4), R10
	LEAQ    (R9)(R8*4), R11
	MOVQ    m+8(FP), CX
	MOVQ    ipiv_base+56(FP), R15
	MOVQ    $0, INFO
	LEAQ    -8(CX), DX
	SHRQ    $3, DX
	MOVQ    DX, TILES
	VMOVUPD luAbs<>(SB), Y15

	// The first pivot has a search of its own.
	SEARCH(0)
	MOVQ CX, BX
	SHRQ $2, BX
	MOVQ AX, DX

lusearch:
	VMOVUPD (DX), Y4
	TRACK
	ADDQ    $32, DX
	DECQ    BX
	JNZ     lusearch
	FOUND((AX), $0)

	PIVOT(0, 0(AX), lunormal0, luscaled0)
	VBROADCASTSD 0(AX)(R8*1), Y8
	SEARCH(0)
	FIRSTM0(0, $0x0E, $0x01)
	FIRST0(32, AX)
	BELOW(FIRST0, lufirst0, lufound0)
	FOUND(8(AX)(R8*1), $1)
	MULT0
	RESTM0(0, $0x0E)
	REST0(32, AX)
	BELOW(REST0, lurest0, lunext0)

	PIVOT(1, 8(AX)(R8*1), lunormal1, luscaled1)
	VBROADCASTSD 8(AX)(R8*2), Y8
	SEARCH(0)
	FIRSTM1(0, $0x0C, $0x03)
	FIRST1(32, AX)
	BELOW(FIRST1, lufirst1, lufound1)
	FOUND(16(AX)(R8*2), $2)
	MULT1
	RESTM1(0, $0x0C)
	REST1(32, AX)
	BELOW(REST1, lurest1, lunext1)

	PIVOT(2, 16(AX)(R8*2), lunormal2, luscaled2)
	VBROADCASTSD 16(AX)(R9*1), Y8
	SEARCH(0)
	FIRSTM2(0, $0x08, $0x07)
	FIRST2(32, AX)
	BELOW(FIRST2, lufirst2, lufound2)
	FOUND(24(AX)(R9*1), $3)
	MULT2
	RESTM2(0, $0x08)
	REST2(32, AX)
	BELOW(REST2, lurest2, lunext2)

	PIVOT(3, 24(AX)(R9*1), lunormal3, luscaled3)
	VBROADCASTSD 24(AX)(R8*4), Y8
	SEARCH(32)
	FIRST3(32, AX)
	BELOW(FIRST3, lufirst3, lufound3)
	FOUND(32(AX)(R8*4), $4)
	MULT3
	REST3(32, AX)
	BELOW(REST3, lurest3, lunext3)

	PIVOT(4, 32(AX)(R8*4), lunormal4, luscaled4)
	VBROADCASTSD 32(AX)(R10*1), Y8
	SEARCH(32)
	FIRSTM4(32, $0x0E, $0x01)
	BELOW(FIRST4, lufirst4, lufound4)
	FOUND(40(AX)(R10*1), $5)
	MULT4
	RESTM4(32, $0x0E)
	BELOW(REST4, lurest4, lunext4)

	PIVOT(5, 40(AX)(R10*1), lunormal5, luscaled5)
	VBROADCASTSD 40(AX)(R9*2), Y8
	SEARCH(32)
	FIRSTM5(32, $0x0C, $0x03)
	BELOW(FIRST5, lufirst5, lufound5)
	FOUND(48(AX)(R9*2), $6)
	MULT5
	RESTM5(32, $0x0C)
	BELOW(REST5, lurest5, lunext5)

	PIVOT(6, 48(AX)(R9*2), lunormal6, luscaled6)
	VBROADCASTSD 48(AX)(R11*1), Y8
	SEARCH(32)
	FIRSTM6(32, $0x08, $0x07)

	// With no rows under the diagonal block — the last block of a square
	// matrix — the last pivot is the last row's only entry.
	CMPQ CX, $8
	JEQ  lulast
	BELOW(FIRST6, lufirst6, lufound6)
	FOUND(56(AX)(R11*1), $7)

	PIVOT(7, 56(AX)(R11*1), lunormal7, luscaled7)
	BELOW(FIRST7, lufirst7, lufound7)

	// With columns on either side, the interchanges as one permutation: the
	// rows they touch are where they were, to begin with, and then they are
	// played in order.
lupermute:
	MOVQ nl+0(FP), BX
	ADDQ nr+16(FP), BX
	JZ   ludone
	XORQ DX, DX

lufrom:
	MOVQ DX, FROM(SP)(DX*1)
	MOVQ (SP)(DX*1), R12
	MOVQ R12, FROM(SP)(R12*1)
	ADDQ $8, DX
	CMPQ DX, $64
	JLT  lufrom
	XORQ DX, DX

luplay:
	MOVQ (SP)(DX*1), R12
	MOVQ FROM(SP)(DX*1), R13
	MOVQ FROM(SP)(R12*1), R14
	MOVQ R14, FROM(SP)(DX*1)
	MOVQ R13, FROM(SP)(R12*1)
	ADDQ $8, DX
	CMPQ DX, $64
	JLT  luplay

	// A pivot's row under the eighth is a move; one among the first eight
	// is overwritten by the next entry of the list.
	XORQ DX, DX
	XORQ R13, R13

lulist:
	MOVQ (SP)(R13*1), R12
	MOVQ FROM(SP)(R12*1), R14
	MOVQ R12, DST(SP)(DX*8)
	MOVQ R14, SRC(SP)(DX*8)
	CMPQ R12, $64
	SBBQ $-1, DX
	ADDQ $8, R13
	CMPQ R13, $64
	JLT  lulist
	MOVQ DX, MOVES

	// The columns on the left, four at a time.
	MOVQ  nl+0(FP), BX
	TESTQ BX, BX
	JZ    luright
	MOVQ  a_base+24(FP), DI

luleft:
	FOUR
	GATHER
	MOVE(lulmove, lulmoved)
	VMOVUPD X0, 0(DI)
	VMOVUPD X1, 16(DI)
	VMOVUPD X2, 32(DI)
	VMOVUPD X3, 48(DI)
	VMOVUPD X4, 0(SI)
	VMOVUPD X5, 16(SI)
	VMOVUPD X6, 32(SI)
	VMOVUPD X7, 48(SI)
	VMOVUPD X8, 0(R12)
	VMOVUPD X9, 16(R12)
	VMOVUPD X10, 32(R12)
	VMOVUPD X11, 48(R12)
	VMOVUPD X12, 0(R13)
	VMOVUPD X13, 16(R13)
	VMOVUPD X14, 32(R13)
	VMOVUPD X15, 48(R13)
	LEAQ (DI)(R8*4), DI
	SUBQ $4, BX
	JG   luleft

	// The columns on the right, four at a time: permuted, their first eight
	// rows — the block row of U — solved in registers, and the rows under
	// those reduced.
luright:
	MOVQ  nr+16(FP), BX
	TESTQ BX, BX
	JZ    ludone
	LEAQ  (AX)(R8*8), DI

lugroup:
	FOUR
	GATHER
	MOVE(lurmove, lurmoved)
	VINSERTF128 $1, X1, Y0, Y0
	VINSERTF128 $1, X3, Y2, Y1
	VINSERTF128 $1, X5, Y4, Y2
	VINSERTF128 $1, X7, Y6, Y3
	VINSERTF128 $1, X9, Y8, Y4
	VINSERTF128 $1, X11, Y10, Y5
	VINSERTF128 $1, X13, Y12, Y6
	VINSERTF128 $1, X15, Y14, Y7
	VMOVUPD 0(AX), Y8
	VMOVUPD 32(AX), Y9
	ELIMT($0x00, $0x0E, Y0, Y1)
	ELIMT($0x00, $0x0E, Y2, Y3)
	ELIMT($0x00, $0x0E, Y4, Y5)
	ELIMT($0x00, $0x0E, Y6, Y7)
	VMOVUPD 0(AX)(R8*1), Y8
	VMOVUPD 32(AX)(R8*1), Y9
	ELIMT($0x55, $0x0C, Y0, Y1)
	ELIMT($0x55, $0x0C, Y2, Y3)
	ELIMT($0x55, $0x0C, Y4, Y5)
	ELIMT($0x55, $0x0C, Y6, Y7)
	VMOVUPD 0(AX)(R8*2), Y8
	VMOVUPD 32(AX)(R8*2), Y9
	ELIMT($0xAA, $0x08, Y0, Y1)
	ELIMT($0xAA, $0x08, Y2, Y3)
	ELIMT($0xAA, $0x08, Y4, Y5)
	ELIMT($0xAA, $0x08, Y6, Y7)
	VMOVUPD 32(AX)(R9*1), Y9
	ELIM3(Y0, Y1)
	ELIM3(Y2, Y3)
	ELIM3(Y4, Y5)
	ELIM3(Y6, Y7)
	VMOVUPD 32(AX)(R8*4), Y9
	ELIMB($0x00, $0x0E, Y1)
	ELIMB($0x00, $0x0E, Y3)
	ELIMB($0x00, $0x0E, Y5)
	ELIMB($0x00, $0x0E, Y7)
	VMOVUPD 32(AX)(R10*1), Y9
	ELIMB($0x55, $0x0C, Y1)
	ELIMB($0x55, $0x0C, Y3)
	ELIMB($0x55, $0x0C, Y5)
	ELIMB($0x55, $0x0C, Y7)
	VMOVUPD 32(AX)(R9*2), Y9
	ELIMB($0xAA, $0x08, Y1)
	ELIMB($0xAA, $0x08, Y3)
	ELIMB($0xAA, $0x08, Y5)
	ELIMB($0xAA, $0x08, Y7)
	STORE4(DI)

	// The rows below, eight to a tile.
	MOVQ  TILES, DX
	TESTQ DX, DX
	JZ    lunext
	LEAQ  64(AX), SI
	LEAQ  64(DI), R12

lutile:
	LOAD4(R12)
	ROUND(0, 0(SI), 32(SI))
	ROUND(8, 0(SI)(R8*1), 32(SI)(R8*1))
	ROUND(16, 0(SI)(R8*2), 32(SI)(R8*2))
	ROUND(24, 0(SI)(R9*1), 32(SI)(R9*1))
	ROUND(32, 0(SI)(R8*4), 32(SI)(R8*4))
	ROUND(40, 0(SI)(R10*1), 32(SI)(R10*1))
	ROUND(48, 0(SI)(R9*2), 32(SI)(R9*2))
	ROUND(56, 0(SI)(R11*1), 32(SI)(R11*1))
	STORE4(R12)
	ADDQ $64, SI
	ADDQ $64, R12
	DECQ DX
	JNZ  lutile

lunext:
	LEAQ (DI)(R8*4), DI
	SUBQ $4, BX
	JG   lugroup

ludone:
	MOVQ INFO, AX
	MOVQ AX, ret+80(FP)
	VZEROUPPER
	RET

	// The last pivot of a block with nothing under it.
lulast:
	MOVQ     $7, 56(R15)
	MOVQ     $56, PIV(7)
	VMOVSD   56(AX)(R11*1), X2
	VXORPD   X6, X6, X6
	VUCOMISD X6, X2
	JP       lupermute
	JNE      lupermute
	CMPQ     INFO, $0
	JNE      lupermute
	MOVQ     $8, INFO
	JMP      lupermute

	// A pivot X2 at DI, of column R14, that is zero, subnormal or NaN: zero
	// is what INFO reports, the first time, and divides nothing; the others
	// divide the column entry by entry. Either way the sweep goes on with a
	// multiplier of one.
luslow:
	VXORPD   X6, X6, X6
	VUCOMISD X6, X2
	JP       ludivide
	JNE      ludivide
	CMPQ     INFO, $0
	JNE      luone
	LEAQ     1(R14), R13
	MOVQ     R13, INFO
	JMP      luone

ludivide:
	MOVQ CX, R13
	SUBQ R14, R13
	DECQ R13
	JZ   luone

ludivloop:
	ADDQ   $8, DI
	VMOVSD (DI), X6
	VDIVSD X2, X6, X6
	VMOVSD X6, (DI)
	DECQ   R13
	JNZ    ludivloop

luone:
	VBROADCASTSD luOne<>(SB), Y2
	CMPQ   R14, $0
	JEQ    luscaled0
	CMPQ   R14, $1
	JEQ    luscaled1
	CMPQ   R14, $2
	JEQ    luscaled2
	CMPQ   R14, $3
	JEQ    luscaled3
	CMPQ   R14, $4
	JEQ    luscaled4
	CMPQ   R14, $5
	JEQ    luscaled5
	CMPQ   R14, $6
	JEQ    luscaled6
	JMP    luscaled7
