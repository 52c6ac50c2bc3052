//go:build amd64

#include "textflag.h"

// AVX-512 micro-kernels of the packed engine: a 24×8 tile of float64 or a
// 48×8 tile of float32 — three ZMM vectors of packed A per k-step against
// eight broadcast elements of packed B, 24 accumulators. The four entry
// points take the signatures of the kernel table's micro and edge leaves, so a
// row's entry is the kernel itself, and are one body, GEMM512, behind two
// prologues: a full tile sets the
// row masks K1..K3 to all ones and the column count to eight, a ragged tile
// derives them from its rows × cols. Every C(i,j) is therefore the same chain
// of fused multiply-adds over p, added to C once, whatever tile it falls in,
// and a masked lane is neither read nor written (EVEX fault suppression), so
// a ragged tile may end on the last element of its slice. Only AVX512F
// instructions are used.
//
// Register plan:
//   CX  k counter          SI packed A panel     DI packed B panel
//   DX  C column cursor    R8 ldc in bytes       R9 live columns
//   Z0..Z23   accumulators, three per C column
//   Z24..Z26  the current A step     Z27..Z31 broadcast B elements
//   K1..K3    live rows of the three vectors of a column
//
// The file also holds the float64 AVX-512 row's trsvOct leaf, dtrsvOct512:
// A·X = B in place for eight columns of B at a time, as 8×8 register tiles.
// For each block of eight rows of B — from the top for Lower, from the
// bottom for Upper — and each octet of columns (blocks outside, so that
// consecutive tiles are independent and the divisions of one overlap the
// folds of the next): load the tile, one column per register; fold in every
// row solved in earlier blocks, one FNMADD per column per row, in the sweep's
// order (ascending k for Lower, descending for Upper); transpose it
// (TRANSPOSE512, as the gather packers); solve the block's 8×8 triangle on
// the rows — divide the row by its broadcast diagonal, then FNMADD it into
// every row still to come; transpose back and store. A ragged block is
// loaded and stored under K1 and solved on a copy of its diagonal block
// padded to 8×8 (tail), whose padding lanes come after the real rows in the
// order of the solve, so they never feed one. dfold512 is the fold alone,
// for the Lower blocks of the complex128 1m row's leaf (trsvOct1e).
//
// Bit identity with the AVX2 row's sweep (trsvOctFma over dsubFma8): every
// element of B receives the same single-rounded FNMADDs c − x·a in the same
// order — the rows of earlier blocks by the fold, then the block's own by
// the solve — each with x as the first multiplicand and A as the second, so
// that of two NaNs the same payload wins; then the same IEEE division by the
// same diagonal (Unit: none). Only where the operations are issued changes.
//
//   R8  lda in bytes                   R10, R11  ldb, 3·ldb in bytes
//   SI  the block's first row (negative for Upper's ragged block)
//   DI  the octet's first column       BX  octets left
//   AX, DX, R12, CX  the fold: A(r0, k), B(k, 0), B(k, 4), steps left
//   R13, R14, CX, AX the solve: the diagonal block's columns 0 and 4, its
//            leading dimension and three times it in bytes
//   Z0..Z7   the tile's columns, then the solved rows
//   Z8..Z15  the tile's rows, then its solved columns
//   Z16..Z23 the fold's broadcast solved values, Z24 its A segment
//   K1       the block's live rows

// The macros come first and the entry points after them: go vet checks the
// argument names of every line against the TEXT symbol last seen, a macro's
// definition included.

// COL512 is one column of a k-step: broadcast B(p, j), three FMAs.
#define COL512(BCAST, FMA, OFF, ZB, A0, A1, A2) \
	BCAST OFF(DI), ZB; \
	FMA   ZB, Z24, A0; \
	FMA   ZB, Z25, A1; \
	FMA   ZB, Z26, A2

// OUT512 adds one column of accumulators to C under the row masks, provided
// more than J columns are live.
#define OUT512(ADD, MOV, J, A0, A1, A2) \
	CMPQ R9, $J; \
	JLE  done; \
	ADD  (DX), A0, K1, A0; \
	MOV  A0, K1, (DX); \
	ADD  64(DX), A1, K2, A1; \
	MOV  A1, K2, 64(DX); \
	ADD  128(DX), A2, K3, A2; \
	MOV  A2, K3, 128(DX); \
	ADDQ R8, DX

// GEMM512 is the kernel body over elements of ES bytes.
#define GEMM512(BCAST, FMA, ADD, MOV, ES) \
	VPXORQ Z0, Z0, Z0; \
	VPXORQ Z1, Z1, Z1; \
	VPXORQ Z2, Z2, Z2; \
	VPXORQ Z3, Z3, Z3; \
	VPXORQ Z4, Z4, Z4; \
	VPXORQ Z5, Z5, Z5; \
	VPXORQ Z6, Z6, Z6; \
	VPXORQ Z7, Z7, Z7; \
	VPXORQ Z8, Z8, Z8; \
	VPXORQ Z9, Z9, Z9; \
	VPXORQ Z10, Z10, Z10; \
	VPXORQ Z11, Z11, Z11; \
	VPXORQ Z12, Z12, Z12; \
	VPXORQ Z13, Z13, Z13; \
	VPXORQ Z14, Z14, Z14; \
	VPXORQ Z15, Z15, Z15; \
	VPXORQ Z16, Z16, Z16; \
	VPXORQ Z17, Z17, Z17; \
	VPXORQ Z18, Z18, Z18; \
	VPXORQ Z19, Z19, Z19; \
	VPXORQ Z20, Z20, Z20; \
	VPXORQ Z21, Z21, Z21; \
	VPXORQ Z22, Z22, Z22; \
	VPXORQ Z23, Z23, Z23; \
loop: \
	MOV  (SI), Z24; \
	MOV  64(SI), Z25; \
	MOV  128(SI), Z26; \
	COL512(BCAST, FMA, (0*ES), Z27, Z0, Z1, Z2); \
	COL512(BCAST, FMA, (1*ES), Z28, Z3, Z4, Z5); \
	COL512(BCAST, FMA, (2*ES), Z29, Z6, Z7, Z8); \
	COL512(BCAST, FMA, (3*ES), Z30, Z9, Z10, Z11); \
	COL512(BCAST, FMA, (4*ES), Z31, Z12, Z13, Z14); \
	COL512(BCAST, FMA, (5*ES), Z27, Z15, Z16, Z17); \
	COL512(BCAST, FMA, (6*ES), Z28, Z18, Z19, Z20); \
	COL512(BCAST, FMA, (7*ES), Z29, Z21, Z22, Z23); \
	ADDQ $192, SI; \
	ADDQ $(8*ES), DI; \
	DECQ CX; \
	JNZ  loop; \
	OUT512(ADD, MOV, 0, Z0, Z1, Z2); \
	OUT512(ADD, MOV, 1, Z3, Z4, Z5); \
	OUT512(ADD, MOV, 2, Z6, Z7, Z8); \
	OUT512(ADD, MOV, 3, Z9, Z10, Z11); \
	OUT512(ADD, MOV, 4, Z12, Z13, Z14); \
	OUT512(ADD, MOV, 5, Z15, Z16, Z17); \
	OUT512(ADD, MOV, 6, Z18, Z19, Z20); \
	OUT512(ADD, MOV, 7, Z21, Z22, Z23); \
done: \
	VZEROUPPER; \
	RET

// FULL512 is the prologue of a full tile, (kb int, ap, bp, c []T, ldc int):
// the kernel table's micro entry as it stands. LOGES is log2 of the element
// size.
#define FULL512(LOGES) \
	MOVQ   kb+0(FP), CX; \
	MOVQ   ap_base+8(FP), SI; \
	MOVQ   bp_base+32(FP), DI; \
	MOVQ   c_base+56(FP), DX; \
	MOVQ   ldc+80(FP), R8; \
	SHLQ   $LOGES, R8; \
	KXNORW K1, K1, K1; \
	KXNORW K2, K2, K2; \
	KXNORW K3, K3, K3; \
	MOVQ   $8, R9

// MASKS512 sets KA, KB, KC to bits [0, LANES), [LANES, 2·LANES) and
// [2·LANES, 3·LANES) of 2^n − 1, n in CX: the live lanes of three vectors,
// LANES wide, that hold n elements between them (a mask's bits beyond the
// vector width are ignored). Clobbers AX.
#define MASKS512(LANES, KA, KB, KC) \
	MOVQ  $1, AX; \
	SHLQ  CX, AX; \
	DECQ  AX; \
	KMOVW AX, KA; \
	SHRQ  $LANES, AX; \
	KMOVW AX, KB; \
	SHRQ  $LANES, AX; \
	KMOVW AX, KC

// EDGE512 is the prologue of a ragged tile, the table's edge entry as it
// stands: (kb, mr, nr int, ap, bp, c []T, ldc, rows, cols int, tile []T), of
// which mr, nr and the scratch tile are not looked at.
#define EDGE512(LOGES, LANES) \
	MOVQ cols+112(FP), R9; \
	MOVQ rows+104(FP), CX; \
	MASKS512(LANES, K1, K2, K3); \
	MOVQ kb+0(FP), CX; \
	MOVQ ap_base+24(FP), SI; \
	MOVQ bp_base+48(FP), DI; \
	MOVQ c_base+72(FP), DX; \
	MOVQ ldc+96(FP), R8; \
	SHLQ $LOGES, R8

// The pack kernels of the AVX-512 rows. Like the micro-kernels they exist
// once, as a macro body over the element size, and use AVX512F only.

// PACK512 copies kb runs of `rows` elements, lds apart, to runs of mr
// elements, each scaled by alpha and padded with +0 from rows to mr: packA of a
// NoTrans operand (mr = the tile height, three vectors) and packB of a
// transposed one (mr = 8, one vector).
#define PACK512(BCAST, MUL, MOV, LOGES, LANES) \
	BCAST alpha+8(FP), Z3; \
	MOVQ  src_base+16(FP), SI; \
	MOVQ  lds+40(FP), R8; \
	SHLQ  $LOGES, R8; \
	MOVQ  dst_base+48(FP), DI; \
	MOVQ  rows+72(FP), CX; \
	MASKS512(LANES, K1, K2, K3); \
	MOVQ  mr+80(FP), CX; \
	MASKS512(LANES, K4, K5, K6); \
	MOVQ  CX, R9; \
	SHLQ  $LOGES, R9; \
	CMPQ  CX, $LANES; \
	MOVQ  kb+0(FP), CX; \
	JLE   one; \
three: \
	MOV.Z (SI), K1, Z0; \
	MOV.Z 64(SI), K2, Z1; \
	MOV.Z 128(SI), K3, Z2; \
	MUL.Z Z3, Z0, K1, Z0; \
	MUL.Z Z3, Z1, K2, Z1; \
	MUL.Z Z3, Z2, K3, Z2; \
	MOV   Z0, K4, (DI); \
	MOV   Z1, K5, 64(DI); \
	MOV   Z2, K6, 128(DI); \
	ADDQ  R8, SI; \
	ADDQ  R9, DI; \
	DECQ  CX; \
	JNZ   three; \
	VZEROUPPER; \
	RET; \
one: \
	MOV.Z (SI), K1, Z0; \
	MUL.Z Z3, Z0, K1, Z0; \
	MOV   Z0, K4, (DI); \
	ADDQ  R8, SI; \
	ADDQ  R9, DI; \
	DECQ  CX; \
	JNZ   one; \
	VZEROUPPER; \
	RET

// TRANSPOSE512 transposes the 8×8 matrix of 64-bit units whose rows are
// Z0..Z7 into Z8..Z15 (Z16..Z27 are scratch): unit u of output row i is unit
// i of input row u. Interleave pairs of units within the 128-bit lanes, then
// gather lanes twice.
#define TRANSPOSE512 \
	VUNPCKLPD  Z1, Z0, Z16; \
	VUNPCKHPD  Z1, Z0, Z17; \
	VUNPCKLPD  Z3, Z2, Z18; \
	VUNPCKHPD  Z3, Z2, Z19; \
	VUNPCKLPD  Z5, Z4, Z20; \
	VUNPCKHPD  Z5, Z4, Z21; \
	VUNPCKLPD  Z7, Z6, Z22; \
	VUNPCKHPD  Z7, Z6, Z23; \
	VSHUFF64X2 $0x88, Z18, Z16, Z24; \
	VSHUFF64X2 $0xdd, Z18, Z16, Z25; \
	VSHUFF64X2 $0x88, Z22, Z20, Z26; \
	VSHUFF64X2 $0xdd, Z22, Z20, Z27; \
	VSHUFF64X2 $0x88, Z26, Z24, Z8; \
	VSHUFF64X2 $0xdd, Z26, Z24, Z12; \
	VSHUFF64X2 $0x88, Z27, Z25, Z10; \
	VSHUFF64X2 $0xdd, Z27, Z25, Z14; \
	VSHUFF64X2 $0x88, Z19, Z17, Z24; \
	VSHUFF64X2 $0xdd, Z19, Z17, Z25; \
	VSHUFF64X2 $0x88, Z23, Z21, Z26; \
	VSHUFF64X2 $0xdd, Z23, Z21, Z27; \
	VSHUFF64X2 $0x88, Z26, Z24, Z9; \
	VSHUFF64X2 $0xdd, Z26, Z24, Z13; \
	VSHUFF64X2 $0x88, Z27, Z25, Z11; \
	VSHUFF64X2 $0xdd, Z27, Z25, Z15

// GATHERARGS512 loads the arguments of the gather kernels: SI/BX columns 0
// and 4 of src, R8/R10 one and three column strides, DI the destination, R9
// its row stride in bytes, CX the row count, Z31 alpha.
#define GATHERARGS512(BCAST, LOGES) \
	MOVQ  kb+0(FP), CX; \
	BCAST alpha+8(FP), Z31; \
	MOVQ  src_base+16(FP), SI; \
	MOVQ  lds+40(FP), R8; \
	SHLQ  $LOGES, R8; \
	LEAQ  (R8)(R8*2), R10; \
	LEAQ  (SI)(R8*4), BX; \
	MOVQ  dst_base+48(FP), DI; \
	MOVQ  ld+72(FP), R9; \
	SHLQ  $LOGES, R9; \
	KXNORW K1, K1, K1

// GATHERLOAD512 loads the next vector of each of the eight columns under K1,
// zero beyond it, and transposes them.
#define GATHERLOAD512(MOV) \
	MOV.Z (SI), K1, Z0; \
	MOV.Z (SI)(R8*1), K1, Z1; \
	MOV.Z (SI)(R8*2), K1, Z2; \
	MOV.Z (SI)(R10*1), K1, Z3; \
	MOV.Z (BX), K1, Z4; \
	MOV.Z (BX)(R8*1), K1, Z5; \
	MOV.Z (BX)(R8*2), K1, Z6; \
	MOV.Z (BX)(R10*1), K1, Z7; \
	TRANSPOSE512; \
	ADDQ  $64, SI; \
	ADDQ  $64, BX

// DROW512 stores one float64 output row and leaves when it was row CX − 1.
#define DROW512(ZR, N) \
	VMULPD  Z31, ZR, ZR; \
	VMOVUPD ZR, (DI); \
	ADDQ    R9, DI; \
	CMPQ    CX, $N; \
	JE      done

// SROWS512 stores the two float32 output rows of one vector, the second
// through a store displaced by half a vector whose low lanes are masked off,
// and leaves after row CX − 1.
#define SROWS512(ZR, N) \
	VPERMPS ZR, Z30, ZR; \
	VMULPS  Z31, ZR, ZR; \
	VMOVUPS ZR, K2, (DI); \
	ADDQ    R9, DI; \
	CMPQ    CX, $(2*N+1); \
	JE      done; \
	VMOVUPS ZR, K3, -32(DI); \
	ADDQ    R9, DI; \
	CMPQ    CX, $(2*N+2); \
	JE      done

// The 1m pack kernels of the complex AVX-512 rows (pack512.go), over the real
// views: c128 is float64 pairs, c64 float32 pairs. A is packed in 1e form —
// per complex k-step a run [tr, ti, …] of alpha·op(A) and, 192 bytes (three
// vectors) further, the run [−ti, tr, …] — into panels of 384 bytes per
// k-step; B in 1r form. They are the Go packers packA1m and packB1m bit for
// bit: the same products, each rounded, then one add (never an FMA).

// SETUP1E finishes the constants of EXPAND1E: Z28 holds ar and Z29 ai
// broadcast, Z30 the sign bit in every lane; K7 becomes the even (real)
// lanes and Z29 [−ai, ai, …]. Clobbers AX.
#define SETUP1E(XOR) \
	MOVQ  $0x5555, AX; \
	KMOVW AX, K7; \
	XOR   Z30, Z29, K7, Z29

// EXPAND1E writes the 1e pair of the complex values [vr, vi, …] in V, live
// in the lanes of K (KE: the live even lanes): [ar·vr − ai·vi, ar·vi + ai·vr]
// at OFF(DI) as the sum of the rounded products V·ar and swap(V)·[−ai, ai],
// and that run with its pairs swapped and its real lanes negated at
// 192+OFF(DI). Dead lanes are +0 in both. Clobbers Z16, Z17.
#define EXPAND1E(MUL, ADD, MOV, XOR, PERM, IMM, V, K, KE, OFF) \
	PERM  $IMM, V, Z16; \
	MUL.Z Z28, V, K, V; \
	MUL.Z Z29, Z16, K, Z16; \
	ADD   Z16, V, V; \
	MOV   V, OFF(DI); \
	PERM  $IMM, V, Z17; \
	XOR   Z30, Z17, KE, Z17; \
	MOV   Z17, (192+OFF)(DI)

// PACK1E packs kb complex k-steps of a NoTrans A, each a run of `rows` reals
// (twice the complex rows, at most three vectors) lds apart, into 1e steps.
#define PACK1E(MUL, ADD, MOV, XOR, PERM, IMM, LOGES, LANES) \
	SETUP1E(XOR); \
	MOVQ  src_base+8(FP), SI; \
	MOVQ  lds+32(FP), R8; \
	SHLQ  $LOGES, R8; \
	MOVQ  dst_base+40(FP), DI; \
	MOVQ  rows+64(FP), CX; \
	MASKS512(LANES, K1, K2, K3); \
	KANDW K1, K7, K4; \
	KANDW K2, K7, K5; \
	KANDW K3, K7, K6; \
	MOVQ  kb+0(FP), CX; \
loop1e: \
	MOV.Z (SI), K1, Z0; \
	MOV.Z 64(SI), K2, Z1; \
	MOV.Z 128(SI), K3, Z2; \
	EXPAND1E(MUL, ADD, MOV, XOR, PERM, IMM, Z0, K1, K4, 0); \
	EXPAND1E(MUL, ADD, MOV, XOR, PERM, IMM, Z1, K2, K5, 64); \
	EXPAND1E(MUL, ADD, MOV, XOR, PERM, IMM, Z2, K3, K6, 128); \
	ADDQ  R8, SI; \
	ADDQ  $384, DI; \
	DECQ  CX; \
	JNZ   loop1e; \
	VZEROUPPER; \
	RET

// GATHER1EARGS loads the arguments of the transposing 1e kernels: SI the
// first source column, R8 the column stride in bytes, DI the destination, AX
// the live column count (rows of op(A)), K2 the lanes they fill (two per
// complex value) and K3 the even ones among them, K6 the odd (imaginary)
// lanes, K1 all ones. Needs K7 from SETUP1E.
#define GATHER1EARGS(LOGES) \
	MOVQ   src_base+8(FP), SI; \
	MOVQ   lds+32(FP), R8; \
	SHLQ   $LOGES, R8; \
	MOVQ   dst_base+40(FP), DI; \
	MOVQ   cols+64(FP), CX; \
	SHLQ   $1, CX; \
	MOVQ   $1, AX; \
	SHLQ   CX, AX; \
	DECQ   AX; \
	KMOVW  AX, K2; \
	KANDW  K2, K7, K3; \
	MOVQ   $0xaaaa, AX; \
	KMOVW  AX, K6; \
	KXNORW K1, K1, K1; \
	MOVQ   cols+64(FP), AX

// KTAIL sets K1 to the lanes of the last CX < one vector's complex k-steps.
// Clobbers AX and R8.
#define KTAIL \
	MOVQ  CX, R8; \
	SHLQ  $1, CX; \
	MOVQ  $1, AX; \
	SHLQ  CX, AX; \
	DECQ  AX; \
	KMOVW AX, K1; \
	MOVQ  R8, CX

// The substitution tile of the float64 AVX-512 row's trsvOct leaf
// (dtrsvOct512, header above). FOLD512 folds one solved row k into the
// tile: the A segment A(r0:r0+8, k) at AX under K1 (zero beyond it) and the
// eight solved values X(k, q) at DX and R12 broadcast, then one
// fused negate-multiply-add per column — X as the first multiplicand and A
// as the second, as in dsubFma8, so that even a NaN's payload is the sweep's
// — and steps to row k ± 1 (ADD = ADDQ or SUBQ).
#define FOLD512(ADD) \
	VMOVUPD.Z    (AX), K1, Z24; \
	VBROADCASTSD (DX), Z16; \
	VBROADCASTSD (DX)(R10*1), Z17; \
	VBROADCASTSD (DX)(R10*2), Z18; \
	VBROADCASTSD (DX)(R11*1), Z19; \
	VBROADCASTSD (R12), Z20; \
	VBROADCASTSD (R12)(R10*1), Z21; \
	VBROADCASTSD (R12)(R10*2), Z22; \
	VBROADCASTSD (R12)(R11*1), Z23; \
	VFNMADD231PD Z24, Z16, Z0; \
	VFNMADD231PD Z24, Z17, Z1; \
	VFNMADD231PD Z24, Z18, Z2; \
	VFNMADD231PD Z24, Z19, Z3; \
	VFNMADD231PD Z24, Z20, Z4; \
	VFNMADD231PD Z24, Z21, Z5; \
	VFNMADD231PD Z24, Z22, Z6; \
	VFNMADD231PD Z24, Z23, Z7; \
	ADD          R8, AX; \
	ADD          $8, DX; \
	ADD          $8, R12

// LOADTILE512 loads the tile's eight columns at DX and R12 into Z0..Z7,
// STORETILE512 stores them from T0..T7, both under the live rows K1.
#define LOADTILE512 \
	VMOVUPD.Z (DX), K1, Z0; \
	VMOVUPD.Z (DX)(R10*1), K1, Z1; \
	VMOVUPD.Z (DX)(R10*2), K1, Z2; \
	VMOVUPD.Z (DX)(R11*1), K1, Z3; \
	VMOVUPD.Z (R12), K1, Z4; \
	VMOVUPD.Z (R12)(R10*1), K1, Z5; \
	VMOVUPD.Z (R12)(R10*2), K1, Z6; \
	VMOVUPD.Z (R12)(R11*1), K1, Z7

#define STORETILE512(T0, T1, T2, T3, T4, T5, T6, T7) \
	VMOVUPD T0, K1, (DX); \
	VMOVUPD T1, K1, (DX)(R10*1); \
	VMOVUPD T2, K1, (DX)(R10*2); \
	VMOVUPD T3, K1, (DX)(R11*1); \
	VMOVUPD T4, K1, (R12); \
	VMOVUPD T5, K1, (R12)(R10*1); \
	VMOVUPD T6, K1, (R12)(R10*2); \
	VMOVUPD T7, K1, (R12)(R11*1)

// PIVOTN and PIVOTU finish a row of the block once it has every update:
// NonUnit divides it by its broadcast diagonal entry at OFF — the sweep's
// IEEE division — into its output register, Unit moves it there.
#define PIVOTN(ROW, OUT, OFF) VDIVPD.BCST OFF, ROW, OUT
#define PIVOTU(ROW, OUT, OFF) VMOVAPD ROW, OUT

// ELIM512 subtracts A(I, J)·X(J, :) from row I, A(I, J) broadcast from OFF.
#define ELIM512(OFF, X, ROW) VFNMADD231PD.BCST OFF, X, ROW

// SOLVEL512 and SOLVEU512 solve the diagonal block on its transposed rows
// Z8..Z15 into Z0..Z7: forward for Lower, backward for Upper, each row
// pivoted once every earlier row has been eliminated from it in the sweep's
// order. The block's columns 0..3 are R13 + {0, 1, 2, 3}·CX (AX = 3·CX),
// 4..7 the same from R14.
#define SOLVEL512(PIVOT) \
	PIVOT(Z8, Z0, 0(R13)); \
	ELIM512(8(R13), Z0, Z9); \
	ELIM512(16(R13), Z0, Z10); \
	ELIM512(24(R13), Z0, Z11); \
	ELIM512(32(R13), Z0, Z12); \
	ELIM512(40(R13), Z0, Z13); \
	ELIM512(48(R13), Z0, Z14); \
	ELIM512(56(R13), Z0, Z15); \
	PIVOT(Z9, Z1, 8(R13)(CX*1)); \
	ELIM512(16(R13)(CX*1), Z1, Z10); \
	ELIM512(24(R13)(CX*1), Z1, Z11); \
	ELIM512(32(R13)(CX*1), Z1, Z12); \
	ELIM512(40(R13)(CX*1), Z1, Z13); \
	ELIM512(48(R13)(CX*1), Z1, Z14); \
	ELIM512(56(R13)(CX*1), Z1, Z15); \
	PIVOT(Z10, Z2, 16(R13)(CX*2)); \
	ELIM512(24(R13)(CX*2), Z2, Z11); \
	ELIM512(32(R13)(CX*2), Z2, Z12); \
	ELIM512(40(R13)(CX*2), Z2, Z13); \
	ELIM512(48(R13)(CX*2), Z2, Z14); \
	ELIM512(56(R13)(CX*2), Z2, Z15); \
	PIVOT(Z11, Z3, 24(R13)(AX*1)); \
	ELIM512(32(R13)(AX*1), Z3, Z12); \
	ELIM512(40(R13)(AX*1), Z3, Z13); \
	ELIM512(48(R13)(AX*1), Z3, Z14); \
	ELIM512(56(R13)(AX*1), Z3, Z15); \
	PIVOT(Z12, Z4, 32(R14)); \
	ELIM512(40(R14), Z4, Z13); \
	ELIM512(48(R14), Z4, Z14); \
	ELIM512(56(R14), Z4, Z15); \
	PIVOT(Z13, Z5, 40(R14)(CX*1)); \
	ELIM512(48(R14)(CX*1), Z5, Z14); \
	ELIM512(56(R14)(CX*1), Z5, Z15); \
	PIVOT(Z14, Z6, 48(R14)(CX*2)); \
	ELIM512(56(R14)(CX*2), Z6, Z15); \
	PIVOT(Z15, Z7, 56(R14)(AX*1))

#define SOLVEU512(PIVOT) \
	PIVOT(Z15, Z7, 56(R14)(AX*1)); \
	ELIM512(0(R14)(AX*1), Z7, Z8); \
	ELIM512(8(R14)(AX*1), Z7, Z9); \
	ELIM512(16(R14)(AX*1), Z7, Z10); \
	ELIM512(24(R14)(AX*1), Z7, Z11); \
	ELIM512(32(R14)(AX*1), Z7, Z12); \
	ELIM512(40(R14)(AX*1), Z7, Z13); \
	ELIM512(48(R14)(AX*1), Z7, Z14); \
	PIVOT(Z14, Z6, 48(R14)(CX*2)); \
	ELIM512(0(R14)(CX*2), Z6, Z8); \
	ELIM512(8(R14)(CX*2), Z6, Z9); \
	ELIM512(16(R14)(CX*2), Z6, Z10); \
	ELIM512(24(R14)(CX*2), Z6, Z11); \
	ELIM512(32(R14)(CX*2), Z6, Z12); \
	ELIM512(40(R14)(CX*2), Z6, Z13); \
	PIVOT(Z13, Z5, 40(R14)(CX*1)); \
	ELIM512(0(R14)(CX*1), Z5, Z8); \
	ELIM512(8(R14)(CX*1), Z5, Z9); \
	ELIM512(16(R14)(CX*1), Z5, Z10); \
	ELIM512(24(R14)(CX*1), Z5, Z11); \
	ELIM512(32(R14)(CX*1), Z5, Z12); \
	PIVOT(Z12, Z4, 32(R14)); \
	ELIM512(0(R14), Z4, Z8); \
	ELIM512(8(R14), Z4, Z9); \
	ELIM512(16(R14), Z4, Z10); \
	ELIM512(24(R14), Z4, Z11); \
	PIVOT(Z11, Z3, 24(R13)(AX*1)); \
	ELIM512(0(R13)(AX*1), Z3, Z8); \
	ELIM512(8(R13)(AX*1), Z3, Z9); \
	ELIM512(16(R13)(AX*1), Z3, Z10); \
	PIVOT(Z10, Z2, 16(R13)(CX*2)); \
	ELIM512(0(R13)(CX*2), Z2, Z8); \
	ELIM512(8(R13)(CX*2), Z2, Z9); \
	PIVOT(Z9, Z1, 8(R13)(CX*1)); \
	ELIM512(0(R13)(CX*1), Z1, Z8); \
	PIVOT(Z8, Z0, 0(R13))

// func dgemmKernel24x8(kb int, ap, bp, c []float64, ldc int)
TEXT ·dgemmKernel24x8(SB), NOSPLIT, $0-88
	FULL512(3)
	GEMM512(VBROADCASTSD, VFMADD231PD, VADDPD, VMOVUPD, 8)

// func dgemmEdge24x8(kb, mr, nr int, ap, bp, c []float64, ldc, rows, cols int, tile []float64)
TEXT ·dgemmEdge24x8(SB), NOSPLIT, $0-144
	EDGE512(3, 8)
	GEMM512(VBROADCASTSD, VFMADD231PD, VADDPD, VMOVUPD, 8)

// func sgemmKernel48x8(kb int, ap, bp, c []float32, ldc int)
TEXT ·sgemmKernel48x8(SB), NOSPLIT, $0-88
	FULL512(2)
	GEMM512(VBROADCASTSS, VFMADD231PS, VADDPS, VMOVUPS, 4)

// func sgemmEdge48x8(kb, mr, nr int, ap, bp, c []float32, ldc, rows, cols int, tile []float32)
TEXT ·sgemmEdge48x8(SB), NOSPLIT, $0-144
	EDGE512(2, 16)
	GEMM512(VBROADCASTSS, VFMADD231PS, VADDPS, VMOVUPS, 4)

// func dpack512(kb int, alpha float64, src []float64, lds int, dst []float64, rows, mr int)
TEXT ·dpack512(SB), NOSPLIT, $0-88
	PACK512(VBROADCASTSD, VMULPD, VMOVUPD, 3, 8)

// func spack512(kb int, alpha float32, src []float32, lds int, dst []float32, rows, mr int)
TEXT ·spack512(SB), NOSPLIT, $0-88
	PACK512(VBROADCASTSS, VMULPS, VMOVUPS, 2, 16)

// func dgather8(kb int, alpha float64, src []float64, lds int, dst []float64, ld int)
// dst[p·ld+c] = alpha·src[p+c·lds] for c < 8, p < kb: eight columns transposed
// into eight adjacent slots of each ld-strided destination row — a full
// NoTrans micro-panel of B (ld = 8) or eight rows of a transposed A (ld = mr).
TEXT ·dgather8(SB), NOSPLIT, $0-80
	GATHERARGS512(VBROADCASTSD, 3)
dloop:
	CMPQ CX, $8
	JGE  dbody
	TESTQ CX, CX
	JZ   done
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1
dbody:
	GATHERLOAD512(VMOVUPD)
	DROW512(Z8, 1)
	DROW512(Z9, 2)
	DROW512(Z10, 3)
	DROW512(Z11, 4)
	DROW512(Z12, 5)
	DROW512(Z13, 6)
	DROW512(Z14, 7)
	DROW512(Z15, 8)
	SUBQ $8, CX
	JMP  dloop
done:
	VZEROUPPER
	RET

// The float32 form moves pairs of rows as the 64-bit units of TRANSPOSE512:
// an output vector holds rows 2u and 2u+1 interleaved, which sgatherIdx
// separates into its two halves.
DATA sgatherIdx<>+0(SB)/4, $0
DATA sgatherIdx<>+4(SB)/4, $2
DATA sgatherIdx<>+8(SB)/4, $4
DATA sgatherIdx<>+12(SB)/4, $6
DATA sgatherIdx<>+16(SB)/4, $8
DATA sgatherIdx<>+20(SB)/4, $10
DATA sgatherIdx<>+24(SB)/4, $12
DATA sgatherIdx<>+28(SB)/4, $14
DATA sgatherIdx<>+32(SB)/4, $1
DATA sgatherIdx<>+36(SB)/4, $3
DATA sgatherIdx<>+40(SB)/4, $5
DATA sgatherIdx<>+44(SB)/4, $7
DATA sgatherIdx<>+48(SB)/4, $9
DATA sgatherIdx<>+52(SB)/4, $11
DATA sgatherIdx<>+56(SB)/4, $13
DATA sgatherIdx<>+60(SB)/4, $15
GLOBL sgatherIdx<>(SB), RODATA|NOPTR, $64

// func sgather8(kb int, alpha float32, src []float32, lds int, dst []float32, ld int)
TEXT ·sgather8(SB), NOSPLIT, $0-80
	GATHERARGS512(VBROADCASTSS, 2)
	VMOVDQU32 sgatherIdx<>(SB), Z30
	MOVQ  $0x00ff, AX
	KMOVW AX, K2
	MOVQ  $0xff00, AX
	KMOVW AX, K3
sloop:
	CMPQ CX, $16
	JGE  sbody
	TESTQ CX, CX
	JZ   done
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1
sbody:
	GATHERLOAD512(VMOVUPS)
	SROWS512(Z8, 0)
	SROWS512(Z9, 1)
	SROWS512(Z10, 2)
	SROWS512(Z11, 3)
	SROWS512(Z12, 4)
	SROWS512(Z13, 5)
	SROWS512(Z14, 6)
	SROWS512(Z15, 7)
	SUBQ $16, CX
	JMP  sloop
done:
	VZEROUPPER
	RET

// func zpack1e(kb int, src []float64, lds int, dst []float64, rows int, ar, ai float64)
TEXT ·zpack1e(SB), NOSPLIT, $0-88
	VBROADCASTSD ar+72(FP), Z28
	VBROADCASTSD ai+80(FP), Z29
	MOVQ         $0x8000000000000000, AX
	VPBROADCASTQ AX, Z30
	PACK1E(VMULPD, VADDPD, VMOVUPD, VPXORQ, VPERMILPD, 0x55, 3, 8)

// func cpack1e(kb int, src []float32, lds int, dst []float32, rows int, ar, ai float32)
TEXT ·cpack1e(SB), NOSPLIT, $0-80
	VBROADCASTSS ar+72(FP), Z28
	VBROADCASTSS ai+76(FP), Z29
	MOVL         $0x80000000, AX
	VPBROADCASTD AX, Z30
	PACK1E(VMULPS, VADDPS, VMOVUPS, VPXORD, VPERMILPS, 0xb1, 2, 16)

// ZSTEP1E expands output step N of a zgather1e block and leaves after the
// last live k-step.
#define ZSTEP1E(V, N) \
	EXPAND1E(VMULPD, VADDPD, VMOVUPD, VPXORQ, VPERMILPD, 0x55, V, K2, K3, (N*384)); \
	CMPQ CX, $(N+1); \
	JE   done

// func zgather1e(kb int, src []float64, lds int, dst []float64, cols int, ar, ai, neg float64)
// The transposing 1e pack of four complex rows of op(A), the first cols of
// them live: column c of src (lds apart, kb complex values) is row c, its
// imaginary parts XORed with neg; a dead row reads column 0 and packs +0.
// Four k-steps at a time, the 4×4 transpose of their 128-bit lanes.
TEXT ·zgather1e(SB), NOSPLIT, $0-96
	VBROADCASTSD ar+72(FP), Z28
	VBROADCASTSD ai+80(FP), Z29
	VBROADCASTSD neg+88(FP), Z31
	MOVQ         $0x8000000000000000, AX
	VPBROADCASTQ AX, Z30
	SETUP1E(VPXORQ)
	GATHER1EARGS(3)
	LEAQ    (SI)(R8*1), R11
	LEAQ    (SI)(R8*2), R12
	LEAQ    (R8)(R8*2), R13
	ADDQ    SI, R13
	CMPQ    AX, $1
	CMOVQLE SI, R11
	CMPQ    AX, $2
	CMOVQLE SI, R12
	CMPQ    AX, $3
	CMOVQLE SI, R13
	MOVQ    kb+0(FP), CX
zloop:
	CMPQ  CX, $4
	JGE   zbody
	TESTQ CX, CX
	JZ    done
	KTAIL
zbody:
	VMOVUPD.Z  (SI), K1, Z0
	VMOVUPD.Z  (R11), K1, Z1
	VMOVUPD.Z  (R12), K1, Z2
	VMOVUPD.Z  (R13), K1, Z3
	VPXORQ     Z31, Z0, K6, Z0
	VPXORQ     Z31, Z1, K6, Z1
	VPXORQ     Z31, Z2, K6, Z2
	VPXORQ     Z31, Z3, K6, Z3
	VSHUFF64X2 $0x88, Z1, Z0, Z4
	VSHUFF64X2 $0xdd, Z1, Z0, Z5
	VSHUFF64X2 $0x88, Z3, Z2, Z6
	VSHUFF64X2 $0xdd, Z3, Z2, Z7
	VSHUFF64X2 $0x88, Z6, Z4, Z8
	VSHUFF64X2 $0x88, Z7, Z5, Z9
	VSHUFF64X2 $0xdd, Z6, Z4, Z10
	VSHUFF64X2 $0xdd, Z7, Z5, Z11
	ZSTEP1E(Z8, 0)
	ZSTEP1E(Z9, 1)
	ZSTEP1E(Z10, 2)
	ZSTEP1E(Z11, 3)
	ADDQ $64, SI
	ADDQ $64, R11
	ADDQ $64, R12
	ADDQ $64, R13
	ADDQ $(4*384), DI
	SUBQ $4, CX
	JMP  zloop
done:
	VZEROUPPER
	RET

// CSTEP1E is ZSTEP1E of cgather1e.
#define CSTEP1E(V, N) \
	EXPAND1E(VMULPS, VADDPS, VMOVUPS, VPXORD, VPERMILPS, 0xb1, V, K2, K3, (N*384)); \
	CMPQ CX, $(N+1); \
	JE   done

// func cgather1e(kb int, src []float32, lds int, dst []float32, cols int, ar, ai, neg float32)
// zgather1e over eight complex64 rows: eight k-steps at a time, the 8×8
// transpose of their 64-bit units (TRANSPOSE512).
TEXT ·cgather1e(SB), NOSPLIT, $0-84
	VBROADCASTSS ar+72(FP), Z28
	VBROADCASTSS ai+76(FP), Z29
	VBROADCASTSS neg+80(FP), Z31
	MOVL         $0x80000000, AX
	VPBROADCASTD AX, Z30
	SETUP1E(VPXORD)
	GATHER1EARGS(2)
	LEAQ    (R8)(R8*2), CX
	LEAQ    (SI)(R8*1), R9
	LEAQ    (SI)(R8*2), R10
	LEAQ    (SI)(CX*1), R11
	LEAQ    (SI)(R8*4), BX
	LEAQ    (BX)(R8*1), R12
	LEAQ    (BX)(R8*2), R13
	LEAQ    (BX)(CX*1), DX
	CMPQ    AX, $1
	CMOVQLE SI, R9
	CMPQ    AX, $2
	CMOVQLE SI, R10
	CMPQ    AX, $3
	CMOVQLE SI, R11
	CMPQ    AX, $4
	CMOVQLE SI, BX
	CMPQ    AX, $5
	CMOVQLE SI, R12
	CMPQ    AX, $6
	CMOVQLE SI, R13
	CMPQ    AX, $7
	CMOVQLE SI, DX
	MOVQ    kb+0(FP), CX
cloop:
	CMPQ  CX, $8
	JGE   cbody
	TESTQ CX, CX
	JZ    done
	KTAIL
cbody:
	VMOVUPS.Z (SI), K1, Z0
	VMOVUPS.Z (R9), K1, Z1
	VMOVUPS.Z (R10), K1, Z2
	VMOVUPS.Z (R11), K1, Z3
	VMOVUPS.Z (BX), K1, Z4
	VMOVUPS.Z (R12), K1, Z5
	VMOVUPS.Z (R13), K1, Z6
	VMOVUPS.Z (DX), K1, Z7
	VPXORD    Z31, Z0, K6, Z0
	VPXORD    Z31, Z1, K6, Z1
	VPXORD    Z31, Z2, K6, Z2
	VPXORD    Z31, Z3, K6, Z3
	VPXORD    Z31, Z4, K6, Z4
	VPXORD    Z31, Z5, K6, Z5
	VPXORD    Z31, Z6, K6, Z6
	VPXORD    Z31, Z7, K6, Z7
	TRANSPOSE512
	CSTEP1E(Z8, 0)
	CSTEP1E(Z9, 1)
	CSTEP1E(Z10, 2)
	CSTEP1E(Z11, 3)
	CSTEP1E(Z12, 4)
	CSTEP1E(Z13, 5)
	CSTEP1E(Z14, 6)
	CSTEP1E(Z15, 7)
	ADDQ $64, SI
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $64, BX
	ADDQ $64, R12
	ADDQ $64, R13
	ADDQ $64, DX
	ADDQ $(8*384), DI
	SUBQ $8, CX
	JMP  cloop
done:
	VZEROUPPER
	RET

// The 1r permutations of zpack1r: the real parts of two vectors of four
// complex128 values, then their imaginary parts.
DATA z1rIdx<>+0(SB)/8, $0
DATA z1rIdx<>+8(SB)/8, $2
DATA z1rIdx<>+16(SB)/8, $4
DATA z1rIdx<>+24(SB)/8, $6
DATA z1rIdx<>+32(SB)/8, $8
DATA z1rIdx<>+40(SB)/8, $10
DATA z1rIdx<>+48(SB)/8, $12
DATA z1rIdx<>+56(SB)/8, $14
DATA z1rIdx<>+64(SB)/8, $1
DATA z1rIdx<>+72(SB)/8, $3
DATA z1rIdx<>+80(SB)/8, $5
DATA z1rIdx<>+88(SB)/8, $7
DATA z1rIdx<>+96(SB)/8, $9
DATA z1rIdx<>+104(SB)/8, $11
DATA z1rIdx<>+112(SB)/8, $13
DATA z1rIdx<>+120(SB)/8, $15
GLOBL z1rIdx<>(SB), RODATA|NOPTR, $128

// func zpack1r(kb int, src []float64, lds int, dst []float64, cols int, neg float64)
// The 1r pack of a transposed B: per k-step a run of cols ≤ 8 complex values
// (lds apart) becomes the row of their real parts and the row of their
// imaginary parts XORed with neg, each zero-padded to eight.
TEXT ·zpack1r(SB), NOSPLIT, $0-80
	VBROADCASTSD neg+72(FP), Z29
	VMOVDQU64    z1rIdx<>+0(SB), Z30
	VMOVDQU64    z1rIdx<>+64(SB), Z31
	MOVQ         src_base+8(FP), SI
	MOVQ         lds+32(FP), R8
	SHLQ         $3, R8
	MOVQ         dst_base+40(FP), DI
	MOVQ         cols+64(FP), CX
	MOVQ         $1, AX
	SHLQ         CX, AX
	DECQ         AX
	KMOVW        AX, K4
	SHLQ         $1, CX
	MASKS512(8, K1, K2, K3)
	MOVQ         kb+0(FP), CX
zloop1r:
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD.Z 64(SI), K2, Z1
	VMOVAPD   Z0, Z2
	VPERMT2PD Z1, Z30, Z2
	VPERMT2PD Z1, Z31, Z0
	VPXORQ    Z29, Z0, K4, Z0
	VMOVUPD   Z2, (DI)
	VMOVUPD   Z0, 64(DI)
	ADDQ      R8, SI
	ADDQ      $128, DI
	DECQ      CX
	JNZ       zloop1r
	VZEROUPPER
	RET

// func cpack1r(kb int, src []float32, lds int, dst []float32, cols int, neg float32)
// zpack1r over complex64: one vector per k-step, split by sgatherIdx into the
// eight real and the eight imaginary parts — the packed step as it stands.
TEXT ·cpack1r(SB), NOSPLIT, $0-76
	VBROADCASTSS neg+72(FP), Z29
	VMOVDQU32    sgatherIdx<>(SB), Z30
	MOVQ         src_base+8(FP), SI
	MOVQ         lds+32(FP), R8
	SHLQ         $2, R8
	MOVQ         dst_base+40(FP), DI
	MOVQ         cols+64(FP), CX
	MOVQ         $1, AX
	SHLQ         CX, AX
	DECQ         AX
	SHLQ         $8, AX
	KMOVW        AX, K4
	SHLQ         $1, CX
	MOVQ         $1, AX
	SHLQ         CX, AX
	DECQ         AX
	KMOVW        AX, K1
	MOVQ         kb+0(FP), CX
cloop1r:
	VMOVUPS.Z (SI), K1, Z0
	VPERMPS   Z0, Z30, Z0
	VPXORD    Z29, Z0, K4, Z0
	VMOVUPS   Z0, (DI)
	ADDQ      R8, SI
	ADDQ      $64, DI
	DECQ      CX
	JNZ       cloop1r
	VZEROUPPER
	RET

// func dtrsvOct512(upper, unit bool, m, n int, a []float64, lda int, b []float64, ldb int, tail *[64]float64)
// For each block of eight rows, from the top for Lower and from the bottom
// for Upper (the ragged one last, its live lanes in K1), and each octet of
// columns: load, fold, transpose, solve on the block of A or on tail,
// transpose back, store.
TEXT ·dtrsvOct512(SB), NOSPLIT, $0-96
	MOVQ lda+48(FP), R8
	SHLQ $3, R8
	MOVQ ldb+80(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11
	XORQ SI, SI
	CMPB upper+0(FP), $0
	JE   block
	MOVQ m+8(FP), SI
	SUBQ $8, SI

block:
	MOVQ  m+8(FP), CX
	SUBQ  SI, CX
	CMPQ  CX, $8
	JLE   rowsbelow
	MOVQ  $8, CX

rowsbelow:
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	MOVQ  SI, CX
	NEGQ  CX
	JLE   mask
	SHRL  CX, AX
	SHLL  CX, AX

mask:
	KMOVW AX, K1
	MOVQ  b_base+56(FP), DI
	MOVQ  n+16(FP), BX
	SHRQ  $3, BX

octet:
	LEAQ  (DI)(SI*8), DX
	LEAQ  (DX)(R10*4), R12
	LOADTILE512
	MOVQ  a_base+24(FP), AX
	LEAQ  (AX)(SI*8), AX
	CMPB  upper+0(FP), $0
	JNE   ufoldstart
	MOVQ  DI, DX
	LEAQ  (DI)(R10*4), R12
	MOVQ  SI, CX
	TESTQ CX, CX
	JZ    solve

lfold:
	FOLD512(ADDQ)
	DECQ CX
	JNZ  lfold
	JMP  solve

ufoldstart:
	MOVQ  m+8(FP), CX
	DECQ  CX
	MOVQ  CX, DX
	IMULQ R8, DX
	ADDQ  DX, AX
	LEAQ  (DI)(CX*8), DX
	LEAQ  (DX)(R10*4), R12
	SUBQ  SI, CX
	SUBQ  $7, CX
	JLE   solve

ufold:
	FOLD512(SUBQ)
	DECQ CX
	JNZ  ufold

solve:
	TRANSPOSE512
	KMOVW K1, CX
	CMPL  CX, $0xff
	JNE   ragged
	MOVQ  SI, R13
	IMULQ R8, R13
	ADDQ  a_base+24(FP), R13
	LEAQ  (R13)(SI*8), R13
	MOVQ  R8, CX
	JMP   pivot

ragged:
	MOVQ tail+88(FP), R13
	MOVQ $64, CX

pivot:
	LEAQ (CX)(CX*2), AX
	LEAQ (R13)(CX*4), R14
	CMPB upper+0(FP), $0
	JNE  usolve
	CMPB unit+1(FP), $0
	JNE  lunit
	SOLVEL512(PIVOTN)
	JMP  store

lunit:
	SOLVEL512(PIVOTU)
	JMP  store

usolve:
	CMPB unit+1(FP), $0
	JNE  uunit
	SOLVEU512(PIVOTN)
	JMP  store

uunit:
	SOLVEU512(PIVOTU)

store:
	TRANSPOSE512
	LEAQ (DI)(SI*8), DX
	LEAQ (DX)(R10*4), R12
	STORETILE512(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	LEAQ (DI)(R10*8), DI
	DECQ BX
	JNZ  octet
	CMPB upper+0(FP), $0
	JNE  nextup
	ADDQ $8, SI
	CMPQ SI, m+8(FP)
	JL   block
	VZEROUPPER
	RET

nextup:
	SUBQ $8, SI
	CMPQ SI, $-8
	JG   block
	VZEROUPPER
	RET

// func dfold512(n, k int, a []float64, lda int, b []float64, ldb int, r0, rows int)
// B(r0:r0+rows, q) −= Σ_{p<k} A(r0:r0+rows, p)·B(p, q) for the n columns of
// B, by the FNMADD chain of dtrsvOct512's fold, p ascending.
TEXT ·dfold512(SB), NOSPLIT, $0-96
	MOVQ lda+40(FP), R8
	SHLQ $3, R8
	MOVQ ldb+72(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11
	MOVQ rows+88(FP), CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	MOVQ b_base+48(FP), DI
	MOVQ r0+80(FP), SI
	MOVQ n+0(FP), BX
	SHRQ $3, BX

foctet:
	LEAQ (DI)(SI*8), DX
	LEAQ (DX)(R10*4), R12
	LOADTILE512
	MOVQ a_base+16(FP), AX
	LEAQ (AX)(SI*8), AX
	MOVQ DI, DX
	LEAQ (DI)(R10*4), R12
	MOVQ k+8(FP), CX

ffold:
	FOLD512(ADDQ)
	DECQ CX
	JNZ  ffold
	LEAQ (DI)(SI*8), DX
	LEAQ (DX)(R10*4), R12
	STORETILE512(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	LEAQ (DI)(R10*8), DI
	DECQ BX
	JNZ  foctet
	VZEROUPPER
	RET
