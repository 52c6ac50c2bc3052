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
