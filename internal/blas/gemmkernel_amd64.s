//go:build amd64

#include "textflag.h"

// Register plan shared by both kernels:
//   CX  k counter          SI packed A panel     DI packed B panel
//   DX  C column cursor    R8 ldc in bytes
//   Y0..Y7  the 2×4 grid of accumulators (two vectors per C column)
//   Y8,Y9   the current A micro-panel step
//   Y10..Y13 broadcast B elements
// The k loop touches no memory beyond the two packed panels and performs
// eight FMAs per step; C is read and written only in the epilogue.

// func dgemmKernel8x4(k int64, ap, bp, c *float64, ldc int64)
TEXT ·dgemmKernel8x4(SB), NOSPLIT, $0-40
	MOVQ k+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

dloop:
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (DI), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD 8(DI), Y11
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD 16(DI), Y12
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VBROADCASTSD 24(DI), Y13
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         $64, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          dloop

	VADDPD  (DX), Y0, Y0
	VMOVUPD Y0, (DX)
	VADDPD  32(DX), Y1, Y1
	VMOVUPD Y1, 32(DX)
	ADDQ    R8, DX
	VADDPD  (DX), Y2, Y2
	VMOVUPD Y2, (DX)
	VADDPD  32(DX), Y3, Y3
	VMOVUPD Y3, 32(DX)
	ADDQ    R8, DX
	VADDPD  (DX), Y4, Y4
	VMOVUPD Y4, (DX)
	VADDPD  32(DX), Y5, Y5
	VMOVUPD Y5, 32(DX)
	ADDQ    R8, DX
	VADDPD  (DX), Y6, Y6
	VMOVUPD Y6, (DX)
	VADDPD  32(DX), Y7, Y7
	VMOVUPD Y7, 32(DX)
	VZEROUPPER
	RET

// func sgemmKernel16x4(k int64, ap, bp, c *float32, ldc int64)
TEXT ·sgemmKernel16x4(SB), NOSPLIT, $0-40
	MOVQ k+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

sloop:
	VMOVUPS      (SI), Y8
	VMOVUPS      32(SI), Y9
	VBROADCASTSS (DI), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VBROADCASTSS 4(DI), Y11
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VBROADCASTSS 8(DI), Y12
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5
	VBROADCASTSS 12(DI), Y13
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7
	ADDQ         $64, SI
	ADDQ         $16, DI
	DECQ         CX
	JNZ          sloop

	VADDPS  (DX), Y0, Y0
	VMOVUPS Y0, (DX)
	VADDPS  32(DX), Y1, Y1
	VMOVUPS Y1, 32(DX)
	ADDQ    R8, DX
	VADDPS  (DX), Y2, Y2
	VMOVUPS Y2, (DX)
	VADDPS  32(DX), Y3, Y3
	VMOVUPS Y3, 32(DX)
	ADDQ    R8, DX
	VADDPS  (DX), Y4, Y4
	VMOVUPS Y4, (DX)
	VADDPS  32(DX), Y5, Y5
	VMOVUPS Y5, 32(DX)
	ADDQ    R8, DX
	VADDPS  (DX), Y6, Y6
	VMOVUPS Y6, (DX)
	VADDPS  32(DX), Y7, Y7
	VMOVUPS Y7, 32(DX)
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

// Substitution-leaf kernels. Both keep eight broadcast coefficients resident
// in Y8..Y15 and stream the vectors with fused negate-multiply-adds, which is
// the arithmetic the portable Go loops cannot reach (the compiler emits
// separate MULSD/SUBSD on amd64).

// func dsubFma8(n int64, x, a, c *float64, ldc int64)
// Rank-1 column sweep: c_q[0:n] -= x[q]*a[0:n] for the eight columns
// q = 0..7 of c, which are ldc elements apart.
TEXT ·dsubFma8(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), CX
	MOVQ x+8(FP), AX
	MOVQ a+16(FP), SI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8

	VBROADCASTSD (AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15

	MOVQ CX, BX
	SHRQ $2, BX
	JZ   dsub8tail

dsub8loop4:
	VMOVUPD      (SI), Y0
	MOVQ         DX, R9
	VMOVUPD      (R9), Y1
	VFNMADD231PD Y0, Y8, Y1
	VMOVUPD      Y1, (R9)
	ADDQ         R8, R9
	VMOVUPD      (R9), Y2
	VFNMADD231PD Y0, Y9, Y2
	VMOVUPD      Y2, (R9)
	ADDQ         R8, R9
	VMOVUPD      (R9), Y3
	VFNMADD231PD Y0, Y10, Y3
	VMOVUPD      Y3, (R9)
	ADDQ         R8, R9
	VMOVUPD      (R9), Y4
	VFNMADD231PD Y0, Y11, Y4
	VMOVUPD      Y4, (R9)
	ADDQ         R8, R9
	VMOVUPD      (R9), Y5
	VFNMADD231PD Y0, Y12, Y5
	VMOVUPD      Y5, (R9)
	ADDQ         R8, R9
	VMOVUPD      (R9), Y6
	VFNMADD231PD Y0, Y13, Y6
	VMOVUPD      Y6, (R9)
	ADDQ         R8, R9
	VMOVUPD      (R9), Y7
	VFNMADD231PD Y0, Y14, Y7
	VMOVUPD      Y7, (R9)
	ADDQ         R8, R9
	VMOVUPD      (R9), Y1
	VFNMADD231PD Y0, Y15, Y1
	VMOVUPD      Y1, (R9)
	ADDQ         $32, SI
	ADDQ         $32, DX
	DECQ         BX
	JNZ          dsub8loop4

dsub8tail:
	ANDQ $3, CX
	JZ   dsub8done

dsub8loop1:
	VMOVSD       (SI), X0
	MOVQ         DX, R9
	VMOVSD       (R9), X1
	VFNMADD231SD X0, X8, X1
	VMOVSD       X1, (R9)
	ADDQ         R8, R9
	VMOVSD       (R9), X2
	VFNMADD231SD X0, X9, X2
	VMOVSD       X2, (R9)
	ADDQ         R8, R9
	VMOVSD       (R9), X3
	VFNMADD231SD X0, X10, X3
	VMOVSD       X3, (R9)
	ADDQ         R8, R9
	VMOVSD       (R9), X4
	VFNMADD231SD X0, X11, X4
	VMOVSD       X4, (R9)
	ADDQ         R8, R9
	VMOVSD       (R9), X5
	VFNMADD231SD X0, X12, X5
	VMOVSD       X5, (R9)
	ADDQ         R8, R9
	VMOVSD       (R9), X6
	VFNMADD231SD X0, X13, X6
	VMOVSD       X6, (R9)
	ADDQ         R8, R9
	VMOVSD       (R9), X7
	VFNMADD231SD X0, X14, X7
	VMOVSD       X7, (R9)
	ADDQ         R8, R9
	VMOVSD       (R9), X1
	VFNMADD231SD X0, X15, X1
	VMOVSD       X1, (R9)
	ADDQ         $8, SI
	ADDQ         $8, DX
	DECQ         CX
	JNZ          dsub8loop1

dsub8done:
	VZEROUPPER
	RET

// func dgemvSub8(n int64, t, b *float64, ldb int64, y *float64)
// Eight-column gather: y[0:n] -= sum_q t[q]*b_q[0:n], where the eight source
// columns b_q are ldb elements apart. Four accumulators split the FMA chains
// so the loop is port-bound, not latency-bound.
TEXT ·dgemvSub8(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), CX
	MOVQ t+8(FP), AX
	MOVQ b+16(FP), SI
	MOVQ ldb+24(FP), R8
	MOVQ y+32(FP), DX
	SHLQ $3, R8

	VBROADCASTSD (AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15

	MOVQ CX, BX
	SHRQ $2, BX
	JZ   dgv8tail

dgv8loop4:
	VMOVUPD      (DX), Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	MOVQ         SI, R9
	VMOVUPD      (R9), Y4
	VFNMADD231PD Y4, Y8, Y0
	ADDQ         R8, R9
	VMOVUPD      (R9), Y5
	VFNMADD231PD Y5, Y9, Y1
	ADDQ         R8, R9
	VMOVUPD      (R9), Y6
	VFNMADD231PD Y6, Y10, Y2
	ADDQ         R8, R9
	VMOVUPD      (R9), Y7
	VFNMADD231PD Y7, Y11, Y3
	ADDQ         R8, R9
	VMOVUPD      (R9), Y4
	VFNMADD231PD Y4, Y12, Y0
	ADDQ         R8, R9
	VMOVUPD      (R9), Y5
	VFNMADD231PD Y5, Y13, Y1
	ADDQ         R8, R9
	VMOVUPD      (R9), Y6
	VFNMADD231PD Y6, Y14, Y2
	ADDQ         R8, R9
	VMOVUPD      (R9), Y7
	VFNMADD231PD Y7, Y15, Y3
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VMOVUPD      Y0, (DX)
	ADDQ         $32, SI
	ADDQ         $32, DX
	DECQ         BX
	JNZ          dgv8loop4

dgv8tail:
	ANDQ $3, CX
	JZ   dgv8done

dgv8loop1:
	VMOVSD       (DX), X0
	MOVQ         SI, R9
	VMOVSD       (R9), X4
	VFNMADD231SD X4, X8, X0
	ADDQ         R8, R9
	VMOVSD       (R9), X5
	VFNMADD231SD X5, X9, X0
	ADDQ         R8, R9
	VMOVSD       (R9), X6
	VFNMADD231SD X6, X10, X0
	ADDQ         R8, R9
	VMOVSD       (R9), X7
	VFNMADD231SD X7, X11, X0
	ADDQ         R8, R9
	VMOVSD       (R9), X4
	VFNMADD231SD X4, X12, X0
	ADDQ         R8, R9
	VMOVSD       (R9), X5
	VFNMADD231SD X5, X13, X0
	ADDQ         R8, R9
	VMOVSD       (R9), X6
	VFNMADD231SD X6, X14, X0
	ADDQ         R8, R9
	VMOVSD       (R9), X7
	VFNMADD231SD X7, X15, X0
	VMOVSD       X0, (DX)
	ADDQ         $8, SI
	ADDQ         $8, DX
	DECQ         CX
	JNZ          dgv8loop1

dgv8done:
	VZEROUPPER
	RET

// Level-2 leaf kernels for the blocked condensed-form reductions. Roughly
// half the flops of a blocked Sytrd/Gebrd/Gehrd stay in matrix-vector
// products, so the Gemv/Ger/Symv column sweeps get the same FMA treatment
// as the substitution leaves above: broadcast coefficients held in YMM
// registers, unit-stride vector streams, fused multiply-adds.

// func daxpyFma(n int64, alpha float64, x, y *float64)
// y[0:n] += alpha * x[0:n]. The shared inner step of unit-stride Gemv
// (NoTrans, one column) and Ger (one column).
TEXT ·daxpyFma(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y8
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DX

	MOVQ CX, BX
	SHRQ $3, BX
	JZ   daxpytail4

daxpyloop8:
	VMOVUPD     (SI), Y0
	VMOVUPD     32(SI), Y1
	VMOVUPD     (DX), Y2
	VMOVUPD     32(DX), Y3
	VFMADD231PD Y0, Y8, Y2
	VFMADD231PD Y1, Y8, Y3
	VMOVUPD     Y2, (DX)
	VMOVUPD     Y3, 32(DX)
	ADDQ        $64, SI
	ADDQ        $64, DX
	DECQ        BX
	JNZ         daxpyloop8

daxpytail4:
	TESTQ $4, CX
	JZ    daxpytail1
	VMOVUPD     (SI), Y0
	VMOVUPD     (DX), Y2
	VFMADD231PD Y0, Y8, Y2
	VMOVUPD     Y2, (DX)
	ADDQ        $32, SI
	ADDQ        $32, DX

daxpytail1:
	ANDQ $3, CX
	JZ   daxpydone

daxpyloop1:
	VMOVSD      (SI), X0
	VMOVSD      (DX), X2
	VFMADD231SD X0, X8, X2
	VMOVSD      X2, (DX)
	ADDQ        $8, SI
	ADDQ        $8, DX
	DECQ        CX
	JNZ         daxpyloop1

daxpydone:
	VZEROUPPER
	RET

// func ddotFma(n int64, x, y *float64) float64
// Returns sum x[i]*y[i]. Four accumulators split the FMA chains; the
// horizontal reduction happens once, before the scalar tail.
TEXT ·ddotFma(SB), NOSPLIT, $0-64
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   y_base+24(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	MOVQ CX, BX
	SHRQ $4, BX
	JZ   ddottail4

ddotloop16:
	VMOVUPD     (SI), Y4
	VMOVUPD     32(SI), Y5
	VMOVUPD     64(SI), Y6
	VMOVUPD     96(SI), Y7
	VMOVUPD     (DX), Y9
	VMOVUPD     32(DX), Y10
	VMOVUPD     64(DX), Y11
	VMOVUPD     96(DX), Y12
	VFMADD231PD Y9, Y4, Y0
	VFMADD231PD Y10, Y5, Y1
	VFMADD231PD Y11, Y6, Y2
	VFMADD231PD Y12, Y7, Y3
	ADDQ        $128, SI
	ADDQ        $128, DX
	DECQ        BX
	JNZ         ddotloop16

ddottail4:
	MOVQ CX, BX
	ANDQ $15, BX
	SHRQ $2, BX
	JZ   ddotreduce

ddotloop4:
	VMOVUPD     (SI), Y4
	VMOVUPD     (DX), Y9
	VFMADD231PD Y9, Y4, Y0
	ADDQ        $32, SI
	ADDQ        $32, DX
	DECQ        BX
	JNZ         ddotloop4

ddotreduce:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VHADDPD      X0, X0, X0
	ANDQ         $3, CX
	JZ           ddotdone

ddotloop1:
	VMOVSD      (SI), X4
	VMOVSD      (DX), X5
	VFMADD231SD X5, X4, X0
	ADDQ        $8, SI
	ADDQ        $8, DX
	DECQ        CX
	JNZ         ddotloop1

ddotdone:
	VMOVSD     X0, ret+56(FP)
	VZEROUPPER
	RET

// func daxpyDotFma(n int64, alpha float64, a, x, y *float64) float64
// Fused symmetric-column update: y[0:n] += alpha*a[0:n] and the return
// value is sum a[i]*x[i] — one read of the column a serves both the axpy
// into y and the dot against x, which is the whole inner loop of the
// unit-stride Symv used by the Latrd panels.
TEXT ·daxpyDotFma(SB), NOSPLIT, $0-96
	VBROADCASTSD alpha+0(FP), Y8
	MOVQ         a_base+8(FP), SI
	MOVQ         a_len+16(FP), CX
	MOVQ         x_base+32(FP), AX
	MOVQ         y_base+56(FP), DX
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1

	MOVQ CX, BX
	SHRQ $3, BX
	JZ   dadtail4

dadloop8:
	VMOVUPD     (SI), Y4
	VMOVUPD     32(SI), Y5
	VMOVUPD     (DX), Y6
	VMOVUPD     32(DX), Y7
	VFMADD231PD Y4, Y8, Y6
	VFMADD231PD Y5, Y8, Y7
	VMOVUPD     Y6, (DX)
	VMOVUPD     Y7, 32(DX)
	VMOVUPD     (AX), Y2
	VMOVUPD     32(AX), Y3
	VFMADD231PD Y2, Y4, Y0
	VFMADD231PD Y3, Y5, Y1
	ADDQ        $64, SI
	ADDQ        $64, AX
	ADDQ        $64, DX
	DECQ        BX
	JNZ         dadloop8

dadtail4:
	TESTQ $4, CX
	JZ    dadreduce
	VMOVUPD     (SI), Y4
	VMOVUPD     (DX), Y6
	VFMADD231PD Y4, Y8, Y6
	VMOVUPD     Y6, (DX)
	VMOVUPD     (AX), Y2
	VFMADD231PD Y2, Y4, Y0
	ADDQ        $32, SI
	ADDQ        $32, AX
	ADDQ        $32, DX

dadreduce:
	VADDPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VHADDPD      X0, X0, X0
	ANDQ         $3, CX
	JZ           daddone

dadloop1:
	VMOVSD      (SI), X4
	VMOVSD      (DX), X6
	VFMADD231SD X4, X8, X6
	VMOVSD      X6, (DX)
	VMOVSD      (AX), X2
	VFMADD231SD X2, X4, X0
	ADDQ        $8, SI
	ADDQ        $8, AX
	ADDQ        $8, DX
	DECQ        CX
	JNZ         dadloop1

daddone:
	VMOVSD     X0, ret+88(FP)
	VZEROUPPER
	RET

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
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (DI), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD (DI)(R10*1), Y11
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD (DI)(R10*2), Y12
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VBROADCASTSD (DI)(R11*1), Y13
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         R9, SI
	ADDQ         $8, DI
	DECQ         CX
	JNZ          dsloop

	MOVQ        R13, DX
	VMOVUPD     (DX), Y8
	VFMADD231PD Y0, Y15, Y8
	VMOVUPD     Y8, (DX)
	VMOVUPD     32(DX), Y9
	VFMADD231PD Y1, Y15, Y9
	VMOVUPD     Y9, 32(DX)
	ADDQ        R8, DX
	VMOVUPD     (DX), Y8
	VFMADD231PD Y2, Y15, Y8
	VMOVUPD     Y8, (DX)
	VMOVUPD     32(DX), Y9
	VFMADD231PD Y3, Y15, Y9
	VMOVUPD     Y9, 32(DX)
	ADDQ        R8, DX
	VMOVUPD     (DX), Y8
	VFMADD231PD Y4, Y15, Y8
	VMOVUPD     Y8, (DX)
	VMOVUPD     32(DX), Y9
	VFMADD231PD Y5, Y15, Y9
	VMOVUPD     Y9, 32(DX)
	ADDQ        R8, DX
	VMOVUPD     (DX), Y8
	VFMADD231PD Y6, Y15, Y8
	VMOVUPD     Y8, (DX)
	VMOVUPD     32(DX), Y9
	VFMADD231PD Y7, Y15, Y9
	VMOVUPD     Y9, 32(DX)

	ADDQ $64, R12
	ADDQ $64, R13
	DECQ AX
	JNZ  dsstrip
	VZEROUPPER
	RET

// func diamaxF64(n int64, x *float64) int64
// Index of the first element of x[0:n] with the largest |x[i]|, two passes:
// a branch-free vector max (NaN elements never enter the accumulator, as in
// the scalar loop), then a compare pass that stops at the first lane equal
// to it. Callers guard n >= 1 and x[0] not NaN.
TEXT ·diamaxF64(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ x+8(FP), SI

	MOVQ         $0x7FFFFFFFFFFFFFFF, AX
	VMOVQ        AX, X10
	VPBROADCASTQ X10, Y10           // |x| mask
	MOVQ         $0xFFF0000000000000, AX
	VMOVQ        AX, X0
	VBROADCASTSD X0, Y0             // running max = -Inf

	XORQ DX, DX

diamax4:
	LEAQ   4(DX), BX
	CMPQ   BX, CX
	JGT    diamaxred
	VMOVUPD (SI)(DX*8), Y1
	VANDPD  Y10, Y1, Y1
	VMAXPD  Y0, Y1, Y0              // NaN lanes keep the accumulator
	MOVQ    BX, DX
	JMP     diamax4

diamaxred:
	// Reduce the four lane maxima to a scalar before the tail (writing X0
	// through VEX would clear the upper lanes of Y0).
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X0, X1, X0
	VPERMILPD    $1, X0, X1
	VMAXSD       X0, X1, X0

diamaxtail:
	CMPQ   DX, CX
	JGE    diamaxeq
	VMOVSD (SI)(DX*8), X1
	VANDPD X10, X1, X1
	VMAXSD X0, X1, X0               // NaN keeps the accumulator
	INCQ   DX
	JMP    diamaxtail

diamaxeq:
	VBROADCASTSD X0, Y2
	XORQ         DX, DX

diamaxeq4:
	LEAQ   4(DX), BX
	CMPQ   BX, CX
	JGT    diamaxeqtail
	VMOVUPD   (SI)(DX*8), Y1
	VANDPD    Y10, Y1, Y1
	VCMPPD    $0, Y2, Y1, Y3        // EQ_OQ: false for NaN lanes
	VMOVMSKPD Y3, AX
	TESTQ     AX, AX
	JNZ       diamaxhit4
	MOVQ      BX, DX
	JMP       diamaxeq4

diamaxhit4:
	BSFQ AX, AX
	ADDQ AX, DX
	MOVQ DX, ret+16(FP)
	VZEROUPPER
	RET

diamaxeqtail:
	CMPQ     DX, CX
	JGE      diamaxnone
	VMOVSD   (SI)(DX*8), X1
	VANDPD   X10, X1, X1
	VUCOMISD X0, X1
	JP       diamaxnext             // unordered: NaN element, skip
	JEQ      diamaxhit1

diamaxnext:
	INCQ DX
	JMP  diamaxeqtail

diamaxhit1:
	MOVQ DX, ret+16(FP)
	VZEROUPPER
	RET

diamaxnone:
	MOVQ $0, ret+16(FP)
	VZEROUPPER
	RET

// Iteration-phase kernels (iterate.go): three-element reflectors applied to
// adjacent unit-stride columns or rows. The rotation chains are in
// rotseq_amd64.s.

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

// Complex Level-1 leaves on the real view: a YMM register holds two
// complex128 values as [re, im, re, im], and a complex multiply-add is two
// real FMAs per vector — one with the vector as loaded, one with re and im
// swapped inside each element.

// negEvenPD flips the sign of the even (real-part) lanes.
DATA negEvenPD<>+0(SB)/8, $0x8000000000000000
DATA negEvenPD<>+8(SB)/8, $0x0000000000000000
DATA negEvenPD<>+16(SB)/8, $0x8000000000000000
DATA negEvenPD<>+24(SB)/8, $0x0000000000000000
GLOBL negEvenPD<>(SB), RODATA|NOPTR, $32

// func zaxpyFma(alpha complex128, x, y []complex128)
// y[0:n] += alpha·x[0:n] over len(x) elements: with Y8 = [ar, ar, …] and
// Y9 = [−ai, ai, …], y += Y8·x, then y += Y9·swap(x), which adds
// ar·xr − ai·xi to the real lanes and ar·xi + ai·xr to the imaginary ones.
TEXT ·zaxpyFma(SB), NOSPLIT, $0-64
	VBROADCASTSD alpha_real+0(FP), Y8
	VBROADCASTSD alpha_imag+8(FP), Y9
	VXORPD       negEvenPD<>(SB), Y9, Y9
	MOVQ         x_base+16(FP), SI
	MOVQ         x_len+24(FP), CX
	MOVQ         y_base+40(FP), DX

	MOVQ CX, BX
	SHRQ $2, BX
	JZ   zaxpytail2

zaxpyloop4:
	VMOVUPD     (SI), Y0
	VMOVUPD     32(SI), Y1
	VPERMILPD   $5, Y0, Y2
	VPERMILPD   $5, Y1, Y3
	VMOVUPD     (DX), Y4
	VMOVUPD     32(DX), Y5
	VFMADD231PD Y0, Y8, Y4
	VFMADD231PD Y1, Y8, Y5
	VFMADD231PD Y2, Y9, Y4
	VFMADD231PD Y3, Y9, Y5
	VMOVUPD     Y4, (DX)
	VMOVUPD     Y5, 32(DX)
	ADDQ        $64, SI
	ADDQ        $64, DX
	DECQ        BX
	JNZ         zaxpyloop4

zaxpytail2:
	TESTQ $2, CX
	JZ    zaxpytail1
	VMOVUPD     (SI), Y0
	VPERMILPD   $5, Y0, Y2
	VMOVUPD     (DX), Y4
	VFMADD231PD Y0, Y8, Y4
	VFMADD231PD Y2, Y9, Y4
	VMOVUPD     Y4, (DX)
	ADDQ        $32, SI
	ADDQ        $32, DX

zaxpytail1:
	TESTQ $1, CX
	JZ    zaxpydone
	VMOVUPD     (SI), X0
	VPERMILPD   $1, X0, X2
	VMOVUPD     (DX), X4
	VFMADD231PD X0, X8, X4
	VFMADD231PD X2, X9, X4
	VMOVUPD     X4, (DX)

zaxpydone:
	VZEROUPPER
	RET

// func zdotFma(x, y []complex128, conj bool) complex128
// Returns Σ x[i]·y[i], or Σ conj(x[i])·y[i] when conj is set, over len(x)
// elements. The sweep is the same for both: one set of accumulators gathers
// x·y lane by lane ([xr·yr, xi·yi]), the other x·swap(y) ([xr·yi, xi·yr]);
// the conjugation only decides how the lanes combine at the end —
// (rr − ii, ri + ir) plain, (rr + ii, ri − ir) conjugated. Four vectors per
// step on eight accumulators, the last odd element on the XMM halves after
// the reduction.
TEXT ·zdotFma(SB), NOSPLIT, $0-72
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   y_base+24(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	MOVQ CX, BX
	SHRQ $3, BX
	JZ   zdottail2

zdotloop8:
	VMOVUPD     (SI), Y8
	VMOVUPD     32(SI), Y9
	VMOVUPD     64(SI), Y10
	VMOVUPD     96(SI), Y11
	VMOVUPD     (DX), Y12
	VPERMILPD   $5, Y12, Y13
	VFMADD231PD Y12, Y8, Y0
	VFMADD231PD Y13, Y8, Y1
	VMOVUPD     32(DX), Y14
	VPERMILPD   $5, Y14, Y15
	VFMADD231PD Y14, Y9, Y2
	VFMADD231PD Y15, Y9, Y3
	VMOVUPD     64(DX), Y12
	VPERMILPD   $5, Y12, Y13
	VFMADD231PD Y12, Y10, Y4
	VFMADD231PD Y13, Y10, Y5
	VMOVUPD     96(DX), Y14
	VPERMILPD   $5, Y14, Y15
	VFMADD231PD Y14, Y11, Y6
	VFMADD231PD Y15, Y11, Y7
	ADDQ        $128, SI
	ADDQ        $128, DX
	DECQ        BX
	JNZ         zdotloop8

zdottail2:
	MOVQ CX, BX
	ANDQ $7, BX
	SHRQ $1, BX
	JZ   zdotreduce

zdotloop2:
	VMOVUPD     (SI), Y8
	VMOVUPD     (DX), Y12
	VPERMILPD   $5, Y12, Y13
	VFMADD231PD Y12, Y8, Y0
	VFMADD231PD Y13, Y8, Y1
	ADDQ        $32, SI
	ADDQ        $32, DX
	DECQ        BX
	JNZ         zdotloop2

zdotreduce:
	VADDPD       Y2, Y0, Y0
	VADDPD       Y6, Y4, Y4
	VADDPD       Y4, Y0, Y0
	VADDPD       Y3, Y1, Y1
	VADDPD       Y7, Y5, Y5
	VADDPD       Y5, Y1, Y1
	VEXTRACTF128 $1, Y0, X2
	VADDPD       X2, X0, X0
	VEXTRACTF128 $1, Y1, X3
	VADDPD       X3, X1, X1
	TESTQ        $1, CX
	JZ           zdotcombine
	VMOVUPD      (SI), X8
	VMOVUPD      (DX), X12
	VPERMILPD    $1, X12, X13
	VFMADD231PD  X12, X8, X0
	VFMADD231PD  X13, X8, X1

zdotcombine:
	CMPB conj+48(FP), $0
	JNE  zdotconj
	VHSUBPD X0, X0, X4
	VHADDPD X1, X1, X5
	JMP     zdotstore

zdotconj:
	VHADDPD X0, X0, X4
	VHSUBPD X1, X1, X5

zdotstore:
	VMOVSD X4, ret_real+56(FP)
	VMOVSD X5, ret_imag+64(FP)
	VZEROUPPER
	RET

// func zscalFma(alpha complex128, x []complex128)
// x[0:n] *= alpha: with t = ai·swap(x), the product is ar·x ∓ t — real lanes
// ar·xr − ai·xi, imaginary lanes ar·xi + ai·xr — in one VFMADDSUB.
TEXT ·zscalFma(SB), NOSPLIT, $0-40
	VBROADCASTSD alpha_real+0(FP), Y8
	VBROADCASTSD alpha_imag+8(FP), Y9
	MOVQ         x_base+16(FP), SI
	MOVQ         x_len+24(FP), CX

	MOVQ CX, BX
	SHRQ $2, BX
	JZ   zscaltail2

zscalloop4:
	VMOVUPD        (SI), Y0
	VMOVUPD        32(SI), Y1
	VPERMILPD      $5, Y0, Y2
	VPERMILPD      $5, Y1, Y3
	VMULPD         Y2, Y9, Y2
	VMULPD         Y3, Y9, Y3
	VFMADDSUB231PD Y0, Y8, Y2
	VFMADDSUB231PD Y1, Y8, Y3
	VMOVUPD        Y2, (SI)
	VMOVUPD        Y3, 32(SI)
	ADDQ           $64, SI
	DECQ           BX
	JNZ            zscalloop4

zscaltail2:
	TESTQ $2, CX
	JZ    zscaltail1
	VMOVUPD        (SI), Y0
	VPERMILPD      $5, Y0, Y2
	VMULPD         Y2, Y9, Y2
	VFMADDSUB231PD Y0, Y8, Y2
	VMOVUPD        Y2, (SI)
	ADDQ           $32, SI

zscaltail1:
	TESTQ $1, CX
	JZ    zscaldone
	VMOVUPD        (SI), X0
	VPERMILPD      $1, X0, X2
	VMULPD         X2, X9, X2
	VFMADDSUB231PD X0, X8, X2
	VMOVUPD        X2, (SI)

zscaldone:
	VZEROUPPER
	RET
