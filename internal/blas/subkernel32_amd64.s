//go:build amd64

#include "textflag.h"

// float32 substitution and column-sweep kernels: the single-precision
// counterparts of dsubFma8/dgemvSub8/daxpyFma/ddotFma in
// gemmkernel_amd64.s, with the same register plans. One YMM register holds
// eight float32 lanes (twice the float64 width), so the main loops advance
// eight elements per load and the scalar tails run the SS forms of the same
// fused multiply-adds.

// func ssubFma8(n int64, x, a, c *float32, ldc int64)
// Eight-column substitution sweep: c_q[0:n] -= x[q] * a[0:n] for the eight
// coefficients x[0:8], the destination columns ldc elements apart.
TEXT ·ssubFma8(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), CX
	MOVQ x+8(FP), AX
	MOVQ a+16(FP), SI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8

	VBROADCASTSS (AX), Y8
	VBROADCASTSS 4(AX), Y9
	VBROADCASTSS 8(AX), Y10
	VBROADCASTSS 12(AX), Y11
	VBROADCASTSS 16(AX), Y12
	VBROADCASTSS 20(AX), Y13
	VBROADCASTSS 24(AX), Y14
	VBROADCASTSS 28(AX), Y15

	MOVQ CX, BX
	SHRQ $3, BX
	JZ   ssub8tail

ssub8loop8:
	VMOVUPS      (SI), Y0
	MOVQ         DX, R9
	VMOVUPS      (R9), Y1
	VFNMADD231PS Y0, Y8, Y1
	VMOVUPS      Y1, (R9)
	ADDQ         R8, R9
	VMOVUPS      (R9), Y2
	VFNMADD231PS Y0, Y9, Y2
	VMOVUPS      Y2, (R9)
	ADDQ         R8, R9
	VMOVUPS      (R9), Y3
	VFNMADD231PS Y0, Y10, Y3
	VMOVUPS      Y3, (R9)
	ADDQ         R8, R9
	VMOVUPS      (R9), Y4
	VFNMADD231PS Y0, Y11, Y4
	VMOVUPS      Y4, (R9)
	ADDQ         R8, R9
	VMOVUPS      (R9), Y5
	VFNMADD231PS Y0, Y12, Y5
	VMOVUPS      Y5, (R9)
	ADDQ         R8, R9
	VMOVUPS      (R9), Y6
	VFNMADD231PS Y0, Y13, Y6
	VMOVUPS      Y6, (R9)
	ADDQ         R8, R9
	VMOVUPS      (R9), Y7
	VFNMADD231PS Y0, Y14, Y7
	VMOVUPS      Y7, (R9)
	ADDQ         R8, R9
	VMOVUPS      (R9), Y1
	VFNMADD231PS Y0, Y15, Y1
	VMOVUPS      Y1, (R9)
	ADDQ         $32, SI
	ADDQ         $32, DX
	DECQ         BX
	JNZ          ssub8loop8

ssub8tail:
	ANDQ $7, CX
	JZ   ssub8done

ssub8loop1:
	VMOVSS       (SI), X0
	MOVQ         DX, R9
	VMOVSS       (R9), X1
	VFNMADD231SS X0, X8, X1
	VMOVSS       X1, (R9)
	ADDQ         R8, R9
	VMOVSS       (R9), X2
	VFNMADD231SS X0, X9, X2
	VMOVSS       X2, (R9)
	ADDQ         R8, R9
	VMOVSS       (R9), X3
	VFNMADD231SS X0, X10, X3
	VMOVSS       X3, (R9)
	ADDQ         R8, R9
	VMOVSS       (R9), X4
	VFNMADD231SS X0, X11, X4
	VMOVSS       X4, (R9)
	ADDQ         R8, R9
	VMOVSS       (R9), X5
	VFNMADD231SS X0, X12, X5
	VMOVSS       X5, (R9)
	ADDQ         R8, R9
	VMOVSS       (R9), X6
	VFNMADD231SS X0, X13, X6
	VMOVSS       X6, (R9)
	ADDQ         R8, R9
	VMOVSS       (R9), X7
	VFNMADD231SS X0, X14, X7
	VMOVSS       X7, (R9)
	ADDQ         R8, R9
	VMOVSS       (R9), X1
	VFNMADD231SS X0, X15, X1
	VMOVSS       X1, (R9)
	ADDQ         $4, SI
	ADDQ         $4, DX
	DECQ         CX
	JNZ          ssub8loop1

ssub8done:
	VZEROUPPER
	RET

// func sgemvSub8(n int64, t, b *float32, ldb int64, y *float32)
// Eight-column gather: y[0:n] -= sum_q t[q]*b_q[0:n], the eight source
// columns ldb elements apart. Four accumulators split the FMA chains so the
// loop is port-bound, not latency-bound.
TEXT ·sgemvSub8(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), CX
	MOVQ t+8(FP), AX
	MOVQ b+16(FP), SI
	MOVQ ldb+24(FP), R8
	MOVQ y+32(FP), DX
	SHLQ $2, R8

	VBROADCASTSS (AX), Y8
	VBROADCASTSS 4(AX), Y9
	VBROADCASTSS 8(AX), Y10
	VBROADCASTSS 12(AX), Y11
	VBROADCASTSS 16(AX), Y12
	VBROADCASTSS 20(AX), Y13
	VBROADCASTSS 24(AX), Y14
	VBROADCASTSS 28(AX), Y15

	MOVQ CX, BX
	SHRQ $3, BX
	JZ   sgv8tail

sgv8loop8:
	VMOVUPS      (DX), Y0
	VXORPS       Y1, Y1, Y1
	VXORPS       Y2, Y2, Y2
	VXORPS       Y3, Y3, Y3
	MOVQ         SI, R9
	VMOVUPS      (R9), Y4
	VFNMADD231PS Y4, Y8, Y0
	ADDQ         R8, R9
	VMOVUPS      (R9), Y5
	VFNMADD231PS Y5, Y9, Y1
	ADDQ         R8, R9
	VMOVUPS      (R9), Y6
	VFNMADD231PS Y6, Y10, Y2
	ADDQ         R8, R9
	VMOVUPS      (R9), Y7
	VFNMADD231PS Y7, Y11, Y3
	ADDQ         R8, R9
	VMOVUPS      (R9), Y4
	VFNMADD231PS Y4, Y12, Y0
	ADDQ         R8, R9
	VMOVUPS      (R9), Y5
	VFNMADD231PS Y5, Y13, Y1
	ADDQ         R8, R9
	VMOVUPS      (R9), Y6
	VFNMADD231PS Y6, Y14, Y2
	ADDQ         R8, R9
	VMOVUPS      (R9), Y7
	VFNMADD231PS Y7, Y15, Y3
	VADDPS       Y1, Y0, Y0
	VADDPS       Y3, Y2, Y2
	VADDPS       Y2, Y0, Y0
	VMOVUPS      Y0, (DX)
	ADDQ         $32, SI
	ADDQ         $32, DX
	DECQ         BX
	JNZ          sgv8loop8

sgv8tail:
	ANDQ $7, CX
	JZ   sgv8done

sgv8loop1:
	VMOVSS       (DX), X0
	MOVQ         SI, R9
	VMOVSS       (R9), X4
	VFNMADD231SS X4, X8, X0
	ADDQ         R8, R9
	VMOVSS       (R9), X5
	VFNMADD231SS X5, X9, X0
	ADDQ         R8, R9
	VMOVSS       (R9), X6
	VFNMADD231SS X6, X10, X0
	ADDQ         R8, R9
	VMOVSS       (R9), X7
	VFNMADD231SS X7, X11, X0
	ADDQ         R8, R9
	VMOVSS       (R9), X4
	VFNMADD231SS X4, X12, X0
	ADDQ         R8, R9
	VMOVSS       (R9), X5
	VFNMADD231SS X5, X13, X0
	ADDQ         R8, R9
	VMOVSS       (R9), X6
	VFNMADD231SS X6, X14, X0
	ADDQ         R8, R9
	VMOVSS       (R9), X7
	VFNMADD231SS X7, X15, X0
	VMOVSS       X0, (DX)
	ADDQ         $4, SI
	ADDQ         $4, DX
	DECQ         CX
	JNZ          sgv8loop1

sgv8done:
	VZEROUPPER
	RET

// func saxpyFma(n int64, alpha float32, x, y *float32)
// y[0:n] += alpha * x[0:n]. The shared inner step of unit-stride Gemv
// (NoTrans, one column) and Ger (one column).
TEXT ·saxpyFma(SB), NOSPLIT, $0-56
	VBROADCASTSS alpha+0(FP), Y8
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DX

	MOVQ CX, BX
	SHRQ $4, BX
	JZ   saxpytail8

saxpyloop16:
	VMOVUPS     (SI), Y0
	VMOVUPS     32(SI), Y1
	VMOVUPS     (DX), Y2
	VMOVUPS     32(DX), Y3
	VFMADD231PS Y0, Y8, Y2
	VFMADD231PS Y1, Y8, Y3
	VMOVUPS     Y2, (DX)
	VMOVUPS     Y3, 32(DX)
	ADDQ        $64, SI
	ADDQ        $64, DX
	DECQ        BX
	JNZ         saxpyloop16

saxpytail8:
	TESTQ $8, CX
	JZ    saxpytail1
	VMOVUPS     (SI), Y0
	VMOVUPS     (DX), Y2
	VFMADD231PS Y0, Y8, Y2
	VMOVUPS     Y2, (DX)
	ADDQ        $32, SI
	ADDQ        $32, DX

saxpytail1:
	ANDQ $7, CX
	JZ   saxpydone

saxpyloop1:
	VMOVSS      (SI), X0
	VMOVSS      (DX), X2
	VFMADD231SS X0, X8, X2
	VMOVSS      X2, (DX)
	ADDQ        $4, SI
	ADDQ        $4, DX
	DECQ        CX
	JNZ         saxpyloop1

saxpydone:
	VZEROUPPER
	RET

// func sdotFma(n int64, x, y *float32) float32
// Returns sum x[i]*y[i]. Four accumulators split the FMA chains; the
// horizontal reduction happens once, before the scalar tail.
TEXT ·sdotFma(SB), NOSPLIT, $0-60
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   y_base+24(FP), DX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	MOVQ CX, BX
	SHRQ $5, BX
	JZ   sdottail8

sdotloop32:
	VMOVUPS     (SI), Y4
	VMOVUPS     32(SI), Y5
	VMOVUPS     64(SI), Y6
	VMOVUPS     96(SI), Y7
	VMOVUPS     (DX), Y9
	VMOVUPS     32(DX), Y10
	VMOVUPS     64(DX), Y11
	VMOVUPS     96(DX), Y12
	VFMADD231PS Y9, Y4, Y0
	VFMADD231PS Y10, Y5, Y1
	VFMADD231PS Y11, Y6, Y2
	VFMADD231PS Y12, Y7, Y3
	ADDQ        $128, SI
	ADDQ        $128, DX
	DECQ        BX
	JNZ         sdotloop32

sdottail8:
	MOVQ CX, BX
	ANDQ $31, BX
	SHRQ $3, BX
	JZ   sdotreduce

sdotloop8:
	VMOVUPS     (SI), Y4
	VMOVUPS     (DX), Y9
	VFMADD231PS Y9, Y4, Y0
	ADDQ        $32, SI
	ADDQ        $32, DX
	DECQ        BX
	JNZ         sdotloop8

sdotreduce:
	VADDPS       Y1, Y0, Y0
	VADDPS       Y3, Y2, Y2
	VADDPS       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	ANDQ         $7, CX
	JZ           sdotdone

sdotloop1:
	VMOVSS      (SI), X4
	VMOVSS      (DX), X5
	VFMADD231SS X5, X4, X0
	ADDQ        $4, SI
	ADDQ        $4, DX
	DECQ        CX
	JNZ         sdotloop1

sdotdone:
	VMOVSS     X0, ret+56(FP)
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

// func sscalFma(n int64, alpha float32, x *float32)
// x[0:n] *= alpha. Unit-stride float32 Scal, the per-column pivot scaling
// of the single-precision LU panels.
TEXT ·sscalFma(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Y8
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX

	MOVQ CX, BX
	SHRQ $4, BX
	JZ   sscaltail8

sscalloop16:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMULPS  Y8, Y0, Y0
	VMULPS  Y8, Y1, Y1
	VMOVUPS Y0, (SI)
	VMOVUPS Y1, 32(SI)
	ADDQ    $64, SI
	DECQ    BX
	JNZ     sscalloop16

sscaltail8:
	TESTQ $8, CX
	JZ    sscaltail1
	VMOVUPS (SI), Y0
	VMULPS  Y8, Y0, Y0
	VMOVUPS Y0, (SI)
	ADDQ    $32, SI

sscaltail1:
	ANDQ $7, CX
	JZ   sscaldone

sscalloop1:
	VMOVSS (SI), X0
	VMULSS X8, X0, X0
	VMOVSS X0, (SI)
	ADDQ   $4, SI
	DECQ   CX
	JNZ    sscalloop1

sscaldone:
	VZEROUPPER
	RET

// func siamaxF32(n int64, x *float32) int64
// Index of the first element of x[0:n] with the largest |x[i]|: the float32
// port of diamaxF64, two passes — a branch-free 8-lane vector max (NaN
// elements never enter the accumulator), then a compare pass that stops at
// the first lane equal to it. Callers guard n >= 1 and x[0] not NaN.
TEXT ·siamaxF32(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ x+8(FP), SI

	MOVL         $0x7FFFFFFF, AX
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10           // |x| mask
	MOVL         $0xFF800000, AX
	VMOVD        AX, X0
	VBROADCASTSS X0, Y0             // running max = -Inf

	XORQ DX, DX

siamax8:
	LEAQ    8(DX), BX
	CMPQ    BX, CX
	JGT     siamaxred
	VMOVUPS (SI)(DX*4), Y1
	VANDPS  Y10, Y1, Y1
	VMAXPS  Y0, Y1, Y0              // NaN lanes keep the accumulator
	MOVQ    BX, DX
	JMP     siamax8

siamaxred:
	// Reduce the eight lane maxima to a scalar before the tail (the lanes
	// hold only finite values or -Inf, so reduction order is free).
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X0, X1, X0
	VPERMILPS    $0x4E, X0, X1
	VMAXPS       X0, X1, X0
	VPERMILPS    $0xB1, X0, X1
	VMAXSS       X0, X1, X0

siamaxtail:
	CMPQ   DX, CX
	JGE    siamaxeq
	VMOVSS (SI)(DX*4), X1
	VANDPS X10, X1, X1
	VMAXSS X0, X1, X0               // NaN keeps the accumulator
	INCQ   DX
	JMP    siamaxtail

siamaxeq:
	VBROADCASTSS X0, Y2
	XORQ         DX, DX

siamaxeq8:
	LEAQ      8(DX), BX
	CMPQ      BX, CX
	JGT       siamaxeqtail
	VMOVUPS   (SI)(DX*4), Y1
	VANDPS    Y10, Y1, Y1
	VCMPPS    $0, Y2, Y1, Y3        // EQ_OQ: false for NaN lanes
	VMOVMSKPS Y3, AX
	TESTQ     AX, AX
	JNZ       siamaxhit8
	MOVQ      BX, DX
	JMP       siamaxeq8

siamaxhit8:
	BSFQ AX, AX
	ADDQ AX, DX
	MOVQ DX, ret+16(FP)
	VZEROUPPER
	RET

siamaxeqtail:
	CMPQ     DX, CX
	JGE      siamaxnone
	VMOVSS   (SI)(DX*4), X1
	VANDPS   X10, X1, X1
	VUCOMISS X0, X1
	JP       siamaxnext             // unordered: NaN element, skip
	JEQ      siamaxhit1

siamaxnext:
	INCQ DX
	JMP  siamaxeqtail

siamaxhit1:
	MOVQ DX, ret+16(FP)
	VZEROUPPER
	RET

siamaxnone:
	MOVQ $0, ret+16(FP)
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

// Complex64 Level-1 leaves on the real view, the single-precision forms of
// zaxpyFma/zdotFma in gemmkernel_amd64.s: a YMM register holds four
// complex64 values, VPERMILPS $0xB1 swaps re and im inside each.

// negEvenPS flips the sign of the even (real-part) lanes.
DATA negEvenPS<>+0(SB)/8, $0x0000000080000000
DATA negEvenPS<>+8(SB)/8, $0x0000000080000000
DATA negEvenPS<>+16(SB)/8, $0x0000000080000000
DATA negEvenPS<>+24(SB)/8, $0x0000000080000000
GLOBL negEvenPS<>(SB), RODATA|NOPTR, $32

// func caxpyFma(alpha complex64, x, y []complex64)
// y[0:n] += alpha·x[0:n] over len(x) elements (see zaxpyFma). The last odd
// element is loaded into the low half of an XMM register; the zeroed lanes
// above it are computed on and not stored.
TEXT ·caxpyFma(SB), NOSPLIT, $0-56
	VBROADCASTSS alpha_real+0(FP), Y8
	VBROADCASTSS alpha_imag+4(FP), Y9
	VXORPS       negEvenPS<>(SB), Y9, Y9
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DX

	MOVQ CX, BX
	SHRQ $3, BX
	JZ   caxpytail4

caxpyloop8:
	VMOVUPS     (SI), Y0
	VMOVUPS     32(SI), Y1
	VPERMILPS   $0xB1, Y0, Y2
	VPERMILPS   $0xB1, Y1, Y3
	VMOVUPS     (DX), Y4
	VMOVUPS     32(DX), Y5
	VFMADD231PS Y0, Y8, Y4
	VFMADD231PS Y1, Y8, Y5
	VFMADD231PS Y2, Y9, Y4
	VFMADD231PS Y3, Y9, Y5
	VMOVUPS     Y4, (DX)
	VMOVUPS     Y5, 32(DX)
	ADDQ        $64, SI
	ADDQ        $64, DX
	DECQ        BX
	JNZ         caxpyloop8

caxpytail4:
	TESTQ $4, CX
	JZ    caxpytail2
	VMOVUPS     (SI), Y0
	VPERMILPS   $0xB1, Y0, Y2
	VMOVUPS     (DX), Y4
	VFMADD231PS Y0, Y8, Y4
	VFMADD231PS Y2, Y9, Y4
	VMOVUPS     Y4, (DX)
	ADDQ        $32, SI
	ADDQ        $32, DX

caxpytail2:
	TESTQ $2, CX
	JZ    caxpytail1
	VMOVUPS     (SI), X0
	VPERMILPS   $0xB1, X0, X2
	VMOVUPS     (DX), X4
	VFMADD231PS X0, X8, X4
	VFMADD231PS X2, X9, X4
	VMOVUPS     X4, (DX)
	ADDQ        $16, SI
	ADDQ        $16, DX

caxpytail1:
	TESTQ $1, CX
	JZ    caxpydone
	VMOVSD      (SI), X0
	VPERMILPS   $0xB1, X0, X2
	VMOVSD      (DX), X4
	VFMADD231PS X0, X8, X4
	VFMADD231PS X2, X9, X4
	VMOVSD      X4, (DX)

caxpydone:
	VZEROUPPER
	RET

// func cdotFma(x, y []complex64, conj bool) complex64
// Returns Σ x[i]·y[i], or Σ conj(x[i])·y[i] when conj is set, over len(x)
// elements (see zdotFma): four vectors of four elements per step on eight
// accumulators, the last one to three elements on the XMM halves after the
// reduction.
TEXT ·cdotFma(SB), NOSPLIT, $0-64
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   y_base+24(FP), DX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	MOVQ CX, BX
	SHRQ $4, BX
	JZ   cdottail4

cdotloop16:
	VMOVUPS     (SI), Y8
	VMOVUPS     32(SI), Y9
	VMOVUPS     64(SI), Y10
	VMOVUPS     96(SI), Y11
	VMOVUPS     (DX), Y12
	VPERMILPS   $0xB1, Y12, Y13
	VFMADD231PS Y12, Y8, Y0
	VFMADD231PS Y13, Y8, Y1
	VMOVUPS     32(DX), Y14
	VPERMILPS   $0xB1, Y14, Y15
	VFMADD231PS Y14, Y9, Y2
	VFMADD231PS Y15, Y9, Y3
	VMOVUPS     64(DX), Y12
	VPERMILPS   $0xB1, Y12, Y13
	VFMADD231PS Y12, Y10, Y4
	VFMADD231PS Y13, Y10, Y5
	VMOVUPS     96(DX), Y14
	VPERMILPS   $0xB1, Y14, Y15
	VFMADD231PS Y14, Y11, Y6
	VFMADD231PS Y15, Y11, Y7
	ADDQ        $128, SI
	ADDQ        $128, DX
	DECQ        BX
	JNZ         cdotloop16

cdottail4:
	MOVQ CX, BX
	ANDQ $15, BX
	SHRQ $2, BX
	JZ   cdotreduce

cdotloop4:
	VMOVUPS     (SI), Y8
	VMOVUPS     (DX), Y12
	VPERMILPS   $0xB1, Y12, Y13
	VFMADD231PS Y12, Y8, Y0
	VFMADD231PS Y13, Y8, Y1
	ADDQ        $32, SI
	ADDQ        $32, DX
	DECQ        BX
	JNZ         cdotloop4

cdotreduce:
	VADDPS       Y2, Y0, Y0
	VADDPS       Y6, Y4, Y4
	VADDPS       Y4, Y0, Y0
	VADDPS       Y3, Y1, Y1
	VADDPS       Y7, Y5, Y5
	VADDPS       Y5, Y1, Y1
	VEXTRACTF128 $1, Y0, X2
	VADDPS       X2, X0, X0
	VEXTRACTF128 $1, Y1, X3
	VADDPS       X3, X1, X1
	TESTQ        $2, CX
	JZ           cdottail1
	VMOVUPS      (SI), X8
	VMOVUPS      (DX), X12
	VPERMILPS    $0xB1, X12, X13
	VFMADD231PS  X12, X8, X0
	VFMADD231PS  X13, X8, X1
	ADDQ         $16, SI
	ADDQ         $16, DX

cdottail1:
	TESTQ        $1, CX
	JZ           cdotcombine
	VMOVSD       (SI), X8
	VMOVSD       (DX), X12
	VPERMILPS    $0xB1, X12, X13
	VFMADD231PS  X12, X8, X0
	VFMADD231PS  X13, X8, X1

cdotcombine:
	// Fold the two elements of each XMM accumulator, then combine the lanes.
	VPERMILPS $0x4E, X0, X2
	VADDPS    X2, X0, X0
	VPERMILPS $0x4E, X1, X3
	VADDPS    X3, X1, X1
	CMPB      conj+48(FP), $0
	JNE       cdotconj
	VHSUBPS   X0, X0, X4
	VHADDPS   X1, X1, X5
	JMP       cdotstore

cdotconj:
	VHADDPS X0, X0, X4
	VHSUBPS X1, X1, X5

cdotstore:
	VMOVSS X4, ret_real+56(FP)
	VMOVSS X5, ret_imag+60(FP)
	VZEROUPPER
	RET

// func cscalFma(alpha complex64, x []complex64)
// x[0:n] *= alpha (see zscalFma).
TEXT ·cscalFma(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha_real+0(FP), Y8
	VBROADCASTSS alpha_imag+4(FP), Y9
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX

	MOVQ CX, BX
	SHRQ $3, BX
	JZ   cscaltail4

cscalloop8:
	VMOVUPS        (SI), Y0
	VMOVUPS        32(SI), Y1
	VPERMILPS      $0xB1, Y0, Y2
	VPERMILPS      $0xB1, Y1, Y3
	VMULPS         Y2, Y9, Y2
	VMULPS         Y3, Y9, Y3
	VFMADDSUB231PS Y0, Y8, Y2
	VFMADDSUB231PS Y1, Y8, Y3
	VMOVUPS        Y2, (SI)
	VMOVUPS        Y3, 32(SI)
	ADDQ           $64, SI
	DECQ           BX
	JNZ            cscalloop8

cscaltail4:
	TESTQ $4, CX
	JZ    cscaltail2
	VMOVUPS        (SI), Y0
	VPERMILPS      $0xB1, Y0, Y2
	VMULPS         Y2, Y9, Y2
	VFMADDSUB231PS Y0, Y8, Y2
	VMOVUPS        Y2, (SI)
	ADDQ           $32, SI

cscaltail2:
	TESTQ $2, CX
	JZ    cscaltail1
	VMOVUPS        (SI), X0
	VPERMILPS      $0xB1, X0, X2
	VMULPS         X2, X9, X2
	VFMADDSUB231PS X0, X8, X2
	VMOVUPS        X2, (SI)
	ADDQ           $16, SI

cscaltail1:
	TESTQ $1, CX
	JZ    cscaldone
	VMOVSD         (SI), X0
	VPERMILPS      $0xB1, X0, X2
	VMULPS         X2, X9, X2
	VFMADDSUB231PS X0, X8, X2
	VMOVSD         X2, (SI)

cscaldone:
	VZEROUPPER
	RET
