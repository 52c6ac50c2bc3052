//go:build amd64

#include "textflag.h"

// The Level-1/2 and substitution leaves of the AVX2+FMA rows (the kernel
// table, kernel.go). Each leaf is one body for both precisions — float64 and
// float32, or complex128 and complex64 on the real view — parameterised by
// its mnemonics and by LOGES, log2 of the real element size in bytes, so a
// 32-byte YMM vector holds 32>>LOGES elements (ES for the one body that
// needs the element size as an index scale). Every body ends the same way:
// full vectors, then the shorter tails down to one element, each on the
// narrower form of the same fused multiply-adds, which is the arithmetic the
// portable Go loops cannot reach (the compiler emits separate multiplies and
// adds on amd64).

// The macros come first and the entry points after them: go vet checks the
// argument names of every line against the TEXT symbol last seen, a macro's
// definition included.

// BCAST8 broadcasts the eight coefficients at AX into Y8..Y15.
#define BCAST8(BCAST, LOGES) \
	BCAST (0<<LOGES)(AX), Y8; \
	BCAST (1<<LOGES)(AX), Y9; \
	BCAST (2<<LOGES)(AX), Y10; \
	BCAST (3<<LOGES)(AX), Y11; \
	BCAST (4<<LOGES)(AX), Y12; \
	BCAST (5<<LOGES)(AX), Y13; \
	BCAST (6<<LOGES)(AX), Y14; \
	BCAST (7<<LOGES)(AX), Y15

// SUBCOL is c_q -= x[q]·a on the rows of the destination column at R9: A
// holds the rows of a, X the broadcast x[q], T is scratch.
#define SUBCOL(MOV, FNMA, A, X, T) \
	MOV  (R9), T; \
	FNMA A, X, T; \
	MOV  T, (R9)

// SUB8 is dsubFma8/ssubFma8: c_q[0:n] -= x[q]·a[0:n] for the eight columns
// q = 0..7 of c, ldc elements apart, one vector of rows per step, then one
// row per step.
#define SUB8(BCAST, MOVU, FNMA, MOVS, FNMAS, LOGES) \
	MOVQ n+0(FP), CX; \
	MOVQ x+8(FP), AX; \
	MOVQ a+16(FP), SI; \
	MOVQ c+24(FP), DX; \
	MOVQ ldc+32(FP), R8; \
	SHLQ $LOGES, R8; \
	BCAST8(BCAST, LOGES); \
	MOVQ CX, BX; \
	SHRQ $(5-LOGES), BX; \
	JZ   tail; \
loop: \
	MOVU (SI), Y0; \
	MOVQ DX, R9; \
	SUBCOL(MOVU, FNMA, Y0, Y8, Y1); \
	ADDQ R8, R9; \
	SUBCOL(MOVU, FNMA, Y0, Y9, Y2); \
	ADDQ R8, R9; \
	SUBCOL(MOVU, FNMA, Y0, Y10, Y3); \
	ADDQ R8, R9; \
	SUBCOL(MOVU, FNMA, Y0, Y11, Y4); \
	ADDQ R8, R9; \
	SUBCOL(MOVU, FNMA, Y0, Y12, Y5); \
	ADDQ R8, R9; \
	SUBCOL(MOVU, FNMA, Y0, Y13, Y6); \
	ADDQ R8, R9; \
	SUBCOL(MOVU, FNMA, Y0, Y14, Y7); \
	ADDQ R8, R9; \
	SUBCOL(MOVU, FNMA, Y0, Y15, Y1); \
	ADDQ $32, SI; \
	ADDQ $32, DX; \
	DECQ BX; \
	JNZ  loop; \
tail: \
	ANDQ $((32>>LOGES)-1), CX; \
	JZ   done; \
loop1: \
	MOVS (SI), X0; \
	MOVQ DX, R9; \
	SUBCOL(MOVS, FNMAS, X0, X8, X1); \
	ADDQ R8, R9; \
	SUBCOL(MOVS, FNMAS, X0, X9, X2); \
	ADDQ R8, R9; \
	SUBCOL(MOVS, FNMAS, X0, X10, X3); \
	ADDQ R8, R9; \
	SUBCOL(MOVS, FNMAS, X0, X11, X4); \
	ADDQ R8, R9; \
	SUBCOL(MOVS, FNMAS, X0, X12, X5); \
	ADDQ R8, R9; \
	SUBCOL(MOVS, FNMAS, X0, X13, X6); \
	ADDQ R8, R9; \
	SUBCOL(MOVS, FNMAS, X0, X14, X7); \
	ADDQ R8, R9; \
	SUBCOL(MOVS, FNMAS, X0, X15, X1); \
	ADDQ $(1<<LOGES), SI; \
	ADDQ $(1<<LOGES), DX; \
	DECQ CX; \
	JNZ  loop1; \
done: \
	VZEROUPPER; \
	RET

// GVCOL folds the source column at R9 into the accumulator ACC:
// ACC -= X·b_q, T scratch.
#define GVCOL(MOV, FNMA, T, X, ACC) \
	MOV  (R9), T; \
	FNMA T, X, ACC

// GEMVSUB8 is dgemvSub8/sgemvSub8: y[0:n] -= Σ_q t[q]·b_q[0:n], the eight
// source columns ldb elements apart. Four accumulators split the FMA chains
// of a vector step so the loop is port-bound, not latency-bound; a row step
// chains all eight.
#define GEMVSUB8(BCAST, MOVU, XOR, FNMA, ADD, MOVS, FNMAS, LOGES) \
	MOVQ n+0(FP), CX; \
	MOVQ t+8(FP), AX; \
	MOVQ b+16(FP), SI; \
	MOVQ ldb+24(FP), R8; \
	MOVQ y+32(FP), DX; \
	SHLQ $LOGES, R8; \
	BCAST8(BCAST, LOGES); \
	MOVQ CX, BX; \
	SHRQ $(5-LOGES), BX; \
	JZ   tail; \
loop: \
	MOVU (DX), Y0; \
	XOR  Y1, Y1, Y1; \
	XOR  Y2, Y2, Y2; \
	XOR  Y3, Y3, Y3; \
	MOVQ SI, R9; \
	GVCOL(MOVU, FNMA, Y4, Y8, Y0); \
	ADDQ R8, R9; \
	GVCOL(MOVU, FNMA, Y5, Y9, Y1); \
	ADDQ R8, R9; \
	GVCOL(MOVU, FNMA, Y6, Y10, Y2); \
	ADDQ R8, R9; \
	GVCOL(MOVU, FNMA, Y7, Y11, Y3); \
	ADDQ R8, R9; \
	GVCOL(MOVU, FNMA, Y4, Y12, Y0); \
	ADDQ R8, R9; \
	GVCOL(MOVU, FNMA, Y5, Y13, Y1); \
	ADDQ R8, R9; \
	GVCOL(MOVU, FNMA, Y6, Y14, Y2); \
	ADDQ R8, R9; \
	GVCOL(MOVU, FNMA, Y7, Y15, Y3); \
	ADD  Y1, Y0, Y0; \
	ADD  Y3, Y2, Y2; \
	ADD  Y2, Y0, Y0; \
	MOVU Y0, (DX); \
	ADDQ $32, SI; \
	ADDQ $32, DX; \
	DECQ BX; \
	JNZ  loop; \
tail: \
	ANDQ $((32>>LOGES)-1), CX; \
	JZ   done; \
loop1: \
	MOVS (DX), X0; \
	MOVQ SI, R9; \
	GVCOL(MOVS, FNMAS, X4, X8, X0); \
	ADDQ R8, R9; \
	GVCOL(MOVS, FNMAS, X5, X9, X0); \
	ADDQ R8, R9; \
	GVCOL(MOVS, FNMAS, X6, X10, X0); \
	ADDQ R8, R9; \
	GVCOL(MOVS, FNMAS, X7, X11, X0); \
	ADDQ R8, R9; \
	GVCOL(MOVS, FNMAS, X4, X12, X0); \
	ADDQ R8, R9; \
	GVCOL(MOVS, FNMAS, X5, X13, X0); \
	ADDQ R8, R9; \
	GVCOL(MOVS, FNMAS, X6, X14, X0); \
	ADDQ R8, R9; \
	GVCOL(MOVS, FNMAS, X7, X15, X0); \
	MOVS X0, (DX); \
	ADDQ $(1<<LOGES), SI; \
	ADDQ $(1<<LOGES), DX; \
	DECQ CX; \
	JNZ  loop1; \
done: \
	VZEROUPPER; \
	RET

// AXPYV is y += alpha·x on one vector (or element) of rows at SI and DX:
// alpha in ALPHA, X and Y scratch.
#define AXPYV(MOV, FMA, X, Y, ALPHA) \
	MOV (SI), X; \
	MOV (DX), Y; \
	FMA X, ALPHA, Y; \
	MOV Y, (DX)

// AXPY is daxpyFma/saxpyFma: y[0:n] += alpha·x[0:n], n = len(x), two
// vectors per step, then one, then single elements. The shared inner step of
// unit-stride Gemv (NoTrans, one column) and Ger (one column).
#define AXPY(BCAST, MOVU, FMA, MOVS, FMAS, LOGES) \
	BCAST alpha+0(FP), Y8; \
	MOVQ  x_base+8(FP), SI; \
	MOVQ  x_len+16(FP), CX; \
	MOVQ  y_base+32(FP), DX; \
	MOVQ  CX, BX; \
	SHRQ  $(6-LOGES), BX; \
	JZ    vec; \
loop: \
	MOVU  (SI), Y0; \
	MOVU  32(SI), Y1; \
	MOVU  (DX), Y2; \
	MOVU  32(DX), Y3; \
	FMA   Y0, Y8, Y2; \
	FMA   Y1, Y8, Y3; \
	MOVU  Y2, (DX); \
	MOVU  Y3, 32(DX); \
	ADDQ  $64, SI; \
	ADDQ  $64, DX; \
	DECQ  BX; \
	JNZ   loop; \
vec: \
	TESTQ $(32>>LOGES), CX; \
	JZ    tail; \
	AXPYV(MOVU, FMA, Y0, Y2, Y8); \
	ADDQ  $32, SI; \
	ADDQ  $32, DX; \
tail: \
	ANDQ  $((32>>LOGES)-1), CX; \
	JZ    done; \
loop1: \
	AXPYV(MOVS, FMAS, X0, X2, X8); \
	ADDQ  $(1<<LOGES), SI; \
	ADDQ  $(1<<LOGES), DX; \
	DECQ  CX; \
	JNZ   loop1; \
done: \
	VZEROUPPER; \
	RET

// HSUMPD and HSUMPS add the lanes of X0 into its low element: one
// horizontal add for two float64 lanes, two for four float32 ones.
#define HSUMPD VHADDPD X0, X0, X0

#define HSUMPS \
	VHADDPS X0, X0, X0; \
	VHADDPS X0, X0, X0

// DOT is ddotFma/sdotFma: Σ x[i]·y[i] over n = len(x). Four accumulators
// split the FMA chains of four vectors per step, then one vector per step
// into the first; the horizontal reduction happens once, before the scalar
// tail.
#define DOT(XOR, MOVU, FMA, ADD, HSUM, MOVS, FMAS, LOGES) \
	MOVQ   x_base+0(FP), SI; \
	MOVQ   x_len+8(FP), CX; \
	MOVQ   y_base+24(FP), DX; \
	XOR    Y0, Y0, Y0; \
	XOR    Y1, Y1, Y1; \
	XOR    Y2, Y2, Y2; \
	XOR    Y3, Y3, Y3; \
	MOVQ   CX, BX; \
	SHRQ   $(7-LOGES), BX; \
	JZ     vec; \
loop: \
	MOVU   (SI), Y4; \
	MOVU   32(SI), Y5; \
	MOVU   64(SI), Y6; \
	MOVU   96(SI), Y7; \
	MOVU   (DX), Y9; \
	MOVU   32(DX), Y10; \
	MOVU   64(DX), Y11; \
	MOVU   96(DX), Y12; \
	FMA    Y9, Y4, Y0; \
	FMA    Y10, Y5, Y1; \
	FMA    Y11, Y6, Y2; \
	FMA    Y12, Y7, Y3; \
	ADDQ   $128, SI; \
	ADDQ   $128, DX; \
	DECQ   BX; \
	JNZ    loop; \
vec: \
	MOVQ   CX, BX; \
	ANDQ   $((128>>LOGES)-1), BX; \
	SHRQ   $(5-LOGES), BX; \
	JZ     reduce; \
loopv: \
	MOVU   (SI), Y4; \
	MOVU   (DX), Y9; \
	FMA    Y9, Y4, Y0; \
	ADDQ   $32, SI; \
	ADDQ   $32, DX; \
	DECQ   BX; \
	JNZ    loopv; \
reduce: \
	ADD    Y1, Y0, Y0; \
	ADD    Y3, Y2, Y2; \
	ADD    Y2, Y0, Y0; \
	VEXTRACTF128 $1, Y0, X1; \
	ADD    X1, X0, X0; \
	HSUM; \
	ANDQ   $((32>>LOGES)-1), CX; \
	JZ     done; \
loop1: \
	MOVS   (SI), X4; \
	MOVS   (DX), X5; \
	FMAS   X5, X4, X0; \
	ADDQ   $(1<<LOGES), SI; \
	ADDQ   $(1<<LOGES), DX; \
	DECQ   CX; \
	JNZ    loop1; \
done: \
	MOVS   X0, ret+56(FP); \
	VZEROUPPER; \
	RET

// HMAXPD and HMAXPS finish the reduction of the lane maxima in X0 to its
// low element: one exchange for two float64 lanes, two for four float32
// ones (the lanes hold only finite values or -Inf, so the order is free).
#define HMAXPD \
	VPERMILPD $1, X0, X1; \
	VMAXSD    X0, X1, X0

#define HMAXPS \
	VPERMILPS $0x4E, X0, X1; \
	VMAXPS    X0, X1, X0; \
	VPERMILPS $0xB1, X0, X1; \
	VMAXSS    X0, X1, X0

// IAMAX is diamaxF64/siamaxF32 over elements of ES bytes: the index of the
// first element of x[0:n] with the largest |x[i]|, in two passes — a
// branch-free vector max (NaN elements never enter the accumulator, as in
// the scalar loop), then a compare pass that stops at the first lane equal
// to it. MOVI, VMOVI and PBCAST build the |x| mask ABS in Y10 and -Inf
// (NEGINF) in Y0. Callers guard n >= 1 and x[0] not NaN.
#define IAMAX(MOVI, VMOVI, PBCAST, ABS, NEGINF, BCAST, MOVU, AND, MAX, HMAX, MOVS, MAXS, CMP, MOVMSK, UCOMIS, ES) \
	MOVQ   n+0(FP), CX; \
	MOVQ   x+8(FP), SI; \
	MOVI   $ABS, AX; \
	VMOVI  AX, X10; \
	PBCAST X10, Y10; \
	MOVI   $NEGINF, AX; \
	VMOVI  AX, X0; \
	BCAST  X0, Y0; \
	XORQ   DX, DX; \
max: \
	LEAQ   (32/ES)(DX), BX; \
	CMPQ   BX, CX; \
	JGT    red; \
	MOVU   (SI)(DX*ES), Y1; \
	AND    Y10, Y1, Y1; \
	MAX    Y0, Y1, Y0; \
	MOVQ   BX, DX; \
	JMP    max; \
red: \
	VEXTRACTF128 $1, Y0, X1; \
	MAX    X0, X1, X0; \
	HMAX; \
tail: \
	CMPQ   DX, CX; \
	JGE    eq; \
	MOVS   (SI)(DX*ES), X1; \
	AND    X10, X1, X1; \
	MAXS   X0, X1, X0; \
	INCQ   DX; \
	JMP    tail; \
eq: \
	BCAST  X0, Y2; \
	XORQ   DX, DX; \
eqv: \
	LEAQ   (32/ES)(DX), BX; \
	CMPQ   BX, CX; \
	JGT    eqtail; \
	MOVU   (SI)(DX*ES), Y1; \
	AND    Y10, Y1, Y1; \
	CMP    $0, Y2, Y1, Y3; \
	MOVMSK Y3, AX; \
	TESTQ  AX, AX; \
	JNZ    hitv; \
	MOVQ   BX, DX; \
	JMP    eqv; \
hitv: \
	BSFQ   AX, AX; \
	ADDQ   AX, DX; \
	MOVQ   DX, ret+16(FP); \
	VZEROUPPER; \
	RET; \
eqtail: \
	CMPQ   DX, CX; \
	JGE    none; \
	MOVS   (SI)(DX*ES), X1; \
	AND    X10, X1, X1; \
	UCOMIS X0, X1; \
	JP     next; \
	JEQ    hit1; \
next: \
	INCQ   DX; \
	JMP    eqtail; \
hit1: \
	MOVQ   DX, ret+16(FP); \
	VZEROUPPER; \
	RET; \
none: \
	MOVQ   $0, ret+16(FP); \
	VZEROUPPER; \
	RET

// The complex leaves work on the real view: a YMM register holds
// 16>>LOGES complex elements as [re, im, re, im, …], and a complex
// multiply-add is two real FMAs per vector — one with the vector as loaded,
// one with re and im swapped inside each element (PERM with the immediate
// SY on a YMM, SX on an XMM register). Two vectors per step, then one, then
// half of one (an XMM register, which is one complex128); complex64 has one
// more level, a single element on the low half of an XMM register. TAIL128
// and TAIL64 are that last level: TAIL128 only places the label one: that
// the level above jumps to when it is skipped, TAIL64 advances past the
// level above (ADV) and runs OP on the last element if n is odd.
#define TAIL128(NEXT, ADV, OP) \
one:

#define TAIL64(NEXT, ADV, OP) \
	ADV(16); \
one: \
	TESTQ $1, CX; \
	JZ    NEXT; \
	OP

// ADV2 and ADV1 advance the cursors of two operands or of one by N bytes.
#define ADV2(N) ADDQ $N, SI; ADDQ $N, DX
#define ADV1(N) ADDQ $N, SI

// CAXPYV is y += alpha·x on one vector (or element) at SI and DX, with
// Y8 = [ar, ar, …] and Y9 = [−ai, ai, …] (or their XMM halves A, AI): y +=
// A·x, then y += AI·swap(x), which adds ar·xr − ai·xi to the real lanes and
// ar·xi + ai·xr to the imaginary ones.
#define CAXPYV(MOV, PERM, S, FMA, X, XS, Y, A, AI) \
	MOV  (SI), X; \
	PERM $S, X, XS; \
	MOV  (DX), Y; \
	FMA  X, A, Y; \
	FMA  XS, AI, Y; \
	MOV  Y, (DX)

// CAXPY is zaxpyFma/caxpyFma: y[0:n] += alpha·x[0:n] over n = len(x)
// elements. The lanes of a narrower load above the element are zeroed,
// computed on and not stored.
#define CAXPY(BCAST, XOR, NEG, MOVU, PERM, SY, SX, FMA, LOGES, TAIL) \
	BCAST alpha_real+0(FP), Y8; \
	BCAST alpha_imag+(1<<LOGES)(FP), Y9; \
	XOR   NEG<>(SB), Y9, Y9; \
	MOVQ  x_base+(2<<LOGES)(FP), SI; \
	MOVQ  x_len+((2<<LOGES)+8)(FP), CX; \
	MOVQ  y_base+((2<<LOGES)+24)(FP), DX; \
	MOVQ  CX, BX; \
	SHRQ  $(5-LOGES), BX; \
	JZ    vec; \
loop: \
	MOVU  (SI), Y0; \
	MOVU  32(SI), Y1; \
	PERM  $SY, Y0, Y2; \
	PERM  $SY, Y1, Y3; \
	MOVU  (DX), Y4; \
	MOVU  32(DX), Y5; \
	FMA   Y0, Y8, Y4; \
	FMA   Y1, Y8, Y5; \
	FMA   Y2, Y9, Y4; \
	FMA   Y3, Y9, Y5; \
	MOVU  Y4, (DX); \
	MOVU  Y5, 32(DX); \
	ADDQ  $64, SI; \
	ADDQ  $64, DX; \
	DECQ  BX; \
	JNZ   loop; \
vec: \
	TESTQ $(16>>LOGES), CX; \
	JZ    half; \
	CAXPYV(MOVU, PERM, SY, FMA, Y0, Y2, Y4, Y8, Y9); \
	ADV2(32); \
half: \
	TESTQ $(8>>LOGES), CX; \
	JZ    one; \
	CAXPYV(MOVU, PERM, SX, FMA, X0, X2, X4, X8, X9); \
	TAIL(done, ADV2, CAXPYV(VMOVSD, PERM, SX, FMA, X0, X2, X4, X8, X9)); \
done: \
	VZEROUPPER; \
	RET

// CDOTV accumulates x·y lane by lane into ACC ([xr·yr, xi·yi]) and
// x·swap(y) into ACCS ([xr·yi, xi·yr]) on one vector (or element) at SI and
// DX.
#define CDOTV(MOV, PERM, S, FMA, X, Y, YS, ACC, ACCS) \
	MOV  (SI), X; \
	MOV  (DX), Y; \
	PERM $S, Y, YS; \
	FMA  Y, X, ACC; \
	FMA  YS, X, ACCS

// FOLD64 adds the two elements of each XMM accumulator of cdotFma; a
// complex128 accumulator holds one (NOFOLD).
#define FOLD64 \
	VPERMILPS $0x4E, X0, X2; \
	VADDPS    X2, X0, X0; \
	VPERMILPS $0x4E, X1, X3; \
	VADDPS    X3, X1, X1

#define NOFOLD

// CDOT is zdotFma/cdotFma: Σ x[i]·y[i], or Σ conj(x[i])·y[i] when conj is
// set, over n = len(x) elements. The sweep is the same for both: one set of
// accumulators gathers x·y, the other x·swap(y); the conjugation only
// decides how the lanes combine at the end — (rr − ii, ri + ir) plain,
// (rr + ii, ri − ir) conjugated. Four vectors per step on eight
// accumulators, then one vector per step, and the tails below a vector on
// the XMM halves after the reduction.
#define CDOT(XOR, MOVU, PERM, SY, SX, FMA, ADD, HADD, HSUB, MOVS, LOGES, TAIL, FOLD) \
	MOVQ  x_base+0(FP), SI; \
	MOVQ  x_len+8(FP), CX; \
	MOVQ  y_base+24(FP), DX; \
	XOR   Y0, Y0, Y0; \
	XOR   Y1, Y1, Y1; \
	XOR   Y2, Y2, Y2; \
	XOR   Y3, Y3, Y3; \
	XOR   Y4, Y4, Y4; \
	XOR   Y5, Y5, Y5; \
	XOR   Y6, Y6, Y6; \
	XOR   Y7, Y7, Y7; \
	MOVQ  CX, BX; \
	SHRQ  $(6-LOGES), BX; \
	JZ    vec; \
loop: \
	MOVU  (SI), Y8; \
	MOVU  32(SI), Y9; \
	MOVU  64(SI), Y10; \
	MOVU  96(SI), Y11; \
	MOVU  (DX), Y12; \
	PERM  $SY, Y12, Y13; \
	FMA   Y12, Y8, Y0; \
	FMA   Y13, Y8, Y1; \
	MOVU  32(DX), Y14; \
	PERM  $SY, Y14, Y15; \
	FMA   Y14, Y9, Y2; \
	FMA   Y15, Y9, Y3; \
	MOVU  64(DX), Y12; \
	PERM  $SY, Y12, Y13; \
	FMA   Y12, Y10, Y4; \
	FMA   Y13, Y10, Y5; \
	MOVU  96(DX), Y14; \
	PERM  $SY, Y14, Y15; \
	FMA   Y14, Y11, Y6; \
	FMA   Y15, Y11, Y7; \
	ADDQ  $128, SI; \
	ADDQ  $128, DX; \
	DECQ  BX; \
	JNZ   loop; \
vec: \
	MOVQ  CX, BX; \
	ANDQ  $((64>>LOGES)-1), BX; \
	SHRQ  $(4-LOGES), BX; \
	JZ    reduce; \
loopv: \
	CDOTV(MOVU, PERM, SY, FMA, Y8, Y12, Y13, Y0, Y1); \
	ADDQ  $32, SI; \
	ADDQ  $32, DX; \
	DECQ  BX; \
	JNZ   loopv; \
reduce: \
	ADD   Y2, Y0, Y0; \
	ADD   Y6, Y4, Y4; \
	ADD   Y4, Y0, Y0; \
	ADD   Y3, Y1, Y1; \
	ADD   Y7, Y5, Y5; \
	ADD   Y5, Y1, Y1; \
	VEXTRACTF128 $1, Y0, X2; \
	ADD   X2, X0, X0; \
	VEXTRACTF128 $1, Y1, X3; \
	ADD   X3, X1, X1; \
	TESTQ $(8>>LOGES), CX; \
	JZ    one; \
	CDOTV(MOVU, PERM, SX, FMA, X8, X12, X13, X0, X1); \
	TAIL(combine, ADV2, CDOTV(VMOVSD, PERM, SX, FMA, X8, X12, X13, X0, X1)); \
combine: \
	FOLD; \
	CMPB  conj+48(FP), $0; \
	JNE   conjugated; \
	HSUB  X0, X0, X4; \
	HADD  X1, X1, X5; \
	JMP   store; \
conjugated: \
	HADD  X0, X0, X4; \
	HSUB  X1, X1, X5; \
store: \
	MOVS  X4, ret_real+56(FP); \
	MOVS  X5, ret_imag+(56+(1<<LOGES))(FP); \
	VZEROUPPER; \
	RET

// CSCALV is x *= alpha on one vector (or element) at SI: with t =
// ai·swap(x), the product is ar·x ∓ t — real lanes ar·xr − ai·xi,
// imaginary lanes ar·xi + ai·xr — in one fused multiply-add/subtract.
#define CSCALV(MOV, PERM, S, MUL, FMADDSUB, X, T, A, AI) \
	MOV      (SI), X; \
	PERM     $S, X, T; \
	MUL      T, AI, T; \
	FMADDSUB X, A, T; \
	MOV      T, (SI)

// CSCAL is zscalFma/cscalFma: x[0:n] *= alpha over n = len(x) elements.
#define CSCAL(BCAST, MOVU, PERM, SY, SX, MUL, FMADDSUB, LOGES, TAIL) \
	BCAST    alpha_real+0(FP), Y8; \
	BCAST    alpha_imag+(1<<LOGES)(FP), Y9; \
	MOVQ     x_base+(2<<LOGES)(FP), SI; \
	MOVQ     x_len+((2<<LOGES)+8)(FP), CX; \
	MOVQ     CX, BX; \
	SHRQ     $(5-LOGES), BX; \
	JZ       vec; \
loop: \
	MOVU     (SI), Y0; \
	MOVU     32(SI), Y1; \
	PERM     $SY, Y0, Y2; \
	PERM     $SY, Y1, Y3; \
	MUL      Y2, Y9, Y2; \
	MUL      Y3, Y9, Y3; \
	FMADDSUB Y0, Y8, Y2; \
	FMADDSUB Y1, Y8, Y3; \
	MOVU     Y2, (SI); \
	MOVU     Y3, 32(SI); \
	ADDQ     $64, SI; \
	DECQ     BX; \
	JNZ      loop; \
vec: \
	TESTQ    $(16>>LOGES), CX; \
	JZ       half; \
	CSCALV(MOVU, PERM, SY, MUL, FMADDSUB, Y0, Y2, Y8, Y9); \
	ADV1(32); \
half: \
	TESTQ    $(8>>LOGES), CX; \
	JZ       one; \
	CSCALV(MOVU, PERM, SX, MUL, FMADDSUB, X0, X2, X8, X9); \
	TAIL(done, ADV1, CSCALV(VMOVSD, PERM, SX, MUL, FMADDSUB, X0, X2, X8, X9)); \
done: \
	VZEROUPPER; \
	RET

// func dsubFma8(n int64, x, a, c *float64, ldc int64)
TEXT ·dsubFma8(SB), NOSPLIT, $0-40
	SUB8(VBROADCASTSD, VMOVUPD, VFNMADD231PD, VMOVSD, VFNMADD231SD, 3)

// func ssubFma8(n int64, x, a, c *float32, ldc int64)
TEXT ·ssubFma8(SB), NOSPLIT, $0-40
	SUB8(VBROADCASTSS, VMOVUPS, VFNMADD231PS, VMOVSS, VFNMADD231SS, 2)

// func dgemvSub8(n int64, t, b *float64, ldb int64, y *float64)
TEXT ·dgemvSub8(SB), NOSPLIT, $0-40
	GEMVSUB8(VBROADCASTSD, VMOVUPD, VXORPD, VFNMADD231PD, VADDPD, VMOVSD, VFNMADD231SD, 3)

// func sgemvSub8(n int64, t, b *float32, ldb int64, y *float32)
TEXT ·sgemvSub8(SB), NOSPLIT, $0-40
	GEMVSUB8(VBROADCASTSS, VMOVUPS, VXORPS, VFNMADD231PS, VADDPS, VMOVSS, VFNMADD231SS, 2)

// func daxpyFma(alpha float64, x, y []float64)
TEXT ·daxpyFma(SB), NOSPLIT, $0-56
	AXPY(VBROADCASTSD, VMOVUPD, VFMADD231PD, VMOVSD, VFMADD231SD, 3)

// func saxpyFma(alpha float32, x, y []float32)
TEXT ·saxpyFma(SB), NOSPLIT, $0-56
	AXPY(VBROADCASTSS, VMOVUPS, VFMADD231PS, VMOVSS, VFMADD231SS, 2)

// func ddotFma(x, y []float64, conj bool) float64
TEXT ·ddotFma(SB), NOSPLIT, $0-64
	DOT(VXORPD, VMOVUPD, VFMADD231PD, VADDPD, HSUMPD, VMOVSD, VFMADD231SD, 3)

// func sdotFma(x, y []float32, conj bool) float32
TEXT ·sdotFma(SB), NOSPLIT, $0-60
	DOT(VXORPS, VMOVUPS, VFMADD231PS, VADDPS, HSUMPS, VMOVSS, VFMADD231SS, 2)

// func diamaxF64(n int64, x *float64) int64
TEXT ·diamaxF64(SB), NOSPLIT, $0-24
	IAMAX(MOVQ, VMOVQ, VPBROADCASTQ, 0x7FFFFFFFFFFFFFFF, 0xFFF0000000000000, VBROADCASTSD, VMOVUPD, VANDPD, VMAXPD, HMAXPD, VMOVSD, VMAXSD, VCMPPD, VMOVMSKPD, VUCOMISD, 8)

// func siamaxF32(n int64, x *float32) int64
TEXT ·siamaxF32(SB), NOSPLIT, $0-24
	IAMAX(MOVL, VMOVD, VPBROADCASTD, 0x7FFFFFFF, 0xFF800000, VBROADCASTSS, VMOVUPS, VANDPS, VMAXPS, HMAXPS, VMOVSS, VMAXSS, VCMPPS, VMOVMSKPS, VUCOMISS, 4)

// func daxpyDotFma(alpha float64, a, x, y []float64, conj bool) float64
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

// func sscalFma(alpha float32, x []float32)
// x[0:n] *= alpha over n = len(x). Unit-stride float32 Scal, the per-column
// pivot scaling of the single-precision LU panels.
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

// negEvenPD and negEvenPS flip the sign of the even (real-part) lanes.
DATA negEvenPD<>+0(SB)/8, $0x8000000000000000
DATA negEvenPD<>+8(SB)/8, $0x0000000000000000
DATA negEvenPD<>+16(SB)/8, $0x8000000000000000
DATA negEvenPD<>+24(SB)/8, $0x0000000000000000
GLOBL negEvenPD<>(SB), RODATA|NOPTR, $32

DATA negEvenPS<>+0(SB)/8, $0x0000000080000000
DATA negEvenPS<>+8(SB)/8, $0x0000000080000000
DATA negEvenPS<>+16(SB)/8, $0x0000000080000000
DATA negEvenPS<>+24(SB)/8, $0x0000000080000000
GLOBL negEvenPS<>(SB), RODATA|NOPTR, $32

// func zaxpyFma(alpha complex128, x, y []complex128)
TEXT ·zaxpyFma(SB), NOSPLIT, $0-64
	CAXPY(VBROADCASTSD, VXORPD, negEvenPD, VMOVUPD, VPERMILPD, 5, 1, VFMADD231PD, 3, TAIL128)

// func caxpyFma(alpha complex64, x, y []complex64)
TEXT ·caxpyFma(SB), NOSPLIT, $0-56
	CAXPY(VBROADCASTSS, VXORPS, negEvenPS, VMOVUPS, VPERMILPS, 0xB1, 0xB1, VFMADD231PS, 2, TAIL64)

// func zdotFma(x, y []complex128, conj bool) complex128
TEXT ·zdotFma(SB), NOSPLIT, $0-72
	CDOT(VXORPD, VMOVUPD, VPERMILPD, 5, 1, VFMADD231PD, VADDPD, VHADDPD, VHSUBPD, VMOVSD, 3, TAIL128, NOFOLD)

// func cdotFma(x, y []complex64, conj bool) complex64
TEXT ·cdotFma(SB), NOSPLIT, $0-64
	CDOT(VXORPS, VMOVUPS, VPERMILPS, 0xB1, 0xB1, VFMADD231PS, VADDPS, VHADDPS, VHSUBPS, VMOVSS, 2, TAIL64, FOLD64)

// func zscalFma(alpha complex128, x []complex128)
TEXT ·zscalFma(SB), NOSPLIT, $0-40
	CSCAL(VBROADCASTSD, VMOVUPD, VPERMILPD, 5, 1, VMULPD, VFMADDSUB231PD, 3, TAIL128)

// func cscalFma(alpha complex64, x []complex64)
TEXT ·cscalFma(SB), NOSPLIT, $0-32
	CSCAL(VBROADCASTSS, VMOVUPS, VPERMILPS, 0xB1, 0xB1, VMULPS, VFMADDSUB231PS, 2, TAIL64)
