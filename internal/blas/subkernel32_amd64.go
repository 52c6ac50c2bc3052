//go:build amd64

package blas

// Declarations for the float32 substitution and column-sweep kernels in
// subkernel32_amd64.s — the single-precision counterparts of
// dsubFma8/dgemvSub8/daxpyFma/ddotFma. float32 is a first-class element
// type: without these the triangular solves and panel sweeps of a float32
// factorization fall to the portable loops while its trailing GEMM runs at
// twice the float64 flop rate. Same AVX2+FMA requirements and
// useAsmF64 gating as the f32 GEMM micro-kernel. saxpyFma, sdotFma and
// sscalFma are the float32 asm row's axpy, dot and scal entries as they stand
// (see daxpyFma).

// ssubFma8 performs the eight-column substitution sweep
// c_q[0:n] -= x[q]*a[0:n] for q = 0..7, the destination columns spaced ldc
// elements apart. It is the inner step of the eight-wide forward/back
// substitution (trsvOct) on float32 operands.
//
//go:noescape
func ssubFma8(n int64, x, a, c *float32, ldc int64)

// sgemvSub8 folds eight scaled source columns into y:
// y[0:n] -= Σ_q t[q]·b_q[0:n], the eight columns of b spaced ldb elements
// apart. It is the block update of the right-side triangular solve.
//
//go:noescape
func sgemvSub8(n int64, t, b *float32, ldb int64, y *float32)

// saxpyFma computes y[0:n] += alpha*x[0:n] over unit-stride float32
// vectors: the column step of Gemv (NoTrans) and Ger.
//
//go:noescape
func saxpyFma(alpha float32, x, y []float32)

// sdotFma returns Σ x[i]*y[i] over unit-stride float32 vectors: the column
// step of Gemv (Trans).
//
//go:noescape
func sdotFma(x, y []float32, conj bool) float32

// spackA16 packs one full 16-row A micro-panel column run,
// dst[16p:16p+16] = alpha*src[p·lda:p·lda+16] for p in [0,kb): the
// single-precision GEMM pack step. The generic per-element loop is the
// dominant non-kernel cost of the f32 factorizations without it.
//
//go:noescape
func spackA16(kb int64, alpha float32, src *float32, lda int64, dst *float32)

// spackB4 interleaves four kb-long float32 source columns into a kb×4
// row-major micro-panel (dst[p*4+c] = sc[p]) via a 4×4 unpack/shuffle
// transpose — the packB NoTrans full-panel case.
//
//go:noescape
func spackB4(kb int64, s0, s1, s2, s3, dst *float32)

// siamaxF32 returns the index of the first element of x[0:n] with the
// largest |x[i]| — the float32 port of diamaxF64, with the same two-pass
// structure and NaN conventions (interior NaNs are skipped; callers guard
// n >= 1 and x[0] not NaN).
//
//go:noescape
func siamaxF32(n int64, x *float32) int64

// sscalFma computes x[0:n] *= alpha over a unit-stride float32 vector: the
// pivot scaling of the single-precision LU panel columns.
//
//go:noescape
func sscalFma(alpha float32, x []float32)

// caxpyFma, cdotFma and cscalFma are the complex64 1m row's axpy, dot and
// scal entries, the single-precision forms of zaxpyFma, zdotFma and zscalFma: products and sums are
// rounded to float32, where the Go loops evaluate a complex64 product in
// float64.
//
//go:noescape
func caxpyFma(alpha complex64, x, y []complex64)

//go:noescape
func cdotFma(x, y []complex64, conj bool) complex64

//go:noescape
func cscalFma(alpha complex64, x []complex64)
