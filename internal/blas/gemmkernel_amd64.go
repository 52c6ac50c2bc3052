//go:build amd64

package blas

import "repro/internal/core"

// The amd64 assembly kernels, by leaf family; the kernel table (kernel.go)
// says which row runs which. Each float64/float32 or complex128/complex64
// pair is one body in assembly, parameterised by mnemonics and element size.
// The AVX2+FMA rows' kernels need AVX2 and FMA3, the AVX-512 ones AVX512F.

// Geometry of the AVX2 rows: float64 uses an 8×4 tile (eight YMM
// accumulators, two YMM loads of A and four broadcasts of B per k step),
// float32 a 16×4 tile with the identical register plan. Both stay well inside
// the sixteen YMM registers, so the k loop runs load/broadcast/FMA with no
// spills and no stores. The packing layout is the generic one from gemm.go
// (mr rows / nr columns interleaved k-major); these kernels only replace the
// innermost register tile, so every transpose, conjugation, edge and
// threading case still goes through the shared Go code.
const (
	asmF64MR = 8
	asmF64NR = 4
	asmF32MR = 16
	asmF32NR = 4
)

// Geometry of the AVX-512 rows (gemmkernel512_amd64.s): three ZMM vectors of
// A against eight broadcasts of B, the shape measured in EXPERIMENTS.md
// ("AVX-512 row").
const (
	avx512F64MR = 24
	avx512F32MR = 48
	avx512NR    = 8
)

// dgemmKernel8x4 accumulates C(0:8, 0:4) += Σ_p ap[p·8 : p·8+8] ⊗
// bp[p·4 : p·4+4] with C column-major at ldc, sgemmKernel16x4 the same over a
// 16×4 float32 tile. spackA16 packs one full 16-row float32 A micro-panel
// column run, dst[16p:16p+16] = alpha·src[p·lda:p·lda+16] for p in [0,kb);
// spackB4 interleaves four kb-long float32 columns into a kb×4 row-major
// micro-panel (dst[p·4+c] = sc[p]), the packB NoTrans full-panel case.
// dgemmSmallStripF64 is the pack-free small-matrix kernel: it accumulates
// C(0:8·strips, 0:4) += alpha·A(0:8·strips, 0:k)·B(0:k, 0:4) directly on
// strided column-major operands, with no packed panels. One call covers a
// whole m×4 column strip so the per-tile loop overhead stays in assembly.
// Implemented in gemmkernel_amd64.s.
//
//go:noescape
func dgemmKernel8x4(k int64, ap, bp, c *float64, ldc int64)

//go:noescape
func sgemmKernel16x4(k int64, ap, bp, c *float32, ldc int64)

//go:noescape
func spackA16(kb int64, alpha float32, src *float32, lda int64, dst *float32)

//go:noescape
func spackB4(kb int64, s0, s1, s2, s3, dst *float32)

//go:noescape
func dgemmSmallStripF64(strips, k int64, a *float64, lda int64, b *float64, ldb int64, c *float64, ldc int64, alpha float64)

// dgemmKernel24x8 and sgemmKernel48x8 are the full-tile AVX-512 kernels,
// dgemmEdge24x8 and sgemmEdge48x8 the same body accumulating only the leading
// rows×cols part of the tile (1 ≤ rows ≤ mr, 1 ≤ cols ≤ 8) through opmask
// loads and stores: the rest of the tile is neither read nor written. They
// have the signatures of the kernel table's micro and edge leaves and are the
// AVX-512 rows' entries as they stand; of the slices only the bases are looked
// at, and mr, nr and tile not at all. Implemented in gemmkernel512_amd64.s.
//
//go:noescape
func dgemmKernel24x8(kb int, ap, bp, c []float64, ldc int)

//go:noescape
func dgemmEdge24x8(kb, mr, nr int, ap, bp, c []float64, ldc, rows, cols int, tile []float64)

//go:noescape
func sgemmKernel48x8(kb int, ap, bp, c []float32, ldc int)

//go:noescape
func sgemmEdge48x8(kb, mr, nr int, ap, bp, c []float32, ldc, rows, cols int, tile []float32)

// dpack512 and spack512 copy kb runs of rows elements of src, lds apart, to
// runs of mr elements of dst, scaled by alpha and zero-padded from rows to mr
// (mr ≤ three vectors: 24 float64, 48 float32). dgather8 and sgather8 write
// dst[p·ld+c] = alpha·src[p+c·lds] for c < 8, p < kb: eight columns transposed
// into eight adjacent slots of each ld-strided row. The pack kernels of the
// AVX-512 rows (pack512.go), in gemmkernel512_amd64.s; only the bases of the
// slices are looked at.
//
//go:noescape
func dpack512(kb int, alpha float64, src []float64, lds int, dst []float64, rows, mr int)

//go:noescape
func spack512(kb int, alpha float32, src []float32, lds int, dst []float32, rows, mr int)

//go:noescape
func dgather8(kb int, alpha float64, src []float64, lds int, dst []float64, ld int)

//go:noescape
func sgather8(kb int, alpha float32, src []float32, lds int, dst []float32, ld int)

// The 1m pack kernels of the complex AVX-512 rows (kernels1m512 in
// pack512.go), over real views, z… for complex128 and c… for complex64.
// zpack1e/cpack1e pack a NoTrans A panel in 1e form: kb complex k-steps, each
// a run of rows reals (2 per complex row, at most three vectors) lds reals
// apart, alpha = ar+ai·i. zgather1e/cgather1e pack the group of four (eight)
// rows of a transposed A panel whose first cols are columns of src, the
// imaginary parts XORed with neg. zpack1r/cpack1r pack a transposed B panel
// of cols ≤ 8 columns in 1r form, likewise. In gemmkernel512_amd64.s; only
// the bases of the slices are looked at.
//
//go:noescape
func zpack1e(kb int, src []float64, lds int, dst []float64, rows int, ar, ai float64)

//go:noescape
func cpack1e(kb int, src []float32, lds int, dst []float32, rows int, ar, ai float32)

//go:noescape
func zgather1e(kb int, src []float64, lds int, dst []float64, cols int, ar, ai, neg float64)

//go:noescape
func cgather1e(kb int, src []float32, lds int, dst []float32, cols int, ar, ai, neg float32)

//go:noescape
func zpack1r(kb int, src []float64, lds int, dst []float64, cols int, neg float64)

//go:noescape
func cpack1r(kb int, src []float32, lds int, dst []float32, cols int, neg float32)

// dtrsvOct512 is the trsvOct leaf of the float64 AVX-512 row on its
// arguments as trsvOct512F64 checks them (level3.go): A·X = B in place for
// the n ≥ 8 columns of b, n a multiple of eight, by 8×8 register tiles, tail
// the ragged diagonal block padded to 8×8. In gemmkernel512_amd64.s; only the
// bases of the slices are looked at.
//
//go:noescape
func dtrsvOct512(upper, unit bool, m, n int, a []float64, lda int, b []float64, ldb int, tail *[64]float64)

// dfold512 is that leaf's fold alone, for the 1m row's Lower blocks
// (trsvOct1e): the rows r0..r0+rows (at most eight) of the n columns of b,
// n a multiple of eight, have the k ≥ 1 rows above them folded in,
// b(r0+i, q) −= a(r0+i, p)·b(p, q) for p = 0, 1, …, k−1, one FNMADD each.
//
//go:noescape
func dfold512(n, k int, a []float64, lda int, b []float64, ldb int, r0, rows int)

// dsubFma8 and ssubFma8 perform the eight-column substitution sweep
// c_q[0:n] -= x[q]·a[0:n] (columns of c spaced ldc elements apart) with
// fused negate-multiply-adds; they are the inner step of the left-side
// triangular-solve leaf (trsvOctFma). dgemvSub8 and sgemvSub8 fold eight
// scaled source columns into y: y[0:n] -= Σ_q t[q]·b_q[0:n] (columns of b
// spaced ldb elements apart), the inner step of the right-side
// triangular-solve leaf. Implemented in leaves_amd64.s, as are the
// Level-1 leaves below.
//
//go:noescape
func dsubFma8(n int64, x, a, c *float64, ldc int64)

//go:noescape
func ssubFma8(n int64, x, a, c *float32, ldc int64)

//go:noescape
func dgemvSub8(n int64, t, b *float64, ldb int64, y *float64)

//go:noescape
func sgemvSub8(n int64, t, b *float32, ldb int64, y *float32)

// daxpyFma and saxpyFma compute y[i] += alpha·x[i] over x, the unit-stride
// column step of Gemv (NoTrans) and Ger; ddotFma and sdotFma return
// Σ x[i]·y[i], the column step of the transposed Gemv; dscalFma and sscalFma
// compute x[i] *= alpha. With daxpyDotFma they have
// the signatures of the kernel table's axpy, dot, scal and axpyDot leaves
// (kernel.go) and are the real asm rows' entries as they stand — a Go
// wrapper between the row and the kernel would cost a second call per matrix
// column. The length is that of the first vector (at least 1); the other
// lengths and conj are not looked at.
//
//go:noescape
func daxpyFma(alpha float64, x, y []float64)

//go:noescape
func saxpyFma(alpha float32, x, y []float32)

//go:noescape
func ddotFma(x, y []float64, conj bool) float64

//go:noescape
func sdotFma(x, y []float32, conj bool) float32

//go:noescape
func dscalFma(alpha float64, x []float64)

//go:noescape
func sscalFma(alpha float32, x []float32)

// daxpyDotFma fuses the two passes of a symmetric matrix–vector column:
// y[0:n] += alpha·a[0:n] and the return value is Σ a[i]·x[i], so the column
// a streams through the core exactly once. Used by the unit-stride Symv
// under the Latrd panel reductions.
//
//go:noescape
func daxpyDotFma(alpha float64, a, x, y []float64, conj bool) float64

// diamaxF64 and siamaxF32 return the index of the first element of x[0:n]
// with the largest |x[i]|: a branch-free vector max pass, then a compare pass
// that stops at the first equal lane. NaN elements are skipped, matching the
// scalar loop; callers must guard n >= 1 and x[0] not NaN.
//
//go:noescape
func diamaxF64(n int64, x *float64) int64

//go:noescape
func siamaxF32(n int64, x *float32) int64

// zaxpyFma, zdotFma and zscalFma are the complex128 1m row's axpy, dot and
// scal entries as they stand (see daxpyFma): y[i] += alpha·x[i]; Σ x[i]·y[i],
// with x conjugated when conj is set; x[i] *= alpha — over len(x) ≥ 1
// elements, two multiply-adds per vector on the real view. Nothing is
// skipped: a zero in alpha or x still multiplies, so NaN and Inf propagate as
// in the Go loops. caxpyFma, cdotFma and cscalFma are the complex64 forms:
// products and sums are rounded to float32, where the Go loops evaluate a
// complex64 product in float64.
//
//go:noescape
func zaxpyFma(alpha complex128, x, y []complex128)

//go:noescape
func caxpyFma(alpha complex64, x, y []complex64)

//go:noescape
func zdotFma(x, y []complex128, conj bool) complex128

//go:noescape
func cdotFma(x, y []complex64, conj bool) complex64

//go:noescape
func zscalFma(alpha complex128, x []complex128)

//go:noescape
func cscalFma(alpha complex64, x []complex64)

// dcholStep8 is one full-block step of the small Cholesky on the uplo
// triangle of the m×m matrix a, m a multiple of 8 (Small.CholStep has the
// contract), and ddot8 the eight column sums Σ_i a(i, q)·x[i] over len(x) ≥ 1
// rows. Implemented in smallchol_amd64.s.
//
//go:noescape
func dcholStep8(upper bool, m int, a []float64, lda int) int

//go:noescape
func ddot8(a []float64, lda int, x []float64) [8]float64

// ddot4x3 is ddot8's wider tile under Gemm's inner-product route: the twelve
// sums Σ_i a(i, q)·b(i, c), q < 4, c < 3, over k ≥ 1 rows, as out[q+4c], each
// bit for bit ddot8's. Implemented in smallchol_amd64.s.
//
//go:noescape
func ddot4x3(k int, a []float64, lda int, b []float64, ldb int) [12]float64

// dluStep8 is one full-block step of the small LU on the m×(nl+8+nr) row
// block a: m a multiple of 8, nr a multiple of 4 (Small.LUStep has the
// contract). Implemented in smalllu_amd64.s.
//
//go:noescape
func dluStep8(nl, m, nr int, a []float64, lda int, ipiv []int) int

// drotSeqFma carries a block of rows through nrot chained plane rotations of
// adjacent columns (RotSeq's inner step; the formulation is spelled out in
// iterate.go), srotSeqFma the same on float32 columns. cstep and colStride
// are in elements and signed, flip is ±0; the coefficients are float64 for
// both. drefl3Fma applies one three-element Householder reflector from the
// right to three unit-stride columns (Refl3's asm route): sum = x0 + v2·x1 +
// v3·x2, then x0 −= sum·t1, x1 −= sum·t2, x2 −= sum·t3, every step one FMA;
// drefl2Fma is its two-column form. drefl3RowsFma and drefl2RowsFma apply the
// same reflectors from the left to three (two) adjacent rows of 4·groups
// columns ldh bytes apart (Refl3Rows' and Refl2Rows' asm route);
// drefl3RowsFma also reads and rewrites, unchanged, the fourth row of every
// column. Implemented in iterate_amd64.s.
//
//go:noescape
func drotSeqFma(m, nrot int64, c, s *float64, cstep int64, a *float64, colStride int64, flip float64)

//go:noescape
func srotSeqFma(m, nrot int64, c, s *float64, cstep int64, a *float32, colStride int64, flip float64)

//go:noescape
func drefl3Fma(n int64, x0, x1, x2 *float64, v2, v3, t1, t2, t3 float64)

//go:noescape
func drefl2Fma(n int64, x0, x1 *float64, v2, t1, t2 float64)

//go:noescape
func drefl3RowsFma(groups int64, h *float64, ldh int64, v2, v3, t1, t2, t3 float64)

//go:noescape
func drefl2RowsFma(groups int64, h *float64, ldh int64, v2, t1, t2 float64)

// cpuidAsm executes CPUID with the given leaf/subleaf.
func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbvAsm reads XCR0, reporting which register states the OS saves.
func xgetbvAsm() (eax, edx uint32)

// haveAVX2FMA and haveAVX512 detect, once at startup, which vector kernels
// may run. AVX2: the CPU must advertise AVX, AVX2 and FMA3, and the OS must
// save the YMM state (OSXSAVE set and XCR0 bits 1–2 enabled). AVX-512 on top
// of that: AVX512F — the only extension gemmkernel512_amd64.s uses — and the
// opmask and ZMM state saved too (XCR0 bits 5–7).
var haveAVX2FMA, haveAVX512 = func() (avx2, avx512 bool) {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, cx, _ := cpuidAsm(1, 0)
	const fma = 1 << 12
	const osxsave = 1 << 27
	const avx = 1 << 28
	if cx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false, false
	}
	xcr0, _ := xgetbvAsm()
	if xcr0&0x6 != 0x6 {
		return false, false
	}
	_, bx, _, _ := cpuidAsm(7, 0)
	avx2 = bx&(1<<5) != 0
	return avx2, avx2 && bx&(1<<16) != 0 && xcr0&0xe0 == 0xe0
}()

// useAsmF64 gates the assembly kernels of all four types; LA90_NO_ASM=1 (the "noasm"
// row of core.Knobs, read here once) forces the portable row — the Go twins of
// these kernels, the same bits — for debugging and for the other ports' view.
// useAVX512 selects the AVX-512 row of the kernel table over the AVX2 one.
var (
	useAsmF64 = haveAVX2FMA && !core.EnvFlag("LA90_NO_ASM")
	useAVX512 = useAsmF64 && haveAVX512
)
