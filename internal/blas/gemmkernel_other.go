//go:build !amd64

package blas

// Portable stand-ins for the amd64 assembly micro-kernels. The geometry
// constants keep the shared engine code compiling; the kernel bodies are
// unreachable because useAsmF64 and useAVX512 are constant false, which also
// lets the compiler dead-code-eliminate the dispatch branches.

const (
	asmF64MR = 8
	asmF64NR = 4
	asmF32MR = 16
	asmF32NR = 4

	avx512F64MR = 24
	avx512F32MR = 48
	avx512NR    = 8
)

const (
	useAsmF64 = false
	useAVX512 = false
)

func dgemmKernel8x4(k int64, ap, bp, c *float64, ldc int64)  { panic("blas: no asm kernel") }
func sgemmKernel16x4(k int64, ap, bp, c *float32, ldc int64) { panic("blas: no asm kernel") }
func spackA16(kb int64, alpha float32, src *float32, lda int64, dst *float32) {
	panic("blas: no asm kernel")
}
func spackB4(kb int64, s0, s1, s2, s3, dst *float32)       { panic("blas: no asm kernel") }
func dgemmKernel24x8(kb int, ap, bp, c []float64, ldc int) { panic("blas: no asm kernel") }
func sgemmKernel48x8(kb int, ap, bp, c []float32, ldc int) { panic("blas: no asm kernel") }
func dgemmEdge24x8(kb, mr, nr int, ap, bp, c []float64, ldc, rows, cols int, tile []float64) {
	panic("blas: no asm kernel")
}
func sgemmEdge48x8(kb, mr, nr int, ap, bp, c []float32, ldc, rows, cols int, tile []float32) {
	panic("blas: no asm kernel")
}
func dpack512(kb int, alpha float64, src []float64, lds int, dst []float64, rows, mr int) {
	panic("blas: no asm kernel")
}
func spack512(kb int, alpha float32, src []float32, lds int, dst []float32, rows, mr int) {
	panic("blas: no asm kernel")
}
func dgather8(kb int, alpha float64, src []float64, lds int, dst []float64, ld int) {
	panic("blas: no asm kernel")
}
func sgather8(kb int, alpha float32, src []float32, lds int, dst []float32, ld int) {
	panic("blas: no asm kernel")
}
func zpack1e(kb int, src []float64, lds int, dst []float64, rows int, ar, ai float64) {
	panic("blas: no asm kernel")
}
func cpack1e(kb int, src []float32, lds int, dst []float32, rows int, ar, ai float32) {
	panic("blas: no asm kernel")
}
func zgather1e(kb int, src []float64, lds int, dst []float64, cols int, ar, ai, neg float64) {
	panic("blas: no asm kernel")
}
func cgather1e(kb int, src []float32, lds int, dst []float32, cols int, ar, ai, neg float32) {
	panic("blas: no asm kernel")
}
func zpack1r(kb int, src []float64, lds int, dst []float64, cols int, neg float64) {
	panic("blas: no asm kernel")
}
func cpack1r(kb int, src []float32, lds int, dst []float32, cols int, neg float32) {
	panic("blas: no asm kernel")
}
func dgemmSmallStripF64(strips, k int64, a *float64, lda int64, b *float64, ldb int64, c *float64, ldc int64, alpha float64) {
	panic("blas: no asm kernel")
}
func dcholStep8(upper bool, m int, a []float64, lda int) int { panic("blas: no asm kernel") }
func ddot8(a []float64, lda int, x []float64) [8]float64     { panic("blas: no asm kernel") }
func ddot4x3(k int, a []float64, lda int, b []float64, ldb int) [12]float64 {
	panic("blas: no asm kernel")
}
func dsubFma8(n int64, x, a, c *float64, ldc int64) { panic("blas: no asm kernel") }
func dfold512(n, k int, a []float64, lda int, b []float64, ldb int, r0, rows int) {
	panic("blas: no asm kernel")
}
func dtrsvOct512(upper, unit bool, m, n int, a []float64, lda int, b []float64, ldb int, tail *[64]float64) {
	panic("blas: no asm kernel")
}
func ssubFma8(n int64, x, a, c *float32, ldc int64) { panic("blas: no asm kernel") }
func dgemvSub8(n int64, t, b *float64, ldb int64, y *float64) {
	panic("blas: no asm kernel")
}
func sgemvSub8(n int64, t, b *float32, ldb int64, y *float32) { panic("blas: no asm kernel") }
func daxpyFma(alpha float64, x, y []float64)                  { panic("blas: no asm kernel") }
func saxpyFma(alpha float32, x, y []float32)                  { panic("blas: no asm kernel") }
func sdotFma(x, y []float32, conj bool) float32               { panic("blas: no asm kernel") }
func dscalFma(alpha float64, x []float64)                     { panic("blas: no asm kernel") }
func sscalFma(alpha float32, x []float32)                     { panic("blas: no asm kernel") }
func siamaxF32(n int64, x *float32) int64                     { panic("blas: no asm kernel") }
func dluStep8(nl, m, nr int, a []float64, lda int, ipiv []int) int {
	panic("blas: no asm kernel")
}
func diamaxF64(n int64, x *float64) int64       { panic("blas: no asm kernel") }
func ddotFma(x, y []float64, conj bool) float64 { panic("blas: no asm kernel") }
func daxpyDotFma(alpha float64, a, x, y []float64, conj bool) float64 {
	panic("blas: no asm kernel")
}
func drotSeqFma(m, nrot int64, c, s *float64, cstep int64, a *float64, colStride int64, flip float64) {
	panic("blas: no asm kernel")
}
func srotSeqFma(m, nrot int64, c, s *float64, cstep int64, a *float32, colStride int64, flip float64) {
	panic("blas: no asm kernel")
}
func drefl3Fma(n int64, x0, x1, x2 *float64, v2, v3, t1, t2, t3 float64) {
	panic("blas: no asm kernel")
}
func drefl2Fma(n int64, x0, x1 *float64, v2, t1, t2 float64) { panic("blas: no asm kernel") }
func drefl3RowsFma(groups int64, h *float64, ldh int64, v2, v3, t1, t2, t3 float64) {
	panic("blas: no asm kernel")
}
func drefl2RowsFma(groups int64, h *float64, ldh int64, v2, t1, t2 float64) {
	panic("blas: no asm kernel")
}
func zaxpyFma(alpha complex128, x, y []complex128)    { panic("blas: no asm kernel") }
func caxpyFma(alpha complex64, x, y []complex64)      { panic("blas: no asm kernel") }
func zdotFma(x, y []complex128, conj bool) complex128 { panic("blas: no asm kernel") }
func cdotFma(x, y []complex64, conj bool) complex64   { panic("blas: no asm kernel") }
func zscalFma(alpha complex128, x []complex128)       { panic("blas: no asm kernel") }
func cscalFma(alpha complex64, x []complex64)         { panic("blas: no asm kernel") }
