//go:build !amd64

package blas

// Portable stand-ins for the float32 kernels in subkernel32_amd64.s. The
// bodies are unreachable: useAsmF64 is constant false off amd64, so every
// dispatch branch dead-codes away.

func ssubFma8(n int64, x, a, c *float32, ldc int64)           { panic("blas: no asm kernel") }
func sgemvSub8(n int64, t, b *float32, ldb int64, y *float32) { panic("blas: no asm kernel") }
func saxpyFma(alpha float32, x, y []float32)                  { panic("blas: no asm kernel") }
func sdotFma(x, y []float32, conj bool) float32               { panic("blas: no asm kernel") }

func spackA16(kb int64, alpha float32, src *float32, lda int64, dst *float32) {
	panic("blas: no asm kernel")
}
func sscalFma(alpha float32, x []float32)            { panic("blas: no asm kernel") }
func siamaxF32(n int64, x *float32) int64            { panic("blas: no asm kernel") }
func spackB4(kb int64, s0, s1, s2, s3, dst *float32) { panic("blas: no asm kernel") }
func caxpyFma(alpha complex64, x, y []complex64)     { panic("blas: no asm kernel") }
func cdotFma(x, y []complex64, conj bool) complex64  { panic("blas: no asm kernel") }
func cscalFma(alpha complex64, x []complex64)        { panic("blas: no asm kernel") }
