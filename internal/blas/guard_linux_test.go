package blas

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/core"
)

// guarded returns n elements that end on the last byte before an
// inaccessible page: a load or store that touches even one lane past the
// slice kills the test binary.
func guarded[T core.Scalar](t *testing.T, n int) []T {
	page := syscall.Getpagesize()
	var z T
	size := (n*int(unsafe.Sizeof(z)) + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // nothing to do about a failed unmap of test memory
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[size-n*int(unsafe.Sizeof(z))])), n)
}

// testMaskedLanes512 runs the masked kernels of an AVX-512 row with every
// operand ending on a guard page: a ragged tile of C, the ragged runs packA
// and packB read under NoTrans and TransT, and the short last rows of a
// gather — on the complex rows the 1m packers' runs and transposes, whose
// dead rows read the panel's first — and the trsvOct leaf's ragged blocks.
func testMaskedLanes512[T core.Scalar](t *testing.T, kern *kernel[T]) {
	mr, nr := kern.mr, kern.nr
	rng := rand.New(rand.NewSource(4096))
	const kb = 19
	ap, bp := randSlice[T](rng, mr*kb*kern.kScale), randSlice[T](rng, nr*kb)
	for _, rows := range []int{1, mr/2 + 1, mr - 1, mr} {
		for _, cols := range []int{1, nr - 1, nr} {
			ldc := mr + 1
			c := guarded[T](t, (cols-1)*ldc+rows)
			kern.edge(kb, mr, nr, ap, bp, c, ldc, rows, cols, nil)

			// op(A) = A(i0:i0+rows, 0:kb) and its transpose, each the tail
			// of its slice; op(B) likewise.
			dst := make([]T, kb*max(mr*kern.kScale, nr))
			src := guarded[T](t, (kb-1)*ldc+rows)
			kern.packA(dst, mr, NoTrans, -1, src, ldc, 0, rows, 0, kb)
			src = guarded[T](t, (rows-1)*(kb+2)+kb)
			kern.packA(dst, mr, TransT, -1, src, kb+2, 0, rows, 0, kb)
			src = guarded[T](t, (cols-1)*(kb+2)+kb)
			kern.packB(dst, nr, NoTrans, src, kb+2, 0, kb, 0, cols)
			src = guarded[T](t, (kb-1)*(nr+1)+cols)
			kern.packB(dst, nr, TransT, src, nr+1, 0, kb, 0, cols)
		}
	}
	// The trsvOct leaf's ragged blocks, A and B ending their slices.
	for _, m := range []int{5, 13} {
		for _, uplo := range []Uplo{Upper, Lower} {
			a := guarded[T](t, m*m)
			copy(a, randSlice[T](rng, m*m))
			for i := range m {
				a[i+i*m] += core.FromFloat[T](float64(m))
			}
			kern.trsvOct(uplo, NonUnit, m, 8, a, m, guarded[T](t, 7*m+m), m)
		}
	}
}

func TestMaskedLanesStayInBounds(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX-512 (or LA90_NO_ASM=1): the AVX-512 rows cannot run here")
	}
	t.Run("float64", func(t *testing.T) { testMaskedLanes512(t, &kern512F64) })
	t.Run("float32", func(t *testing.T) { testMaskedLanes512(t, &kern512F32) })
	t.Run("complex128", func(t *testing.T) { testMaskedLanes512(t, &kern1m512C128) })
	t.Run("complex64", func(t *testing.T) { testMaskedLanes512(t, &kern1m512C64) })
}
