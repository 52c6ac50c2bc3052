package blas

import "unsafe"

// Real views of complex slices: the only unsafe code in the package, and the
// only place the 1m complex Level-3 path (kernel.go) touches memory layout.
// The Go specification does not spell out the representation of complex
// values, but every gc port stores complex128 as two adjacent float64 — real
// part first — with size 16 and no padding (complex64: two float32, size 8),
// the layout FORTRAN COMPLEX and C99 _Complex use; realview_test.go pins
// exactly the properties relied on here. The view aliases its argument: it
// shares the backing array and keeps it alive, and writes through either
// slice are visible through the other.

// realView128 reinterprets s as a []float64 of twice the length, element i of
// s appearing as elements 2i (real part) and 2i+1 (imaginary part).
func realView128(s []complex128) []float64 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&s[0])), 2*len(s))
}

// realView64 is the complex64 → float32 analogue of realView128.
func realView64(s []complex64) []float32 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&s[0])), 2*len(s))
}
