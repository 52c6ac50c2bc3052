package blas

import (
	"testing"
	"unsafe"
)

// realview.go reinterprets complex slices as real ones; these are the layout
// properties it relies on. A toolchain or port that broke one of them would
// silently corrupt every complex Level-3 result, so they are pinned here.
func TestRealViewLayout(t *testing.T) {
	if s := unsafe.Sizeof(complex128(0)); s != 2*unsafe.Sizeof(float64(0)) {
		t.Fatalf("sizeof(complex128) = %d, want two float64", s)
	}
	if s := unsafe.Sizeof(complex64(0)); s != 2*unsafe.Sizeof(float32(0)) {
		t.Fatalf("sizeof(complex64) = %d, want two float32", s)
	}

	z := []complex128{1 + 2i, 3 + 4i, -5 - 6i}
	v := realView128(z)
	if len(v) != 2*len(z) {
		t.Fatalf("len(view) = %d, want %d", len(v), 2*len(z))
	}
	for i, c := range z {
		if v[2*i] != real(c) || v[2*i+1] != imag(c) {
			t.Fatalf("element %d: view (%v, %v), want real part first: %v", i, v[2*i], v[2*i+1], c)
		}
	}
	// The view aliases its argument in both directions.
	v[2], v[3] = 7, -8
	z[0] = 9 - 10i
	if z[1] != 7-8i || v[0] != 9 || v[1] != -10 {
		t.Fatalf("view does not alias: z = %v, view = %v", z, v)
	}

	c := []complex64{1 + 2i, 3 + 4i}
	w := realView64(c)
	if len(w) != 4 || w[0] != 1 || w[1] != 2 || w[2] != 3 || w[3] != 4 {
		t.Fatalf("complex64 view = %v", w)
	}
	w[3] = -4
	if c[1] != 3-4i {
		t.Fatalf("complex64 view does not alias: %v", c)
	}

	// A subslice views its own elements, not the backing array's start.
	if sub := realView128(z[1:]); len(sub) != 4 || sub[0] != 7 || sub[1] != -8 {
		t.Fatalf("subslice view = %v", sub)
	}
	if realView128(nil) != nil || realView64(nil) != nil {
		t.Fatal("view of an empty slice must be nil")
	}
}
