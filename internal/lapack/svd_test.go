package lapack_test

import (
	"math"
	"testing"

	"repro/internal/lapack"
)

func TestGesvdKnownValues(t *testing.T) {
	// diag(3, 2, 1) padded: singular values are 3, 2, 1, from the
	// values-only drive.
	m, n := 5, 3
	a := make([]float64, m*n)
	a[0], a[1+m], a[2+2*m] = 3, -2, 1
	s := make([]float64, n)
	if info := lapack.Gesdd(tcfg(), lapack.SVDNone, lapack.SVDNone, m, n, a, m, s, nil, 0, nil, 0); info != 0 {
		t.Fatalf("info=%d", info)
	}
	want := []float64{3, 2, 1}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-12 {
			t.Fatalf("s[%d] = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestBdsqrDiagonal(t *testing.T) {
	// Already-diagonal input: values must just be sorted descending.
	n := 4
	d := []float64{1, 3, 2, 5}
	e := []float64{0, 0, 0}
	if info := lapack.Bdsqr[float64](tcfg(), n, d, e, nil, 0, 0, nil, 0, 0); info != 0 {
		t.Fatalf("info=%d", info)
	}
	want := []float64{5, 3, 2, 1}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-14 {
			t.Fatalf("d = %v", d)
		}
	}
}
