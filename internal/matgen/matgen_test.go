package matgen

import (
	"repro/internal/core"

	"math"
	"testing"

	"repro/internal/lapack"
)

func TestLaggeSingularValues(t *testing.T) {
	// A = U·D·V must have exactly the prescribed singular values.
	m, n := 9, 6
	rng := lapack.NewRng([4]int{1, 2, 3, 4})
	d := SingularValues(3, n, 100)
	a := make([]float64, m*n)
	Lagge(core.Default(), rng, m, n, m-1, n-1, d, a, m)
	s := make([]float64, n)
	if info := lapack.Gesdd(core.Default(), lapack.SVDNone, lapack.SVDNone, m, n, a, m, s, nil, 0, nil, 0); info != 0 {
		t.Fatalf("gesdd info=%d", info)
	}
	for i := range d {
		if math.Abs(s[i]-d[i]) > 1e-12*(1+d[i])*float64(m) {
			t.Fatalf("s[%d] = %v, want %v", i, s[i], d[i])
		}
	}
}

func TestLatmsCondition(t *testing.T) {
	n := 20
	rng := lapack.NewRng([4]int{9, 9, 9, 9})
	cond := 1e4
	a := make([]float64, n*n)
	Latms(core.Default(), rng, n, cond, a, n)
	s := make([]float64, n)
	lapack.Gesdd(core.Default(), lapack.SVDNone, lapack.SVDNone, n, n, a, n, s, nil, 0, nil, 0)
	got := s[0] / s[n-1]
	if math.Abs(got-cond) > 1e-4*cond {
		t.Fatalf("condition %v, want %v", got, cond)
	}
}

func TestRandOrtho(t *testing.T) {
	n := 15
	rng := lapack.NewRng([4]int{3, 1, 4, 1})
	q := make([]float64, n*n)
	RandOrtho(core.Default(), rng, n, q, n)
	// QᵀQ = I.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += q[k+i*n] * q[k+j*n]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(s-want) > 1e-13 {
				t.Fatalf("QᵀQ(%d,%d) = %v", i, j, s)
			}
		}
	}
	// Complex variant.
	qc := make([]complex128, n*n)
	RandOrtho(core.Default(), rng, n, qc, n)
	for i := 0; i < n; i++ {
		s := complex(0, 0)
		for k := 0; k < n; k++ {
			x := qc[k+i*n]
			s += complex(real(x)*real(x)+imag(x)*imag(x), 0)
		}
		if math.Abs(real(s)-1) > 1e-13 {
			t.Fatalf("unitary column %d norm %v", i, s)
		}
	}
}

func TestRandSPDWithCond(t *testing.T) {
	n := 16
	rng := lapack.NewRng([4]int{7, 7, 1, 1})
	cond := 500.0
	a := make([]float64, n*n)
	RandSPDWithCond(core.Default(), rng, n, cond, a, n)
	w := make([]float64, n)
	ac := append([]float64(nil), a...)
	if info := lapack.Syev[float64](core.Default(), false, lapack.Upper, n, ac, n, w); info != 0 {
		t.Fatalf("syev info=%d", info)
	}
	if w[0] <= 0 {
		t.Fatalf("not positive definite: λmin=%v", w[0])
	}
	if got := w[n-1] / w[0]; math.Abs(got-cond) > 1e-6*cond {
		t.Fatalf("condition %v, want %v", got, cond)
	}
}

func TestLaggeBanded(t *testing.T) {
	m, n, kl, ku := 10, 10, 2, 1
	rng := lapack.NewRng([4]int{2, 2, 2, 2})
	d := SingularValues(4, n, 10)
	a := make([]float64, m*n)
	Lagge(core.Default(), rng, m, n, kl, ku, d, a, m)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if (i-j > kl || j-i > ku) && a[i+j*m] != 0 {
				t.Fatalf("entry (%d,%d) outside band is %v", i, j, a[i+j*m])
			}
		}
	}
}
