package lapack_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lapack"
)

// testLangeNaN pins Lange's NaN contract for the three max-type norms: a NaN
// anywhere in the matrix — first, middle or last element in storage order —
// is the norm, never skipped by a compare that happens to be false. The same
// matrix without the NaN must give the plain reference value.
func testLangeNaN[T core.Scalar](t *testing.T) {
	const m, n, lda = 37, 11, 40
	rng := lapack.NewRng([4]int{m, n, 3, 5})
	a := make([]T, lda*n)
	lapack.Larnv(2, rng, lda*n, a)
	for _, norm := range []lapack.Norm{lapack.MaxAbs, lapack.OneNorm, lapack.InfNorm} {
		want := 0.0
		switch norm {
		case lapack.MaxAbs:
			for j := 0; j < n; j++ {
				for i := 0; i < m; i++ {
					want = math.Max(want, core.Abs(a[i+j*lda]))
				}
			}
		case lapack.OneNorm:
			for j := 0; j < n; j++ {
				s := 0.0
				for i := 0; i < m; i++ {
					s += core.Abs(a[i+j*lda])
				}
				want = math.Max(want, s)
			}
		case lapack.InfNorm:
			for i := 0; i < m; i++ {
				s := 0.0
				for j := 0; j < n; j++ {
					s += core.Abs(a[i+j*lda])
				}
				want = math.Max(want, s)
			}
		}
		if got := lapack.Lange(norm, m, n, a, lda); got != want {
			t.Errorf("%c-norm = %v, reference %v", norm, got, want)
		}
		for _, at := range [][2]int{{0, 0}, {m / 2, n / 2}, {m - 1, n - 1}, {m - 1, 0}, {0, n - 1}} {
			an := append([]T(nil), a...)
			an[at[0]+at[1]*lda] = core.NaN[T]()
			if got := lapack.Lange(norm, m, n, an, lda); !math.IsNaN(got) {
				t.Errorf("%c-norm with NaN at (%d,%d) = %v, want NaN", norm, at[0], at[1], got)
			}
		}
		// Padding rows below m are not part of the matrix.
		ap := append([]T(nil), a...)
		ap[m+1] = core.NaN[T]()
		if got := lapack.Lange(norm, m, n, ap, lda); got != want {
			t.Errorf("%c-norm read the padding: %v, want %v", norm, got, want)
		}
	}
}

func TestLangeNaN(t *testing.T) {
	for name, f := range map[string]func(*testing.T){
		"float64": testLangeNaN[float64], "float32": testLangeNaN[float32],
		"complex128": testLangeNaN[complex128], "complex64": testLangeNaN[complex64],
	} {
		t.Run(name, f)
	}
}
