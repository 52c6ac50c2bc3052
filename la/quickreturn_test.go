package la_test

import (
	"testing"

	"repro/la"
)

// The tridiagonal drivers on an empty system: n = 0 is LAPACK's quick return
// whatever nrhs is — no error, nothing solved — and so is nrhs = 0 at n > 0.
// (Gttrs and Pttrs used to index the last row of an empty column, which the
// la boundary reported as a contained fault.)
func testTridiagonalQuickReturn[T la.Scalar](t *testing.T) {
	for _, sh := range [][2]int{{0, 3}, {0, 0}, {4, 0}} {
		n, nrhs := sh[0], sh[1]
		diag := func(v float64) []T {
			s := make([]T, n)
			for i := range s {
				s[i] = fromC[T](complex(v, 0))
			}
			return s
		}
		off := func() []T { return make([]T, max(0, n-1)) }
		d64 := make([]float64, n)
		for i := range d64 {
			d64[i] = 2
		}
		rhs := func() *la.Matrix[T] { return la.NewMatrix[T](n, nrhs) }
		if err := la.GTSV(off(), diag(2), off(), rhs()); err != nil {
			t.Errorf("GTSV n=%d nrhs=%d: %v", n, nrhs, err)
		}
		if err := la.PTSV(append([]float64(nil), d64...), off(), rhs()); err != nil {
			t.Errorf("PTSV n=%d nrhs=%d: %v", n, nrhs, err)
		}
		if res, err := la.GTSVX(off(), diag(2), off(), rhs()); err != nil {
			t.Errorf("GTSVX n=%d nrhs=%d: %v", n, nrhs, err)
		} else if res.X.Rows != n || res.X.Cols != nrhs {
			t.Errorf("GTSVX n=%d nrhs=%d: X is %dx%d", n, nrhs, res.X.Rows, res.X.Cols)
		}
		if res, err := la.PTSVX(d64, off(), rhs()); err != nil {
			t.Errorf("PTSVX n=%d nrhs=%d: %v", n, nrhs, err)
		} else if res.X.Rows != n || res.X.Cols != nrhs {
			t.Errorf("PTSVX n=%d nrhs=%d: X is %dx%d", n, nrhs, res.X.Rows, res.X.Cols)
		}
	}
}

func TestTridiagonalQuickReturn(t *testing.T) {
	t.Run("float32", testTridiagonalQuickReturn[float32])
	t.Run("float64", testTridiagonalQuickReturn[float64])
	t.Run("complex64", testTridiagonalQuickReturn[complex64])
	t.Run("complex128", testTridiagonalQuickReturn[complex128])
}
