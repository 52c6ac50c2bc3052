package la_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/la"
)

// TestErrorExits reproduces the paper's error-exit tests (§6: "The
// programs test the interface routines, the computation, and the error
// exits"; Appendix F runs 9 of them for LA_GESV). Every malformed call
// must return a *la.Error with the negative INFO identifying the offending
// argument, and must not panic.
func TestErrorExits(t *testing.T) {
	wantArgError := func(t *testing.T, err error, arg int) {
		t.Helper()
		var e *la.Error
		if !errors.As(err, &e) {
			t.Fatalf("expected *la.Error, got %v", err)
		}
		if e.Info != -arg {
			t.Fatalf("INFO = %d, want %d (%v)", e.Info, -arg, e)
		}
	}

	sq := la.NewMatrix[float64](3, 3)
	for i := 0; i < 3; i++ {
		sq.Set(i, i, 1)
	}
	rect := la.NewMatrix[float64](3, 2)
	b3 := la.NewMatrix[float64](3, 1)
	b2 := la.NewMatrix[float64](2, 1)

	t.Run("GESV non-square A", func(t *testing.T) {
		_, err := la.GESV(rect, b3)
		wantArgError(t, err, 1)
	})
	t.Run("GESV wrong B rows", func(t *testing.T) {
		_, err := la.GESV(sq.Clone(), b2)
		wantArgError(t, err, 2)
	})
	t.Run("GESV1 wrong b length", func(t *testing.T) {
		_, err := la.GESV1(sq.Clone(), make([]float64, 2))
		wantArgError(t, err, 2)
	})
	t.Run("POSV non-square", func(t *testing.T) {
		err := la.POSV(rect, b3)
		wantArgError(t, err, 1)
	})
	t.Run("POSV wrong B", func(t *testing.T) {
		err := la.POSV(sq.Clone(), b2)
		wantArgError(t, err, 2)
	})
	t.Run("SYSV wrong B", func(t *testing.T) {
		_, err := la.SYSV(sq.Clone(), b2)
		wantArgError(t, err, 2)
	})
	t.Run("GTSV inconsistent diagonals", func(t *testing.T) {
		err := la.GTSV(make([]float64, 1), make([]float64, 3), make([]float64, 1), b3)
		wantArgError(t, err, 1)
	})
	t.Run("PTSV inconsistent e", func(t *testing.T) {
		err := la.PTSV(make([]float64, 3), make([]float64, 1), b3)
		wantArgError(t, err, 2)
	})
	t.Run("PPSV non-triangular length", func(t *testing.T) {
		err := la.PPSV(make([]float64, 5), b3)
		wantArgError(t, err, 1)
	})
	t.Run("GELS wrong B rows", func(t *testing.T) {
		err := la.GELS(rect.Clone(), b2)
		wantArgError(t, err, 2)
	})
	t.Run("SYEV non-square", func(t *testing.T) {
		_, err := la.SYEV(rect.Clone())
		wantArgError(t, err, 1)
	})
	t.Run("SYGV mismatched B", func(t *testing.T) {
		_, err := la.SYGV(sq.Clone(), la.NewMatrix[float64](2, 2))
		wantArgError(t, err, 2)
	})
	t.Run("GETRS pivot length", func(t *testing.T) {
		err := la.GETRS(sq.Clone(), []int{0}, b3)
		wantArgError(t, err, 2)
	})
	t.Run("GEES non-square", func(t *testing.T) {
		_, _, _, err := la.GEES(rect.Clone())
		wantArgError(t, err, 1)
	})
	t.Run("LANGE bad norm", func(t *testing.T) {
		_, err := la.LANGE(sq, la.WithNorm('X'))
		wantArgError(t, err, 2)
	})

	// Positive-INFO numerical failures must also arrive as *la.Error.
	t.Run("GESV singular", func(t *testing.T) {
		z := la.NewMatrix[float64](3, 3)
		_, err := la.GESV(z, b3.Clone())
		var e *la.Error
		if !errors.As(err, &e) || e.Info <= 0 {
			t.Fatalf("expected positive INFO, got %v", err)
		}
	})
	t.Run("POSV not positive definite", func(t *testing.T) {
		m := la.MatrixFrom([][]float64{{1, 0}, {0, -1}})
		err := la.POSV(m, la.NewMatrix[float64](2, 1))
		var e *la.Error
		if !errors.As(err, &e) || e.Info != 2 {
			t.Fatalf("expected INFO=2, got %v", err)
		}
	})
	t.Run("SYGV B indefinite", func(t *testing.T) {
		a := spdMat[float64](99, 3)
		b := la.MatrixFrom([][]float64{{1, 0, 0}, {0, -1, 0}, {0, 0, 1}})
		_, err := la.SYGV(a, b)
		var e *la.Error
		if !errors.As(err, &e) || e.Info != 3+2 {
			t.Fatalf("expected INFO=n+2, got %v", err)
		}
	})
}

// TestErrorExitSweep is the full Appendix-F style sweep: one probe per
// validated argument of every exported driver, asserting the ERINFO
// contract — the call returns a *la.Error with INFO = -i naming the
// offending argument, and never panics (the deferred guard would convert a
// panic into InfoPanic, which the Info assertion rejects).
func TestErrorExitSweep(t *testing.T) {
	sq := func() *la.Matrix[float64] {
		m := la.NewMatrix[float64](3, 3)
		for i := 0; i < 3; i++ {
			m.Set(i, i, float64(i)+2)
		}
		return m
	}
	csq := func() *la.Matrix[complex128] {
		m := la.NewMatrix[complex128](3, 3)
		for i := 0; i < 3; i++ {
			m.Set(i, i, complex(float64(i)+2, 0))
		}
		return m
	}
	rect := la.NewMatrix[float64](3, 2)
	crect := la.NewMatrix[complex128](3, 2)
	b3 := func() *la.Matrix[float64] { return la.NewMatrix[float64](3, 1) }
	cb3 := func() *la.Matrix[complex128] { return la.NewMatrix[complex128](3, 1) }
	b2 := la.NewMatrix[float64](2, 1)
	cb2 := la.NewMatrix[complex128](2, 1)
	v := func(n int) []float64 { return make([]float64, n) }
	cv := func(n int) []complex128 { return make([]complex128, n) }
	band := func(rows int) *la.Matrix[float64] { return la.NewMatrix[float64](rows, 3) }
	rowv := func(cols int) *la.Matrix[float64] { return la.NewMatrix[float64](1, cols) }

	probes := []struct {
		name string
		arg  int
		call func() error
	}{
		// Simple drivers (linsolve.go).
		{"GESV nil A", 1, func() error { _, err := la.GESV[float64](nil, b3()); return err }},
		{"GESV B rows", 2, func() error { _, err := la.GESV(sq(), b2); return err }},
		{"GESV1 nil A", 1, func() error { _, err := la.GESV1[float64](nil, v(3)); return err }},
		{"GESV1 b len", 2, func() error { _, err := la.GESV1(sq(), v(2)); return err }},
		{"GBSV nil AB", 1, func() error { _, err := la.GBSV[float64](nil, b3()); return err }},
		{"GBSV B rows", 2, func() error { _, err := la.GBSV(band(4), b2); return err }},
		{"GBSV bad KL", 3, func() error { _, err := la.GBSV(band(4), b3(), la.WithKL(5)); return err }},
		{"GBSV1 b len", 2, func() error { _, err := la.GBSV1(band(4), v(2)); return err }},
		{"GTSV dl len", 1, func() error { return la.GTSV(v(1), v(3), v(2), b3()) }},
		{"GTSV B rows", 4, func() error { return la.GTSV(v(2), v(3), v(2), b2) }},
		{"GTSV1 dl len", 1, func() error { return la.GTSV1(v(1), v(3), v(2), v(3)) }},
		{"POSV non-square", 1, func() error { return la.POSV(rect, b3()) }},
		{"POSV B rows", 2, func() error { return la.POSV(sq(), b2) }},
		{"POSV1 b len", 2, func() error { return la.POSV1(sq(), v(2)) }},
		{"PPSV ap len", 1, func() error { return la.PPSV(v(5), b3()) }},
		{"PPSV B rows", 2, func() error { return la.PPSV(v(6), b2) }},
		{"PPSV1 ap len", 1, func() error { return la.PPSV1(v(5), v(3)) }},
		{"PBSV nil AB", 1, func() error { return la.PBSV[float64](nil, b3()) }},
		{"PBSV B rows", 2, func() error { return la.PBSV(band(2), b2) }},
		{"PBSV1 b len", 2, func() error { return la.PBSV1(band(2), v(2)) }},
		{"PTSV e len", 2, func() error { return la.PTSV(v(3), v(1), b3()) }},
		{"PTSV B rows", 3, func() error { return la.PTSV(v(3), v(2), b2) }},
		{"PTSV1 e len", 2, func() error { return la.PTSV1(v(3), v(1), v(3)) }},
		{"SYSV non-square", 1, func() error { _, err := la.SYSV(rect, b3()); return err }},
		{"SYSV B rows", 2, func() error { _, err := la.SYSV(sq(), b2); return err }},
		{"SYSV1 b len", 2, func() error { _, err := la.SYSV1(sq(), v(2)); return err }},
		{"HESV non-square", 1, func() error { _, err := la.HESV(crect, cb3()); return err }},
		{"HESV B rows", 2, func() error { _, err := la.HESV(csq(), cb2); return err }},
		{"SPSV ap len", 1, func() error { _, err := la.SPSV(v(5), b3()); return err }},
		{"SPSV B rows", 2, func() error { _, err := la.SPSV(v(6), b2); return err }},
		{"SPSV1 ap len", 1, func() error { _, err := la.SPSV1(v(5), v(3)); return err }},
		{"HPSV ap len", 1, func() error { _, err := la.HPSV(cv(5), cb3()); return err }},
		{"HPSV B rows", 2, func() error { _, err := la.HPSV(cv(6), cb2); return err }},

		// Least squares (ls.go).
		{"GELS nil A", 1, func() error { return la.GELS[float64](nil, b3()) }},
		{"GELS B rows", 2, func() error { return la.GELS(rect, b2) }},
		{"GELS1 b len", 2, func() error { return la.GELS1(rect, v(2)) }},
		{"GELSX nil A", 1, func() error { _, _, err := la.GELSX[float64](nil, b3()); return err }},
		{"GELSX B rows", 2, func() error { _, _, err := la.GELSX(rect, b2); return err }},
		{"GELSS nil A", 1, func() error { _, _, err := la.GELSS[float64](nil, b3()); return err }},
		{"GELSS B rows", 2, func() error { _, _, err := la.GELSS(rect, b2); return err }},
		{"GGLSE nil A", 1, func() error { _, err := la.GGLSE[float64](nil, sq(), v(3), v(3)); return err }},
		{"GGLSE B cols", 2, func() error { _, err := la.GGLSE(sq(), rect, v(3), v(3)); return err }},
		{"GGLSE c len", 3, func() error { _, err := la.GGLSE(sq(), la.NewMatrix[float64](1, 3), v(2), v(1)); return err }},
		{"GGLSE d len", 4, func() error { _, err := la.GGLSE(sq(), la.NewMatrix[float64](1, 3), v(3), v(2)); return err }},
		{"GGLSE p > n", 2, func() error { _, err := la.GGLSE(sq(), la.NewMatrix[float64](4, 3), v(3), v(4)); return err }},
		{"GGGLM nil A", 1, func() error { _, _, err := la.GGGLM[float64](nil, sq(), v(3)); return err }},
		{"GGGLM B rows", 2, func() error { _, _, err := la.GGGLM(sq(), b2, v(3)); return err }},
		{"GGGLM d len", 3, func() error { _, _, err := la.GGGLM(rect, sq(), v(2)); return err }},
		{"GGGLM m > n", 1, func() error {
			_, _, err := la.GGGLM(la.NewMatrix[float64](2, 3), la.NewMatrix[float64](2, 0), v(2))
			return err
		}},

		// Expert drivers (expert.go).
		{"GESVX non-square", 1, func() error { _, err := la.GESVX(rect, b3()); return err }},
		{"GESVX B rows", 2, func() error { _, err := la.GESVX(sq(), b2); return err }},
		{"GBSVX nil AB", 1, func() error { _, err := la.GBSVX[float64](nil, b3()); return err }},
		{"GBSVX B rows", 2, func() error { _, err := la.GBSVX(band(3), b2); return err }},
		{"GBSVX bad KL", 3, func() error { _, err := la.GBSVX(band(3), b3(), la.WithKL(5)); return err }},
		{"GTSVX dl len", 1, func() error { _, err := la.GTSVX(v(1), v(3), v(2), b3()); return err }},
		{"GTSVX B rows", 4, func() error { _, err := la.GTSVX(v(2), v(3), v(2), b2); return err }},
		{"POSVX non-square", 1, func() error { _, err := la.POSVX(rect, b3()); return err }},
		{"POSVX B rows", 2, func() error { _, err := la.POSVX(sq(), b2); return err }},
		{"PPSVX ap len", 1, func() error { _, err := la.PPSVX(v(5), b3()); return err }},
		{"PPSVX B rows", 2, func() error { _, err := la.PPSVX(v(6), b2); return err }},
		{"PBSVX nil AB", 1, func() error { _, err := la.PBSVX[float64](nil, b3()); return err }},
		{"PBSVX B rows", 2, func() error { _, err := la.PBSVX(band(2), b2); return err }},
		{"PTSVX e len", 2, func() error { _, err := la.PTSVX(v(3), v(1), b3()); return err }},
		{"PTSVX B rows", 3, func() error { _, err := la.PTSVX(v(3), v(2), b2); return err }},
		{"SYSVX non-square", 1, func() error { _, err := la.SYSVX(rect, b3()); return err }},
		{"SYSVX B rows", 2, func() error { _, err := la.SYSVX(sq(), b2); return err }},
		{"HESVX non-square", 1, func() error { _, err := la.HESVX(crect, cb3()); return err }},
		{"HESVX B rows", 2, func() error { _, err := la.HESVX(csq(), cb2); return err }},
		{"SPSVX ap len", 1, func() error { _, err := la.SPSVX(v(5), b3()); return err }},
		{"SPSVX B rows", 2, func() error { _, err := la.SPSVX(v(6), b2); return err }},
		{"HPSVX ap len", 1, func() error { _, err := la.HPSVX(cv(5), cb3()); return err }},
		{"HPSVX B rows", 2, func() error { _, err := la.HPSVX(cv(6), cb2); return err }},

		// Computational routines (comp.go).
		{"GETRF nil A", 1, func() error { _, _, err := la.GETRF[float64](nil); return err }},
		{"GETRS non-square", 1, func() error { return la.GETRS(rect, []int{0, 1}, b3()) }},
		{"GETRS ipiv len", 2, func() error { return la.GETRS(sq(), []int{0}, b3()) }},
		{"GETRS B rows", 3, func() error { return la.GETRS(sq(), []int{0, 1, 2}, b2) }},
		{"GETRI non-square", 1, func() error { return la.GETRI(rect, []int{0, 1}) }},
		{"GETRI ipiv len", 2, func() error { return la.GETRI(sq(), []int{0}) }},
		{"GERFS non-square", 1, func() error { _, _, err := la.GERFS(rect, sq(), []int{0, 1, 2}, b3(), b3()); return err }},
		{"GERFS AF shape", 2, func() error { _, _, err := la.GERFS(sq(), rect, []int{0, 1, 2}, b3(), b3()); return err }},
		{"GERFS B/X shape", 4, func() error { _, _, err := la.GERFS(sq(), sq(), []int{0, 1, 2}, b3(), b2); return err }},
		{"GEEQU nil A", 1, func() error { _, _, _, _, _, err := la.GEEQU[float64](nil); return err }},
		{"POTRF non-square", 1, func() error { _, err := la.POTRF(rect); return err }},
		{"SYTRD non-square", 1, func() error { _, _, _, err := la.SYTRD(rect); return err }},
		{"ORGTR non-square", 1, func() error { return la.ORGTR(rect, v(2)) }},
		{"ORGTR tau len", 2, func() error { return la.ORGTR(sq(), v(3)) }},
		{"SYGST non-square", 1, func() error { return la.SYGST(rect, sq()) }},
		{"SYGST B shape", 2, func() error { return la.SYGST(sq(), la.NewMatrix[float64](2, 2)) }},
		{"LANGE nil A", 1, func() error { _, err := la.LANGE[float64](nil); return err }},
		{"LANGE bad norm", 2, func() error { _, err := la.LANGE(sq(), la.WithNorm('Q')); return err }},
		{"LAGGE nil A", 1, func() error { return la.LAGGE[float64](nil, v(3)) }},
		{"LAGGE d len", 4, func() error { return la.LAGGE(sq(), v(2)) }},

		// Symmetric eigenproblems (eig.go).
		{"SYEV non-square", 1, func() error { _, err := la.SYEV(rect); return err }},
		{"SYEVD non-square", 1, func() error { _, err := la.SYEVD(rect); return err }},
		{"SYEVX non-square", 1, func() error { _, err := la.SYEVX(rect); return err }},
		{"SPEV ap len", 1, func() error { _, _, err := la.SPEV(v(5)); return err }},
		{"SPEVD ap len", 1, func() error { _, _, err := la.SPEVD(v(5)); return err }},
		{"SPEVX ap len", 1, func() error { _, err := la.SPEVX(v(5)); return err }},
		{"SBEV nil AB", 1, func() error { _, _, err := la.SBEV[float64](nil); return err }},
		{"SBEVD nil AB", 1, func() error { _, _, err := la.SBEVD[float64](nil); return err }},
		{"SBEVX nil AB", 1, func() error { _, err := la.SBEVX[float64](nil); return err }},
		{"STEV e len", 2, func() error { _, err := la.STEV[float64](v(3), v(1)); return err }},
		{"STEVD e len", 2, func() error { _, err := la.STEVD[float64](v(3), v(1)); return err }},
		{"STEVX e len", 2, func() error { _, err := la.STEVX[float64](v(3), v(1)); return err }},
		{"SYGV non-square", 1, func() error { _, err := la.SYGV(rect, sq()); return err }},
		{"SYGV B shape", 2, func() error { _, err := la.SYGV(sq(), la.NewMatrix[float64](2, 2)); return err }},
		{"SPGV ap len", 1, func() error { _, _, err := la.SPGV(v(5), v(6)); return err }},
		{"SPGV bp len", 2, func() error { _, _, err := la.SPGV(v(6), v(5)); return err }},
		{"SBGV nil AB", 1, func() error { _, _, err := la.SBGV[float64](nil, band(2)); return err }},
		{"SBGV BB shape", 2, func() error { _, _, err := la.SBGV(band(2), la.NewMatrix[float64](2, 2)); return err }},

		// Nonsymmetric eigenproblems and SVD (nonsym.go, gen.go).
		{"GEES non-square", 1, func() error { _, _, _, err := la.GEES(rect); return err }},
		{"GEEV non-square", 1, func() error { _, _, _, err := la.GEEV(rect); return err }},
		{"GESVD nil A", 1, func() error { _, err := la.GESVD[float64](nil); return err }},
		{"GEGS non-square", 1, func() error { _, _, _, err := la.GEGS(rect, sq()); return err }},
		{"GEGS B shape", 2, func() error { _, _, _, err := la.GEGS(sq(), la.NewMatrix[float64](2, 2)); return err }},
		{"GEGV non-square", 1, func() error { _, _, _, err := la.GEGV(rect, sq()); return err }},
		{"GEGV B shape", 2, func() error { _, _, _, err := la.GEGV(sq(), la.NewMatrix[float64](2, 2)); return err }},
		{"GGSVD nil A", 1, func() error { _, err := la.GGSVD[float64](nil, sq()); return err }},
		{"GGSVD B cols", 2, func() error { _, err := la.GGSVD(sq(), rect); return err }},
		{"GEESX non-square", 1, func() error { _, err := la.GEESX(rect); return err }},
		{"GEEVX non-square", 1, func() error { _, err := la.GEEVX(rect); return err }},
	}

	// The stored-matrix rule on every *Matrix argument of every driver and
	// Batch driver: nil, a negative dimension, Stride < Rows and short Data
	// are each INFO = -i for the argument's position i. args lists, per
	// matrix argument, its position and a well-formed shape (S 3×3, b 3×1,
	// r 1×3, L the 4×3 band of GBSV, P the 2×3 band of PBSV/SBEV); call runs
	// the driver on them (a Batch driver on batches of one, reporting the
	// item's error).
	shape := map[byte]func() *la.Matrix[float64]{'S': sq, 'b': b3, 'r': func() *la.Matrix[float64] { return rowv(3) },
		'L': func() *la.Matrix[float64] { return band(4) }, 'P': func() *la.Matrix[float64] { return band(2) }}
	type M = *la.Matrix[float64]
	for _, d := range []struct {
		name, args string
		call       func(m []M) error
	}{
		{"GESV", "1S2b", func(m []M) error { _, err := la.GESV(m[0], m[1]); return err }},
		{"GESV1", "1S", func(m []M) error { _, err := la.GESV1(m[0], v(3)); return err }},
		{"GBSV", "1L2b", func(m []M) error { _, err := la.GBSV(m[0], m[1]); return err }},
		{"GBSV1", "1L", func(m []M) error { _, err := la.GBSV1(m[0], v(3)); return err }},
		{"GTSV", "4b", func(m []M) error { return la.GTSV(v(2), v(3), v(2), m[0]) }},
		{"POSV", "1S2b", func(m []M) error { return la.POSV(m[0], m[1]) }},
		{"POSV1", "1S", func(m []M) error { return la.POSV1(m[0], v(3)) }},
		{"PPSV", "2b", func(m []M) error { return la.PPSV(v(6), m[0]) }},
		{"PBSV", "1P2b", func(m []M) error { return la.PBSV(m[0], m[1]) }},
		{"PBSV1", "1P", func(m []M) error { return la.PBSV1(m[0], v(3)) }},
		{"PTSV", "3b", func(m []M) error { return la.PTSV(v(3), v(2), m[0]) }},
		{"SYSV", "1S2b", func(m []M) error { _, err := la.SYSV(m[0], m[1]); return err }},
		{"SYSV1", "1S", func(m []M) error { _, err := la.SYSV1(m[0], v(3)); return err }},
		{"HESV", "1S2b", func(m []M) error { _, err := la.HESV(m[0], m[1]); return err }},
		{"HESV1", "1S", func(m []M) error { _, err := la.HESV1(m[0], v(3)); return err }},
		{"SPSV", "2b", func(m []M) error { _, err := la.SPSV(v(6), m[0]); return err }},
		{"HPSV", "2b", func(m []M) error { _, err := la.HPSV(v(6), m[0]); return err }},
		{"GELS", "1S2b", func(m []M) error { return la.GELS(m[0], m[1]) }},
		{"GELS1", "1S", func(m []M) error { return la.GELS1(m[0], v(3)) }},
		{"GELSX", "1S2b", func(m []M) error { _, _, err := la.GELSX(m[0], m[1]); return err }},
		{"GELSS", "1S2b", func(m []M) error { _, _, err := la.GELSS(m[0], m[1]); return err }},
		{"GELSD", "1S2b", func(m []M) error { _, _, err := la.GELSD(m[0], m[1]); return err }},
		{"GGLSE", "1S2r", func(m []M) error { _, err := la.GGLSE(m[0], m[1], v(3), v(1)); return err }},
		{"GGGLM", "1S2b", func(m []M) error { _, _, err := la.GGGLM(m[0], m[1], v(3)); return err }},
		{"GESVX", "1S2b", func(m []M) error { _, err := la.GESVX(m[0], m[1]); return err }},
		{"GBSVX", "1S2b", func(m []M) error { _, err := la.GBSVX(m[0], m[1]); return err }},
		{"GTSVX", "4b", func(m []M) error { _, err := la.GTSVX(v(2), v(3), v(2), m[0]); return err }},
		{"POSVX", "1S2b", func(m []M) error { _, err := la.POSVX(m[0], m[1]); return err }},
		{"PPSVX", "2b", func(m []M) error { _, err := la.PPSVX(v(6), m[0]); return err }},
		{"PBSVX", "1P2b", func(m []M) error { _, err := la.PBSVX(m[0], m[1]); return err }},
		{"PTSVX", "3b", func(m []M) error { _, err := la.PTSVX(v(3), v(2), m[0]); return err }},
		{"SYSVX", "1S2b", func(m []M) error { _, err := la.SYSVX(m[0], m[1]); return err }},
		{"HESVX", "1S2b", func(m []M) error { _, err := la.HESVX(m[0], m[1]); return err }},
		{"SPSVX", "2b", func(m []M) error { _, err := la.SPSVX(v(6), m[0]); return err }},
		{"HPSVX", "2b", func(m []M) error { _, err := la.HPSVX(v(6), m[0]); return err }},
		{"GETRF", "1S", func(m []M) error { _, _, err := la.GETRF(m[0]); return err }},
		{"GETRS", "1S3b", func(m []M) error { return la.GETRS(m[0], []int{0, 1, 2}, m[1]) }},
		{"GETRI", "1S", func(m []M) error { return la.GETRI(m[0], []int{0, 1, 2}) }},
		{"GERFS", "1S2S4b5b", func(m []M) error { _, _, err := la.GERFS(m[0], m[1], []int{0, 1, 2}, m[2], m[3]); return err }},
		{"GEEQU", "1S", func(m []M) error { _, _, _, _, _, err := la.GEEQU(m[0]); return err }},
		{"POTRF", "1S", func(m []M) error { _, err := la.POTRF(m[0]); return err }},
		{"SYTRD", "1S", func(m []M) error { _, _, _, err := la.SYTRD(m[0]); return err }},
		{"HETRD", "1S", func(m []M) error { _, _, _, err := la.HETRD(m[0]); return err }},
		{"ORGTR", "1S", func(m []M) error { return la.ORGTR(m[0], v(2)) }},
		{"UNGTR", "1S", func(m []M) error { return la.UNGTR(m[0], v(2)) }},
		{"SYGST", "1S2S", func(m []M) error { return la.SYGST(m[0], m[1]) }},
		{"HEGST", "1S2S", func(m []M) error { return la.HEGST(m[0], m[1]) }},
		{"LANGE", "1S", func(m []M) error { _, err := la.LANGE(m[0]); return err }},
		{"LAGGE", "1S", func(m []M) error { return la.LAGGE(m[0], v(3)) }},
		{"SYEV", "1S", func(m []M) error { _, err := la.SYEV(m[0]); return err }},
		{"HEEV", "1S", func(m []M) error { _, err := la.HEEV(m[0]); return err }},
		{"SYEVD", "1S", func(m []M) error { _, err := la.SYEVD(m[0]); return err }},
		{"HEEVD", "1S", func(m []M) error { _, err := la.HEEVD(m[0]); return err }},
		{"SYEVX", "1S", func(m []M) error { _, err := la.SYEVX(m[0]); return err }},
		{"HEEVX", "1S", func(m []M) error { _, err := la.HEEVX(m[0]); return err }},
		{"SBEV", "1P", func(m []M) error { _, _, err := la.SBEV(m[0]); return err }},
		{"HBEV", "1P", func(m []M) error { _, _, err := la.HBEV(m[0]); return err }},
		{"SBEVD", "1P", func(m []M) error { _, _, err := la.SBEVD(m[0]); return err }},
		{"HBEVD", "1P", func(m []M) error { _, _, err := la.HBEVD(m[0]); return err }},
		{"SBEVX", "1P", func(m []M) error { _, err := la.SBEVX(m[0]); return err }},
		{"HBEVX", "1P", func(m []M) error { _, err := la.HBEVX(m[0]); return err }},
		{"SYGV", "1S2S", func(m []M) error { _, err := la.SYGV(m[0], m[1]); return err }},
		{"HEGV", "1S2S", func(m []M) error { _, err := la.HEGV(m[0], m[1]); return err }},
		{"SBGV", "1P2P", func(m []M) error { _, _, err := la.SBGV(m[0], m[1]); return err }},
		{"HBGV", "1P2P", func(m []M) error { _, _, err := la.HBGV(m[0], m[1]); return err }},
		{"GEES", "1S", func(m []M) error { _, _, _, err := la.GEES(m[0]); return err }},
		{"GEEV", "1S", func(m []M) error { _, _, _, err := la.GEEV(m[0]); return err }},
		{"GESVD", "1S", func(m []M) error { _, err := la.GESVD(m[0]); return err }},
		{"GEGS", "1S2S", func(m []M) error { _, _, _, err := la.GEGS(m[0], m[1]); return err }},
		{"GEGV", "1S2S", func(m []M) error { _, _, _, err := la.GEGV(m[0], m[1]); return err }},
		{"GGSVD", "1S2S", func(m []M) error { _, err := la.GGSVD(m[0], m[1]); return err }},
		{"GEESX", "1S", func(m []M) error { _, err := la.GEESX(m[0]); return err }},
		{"GEEVX", "1S", func(m []M) error { _, err := la.GEEVX(m[0]); return err }},
		{"BatchGesv", "1S2b", func(m []M) error { return itemErr1(la.BatchGesv(m[:1], m[1:])) }},
		{"BatchPosv", "1S2b", func(m []M) error { return itemErr(la.BatchPosv(m[:1], m[1:])) }},
		{"BatchSyev", "1S", func(m []M) error { return itemErr1(la.BatchSyev(m)) }},
		{"BatchGemm", "2S3b5b", func(m []M) error { return itemErr(la.BatchGemm(1, m[:1], m[1:2], 0, m[2:])) }},
		{"BatchGesvx", "1S2b", func(m []M) error { return itemErr1(la.BatchGesvx(m[:1], m[1:])) }},
		{"BatchPosvx", "1S2b", func(m []M) error { return itemErr1(la.BatchPosvx(m[:1], m[1:])) }},
		{"BatchGesdd", "1S", func(m []M) error { return itemErr1(la.BatchGesdd(m)) }},
		{"BatchGelsd", "1S2b", func(m []M) error { return itemErr2(la.BatchGelsd(m[:1], m[1:])) }},
	} {
		for k := 0; k < len(d.args); k += 2 {
			arg := int(d.args[k] - '0')
			for flaw, bad := range map[string]func(m M) M{
				"nil":    func(M) M { return nil },
				"negdim": func(m M) M { return &la.Matrix[float64]{Rows: -1, Cols: m.Cols, Stride: m.Stride, Data: m.Data} },
				"stride": strideBelowRows,
				"short":  shortData,
			} {
				ms := make([]M, len(d.args)/2)
				for j := range ms {
					ms[j] = shape[d.args[2*j+1]]()
				}
				ms[k/2] = bad(ms[k/2])
				probes = append(probes, struct {
					name string
					arg  int
					call func() error
				}{fmt.Sprintf("%s arg %d %s", d.name, arg, flaw), arg, func() error { return d.call(ms) }})
			}
		}
	}

	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			err := p.call()
			var e *la.Error
			if !errors.As(err, &e) {
				t.Fatalf("expected *la.Error, got %T (%v)", err, err)
			}
			if e.Info != -p.arg {
				t.Fatalf("INFO = %d, want %d (%v)", e.Info, -p.arg, e)
			}
		})
	}
}

// strideBelowRows is m with Stride = Rows − 1, shortData m with one element
// of Data too few: two malformed matrices the stored-matrix rule rejects.
func strideBelowRows(m *la.Matrix[float64]) *la.Matrix[float64] {
	return &la.Matrix[float64]{Rows: m.Rows, Cols: m.Cols, Stride: m.Rows - 1, Data: m.Data}
}

func shortData(m *la.Matrix[float64]) *la.Matrix[float64] {
	return &la.Matrix[float64]{Rows: m.Rows, Cols: m.Cols, Stride: m.Stride, Data: m.Data[:len(m.Data)-1]}
}

// itemErr is the error of a batch of one: the batch-level error, else the
// item's; itemErr1 and itemErr2 take the results of a Batch driver with one
// or two more outputs.
func itemErr(errs []error, err error) error {
	if err != nil {
		return err
	}
	return errs[0]
}

func itemErr1[R any](_ R, errs []error, err error) error { return itemErr(errs, err) }

func itemErr2[R, S any](_ R, _ S, errs []error, err error) error { return itemErr(errs, err) }

// TestErrorMessageFormat checks the ERINFO-style rendering.
func TestErrorMessageFormat(t *testing.T) {
	e := &la.Error{Routine: "LA_GESV", Info: -2}
	want := "LA_GESV: argument 2 had an illegal value (INFO = -2)"
	if e.Error() != want {
		t.Fatalf("got %q want %q", e.Error(), want)
	}
	e2 := &la.Error{Routine: "LA_POSV", Info: 3, Detail: "matrix is not positive definite"}
	if e2.Error() != "LA_POSV: matrix is not positive definite (INFO = 3)" {
		t.Fatalf("got %q", e2.Error())
	}
}
