package la_test

import (
	"fmt"
	"testing"

	"repro/la"
)

// Every la routine on an empty problem: n = 0 is LAPACK's quick return
// whatever nrhs is — no error, nothing solved — and so is nrhs = 0 at n > 0
// for the routines that take a right-hand side. A matrix with no elements
// is well formed with no storage at all (Data nil), which is how every
// empty argument here is passed. (Gttrs and Pttrs used to index the last row
// of an empty column, and Lacpy, Pbtrs and Pptrs to slice an empty B, which
// the la boundary reported as a contained fault.)
func testTridiagonalQuickReturn[T la.Scalar](t *testing.T) {
	// mat is r×c: c+1 on the diagonal, 1 elsewhere — nonsingular, symmetric
	// positive definite when square — and no storage when it is empty.
	mat := func(r, c int) *la.Matrix[T] {
		m := &la.Matrix[T]{Rows: r, Cols: c, Stride: max(1, r)}
		if r*c == 0 {
			return m
		}
		m.Data = make([]T, r*c)
		for j := 0; j < c; j++ {
			for i := 0; i < r; i++ {
				m.Set(i, j, fromC[T](complex(float64(1+c*b2i(i == j)), 0)))
			}
		}
		return m
	}
	// band is the rows×n band storage of such a matrix, diagonal in row diag.
	band := func(rows, diag, n int) *la.Matrix[T] {
		m := mat(rows, n)
		for j := 0; j < n; j++ {
			m.Set(diag, j, fromC[T](complex(float64(n+1), 0)))
		}
		return m
	}
	vec := func(k int, v float64) []T {
		s := make([]T, max(0, k))
		for i := range s {
			s[i] = fromC[T](complex(v, 0))
		}
		return s
	}
	re := func(k int, v float64) []float64 {
		s := make([]float64, max(0, k))
		for i := range s {
			s[i] = v
		}
		return s
	}
	// packed is mat(n, n) packed column-wise (either triangle: it is symmetric).
	packed := func(n int) []T {
		s := vec(n*(n+1)/2, 1)
		for j, k := 0, 0; j < n; k, j = k+j+1, j+1 {
			s[k+j] = fromC[T](complex(float64(n+1), 0))
		}
		return s
	}
	piv := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		return p
	}
	x := func(n, nrhs int, res *la.ExpertResult[T], err error) error {
		if err == nil && (res.X.Rows != n || res.X.Cols != nrhs) {
			return fmt.Errorf("X is %dx%d", res.X.Rows, res.X.Cols)
		}
		return err
	}
	vecs := la.WithVectors()
	// rhs marks the routines that take a right-hand side, which also run at
	// n = 4, nrhs = 0; the others run at n = 0 only.
	cases := []struct {
		name string
		rhs  bool
		call func(n, nrhs int) error
	}{
		{"GESV", true, func(n, r int) error { _, err := la.GESV(mat(n, n), mat(n, r)); return err }},
		{"GESV1", false, func(n, r int) error { _, err := la.GESV1(mat(n, n), vec(n, 1)); return err }},
		{"GBSV", true, func(n, r int) error { _, err := la.GBSV(band(4, 2, n), mat(n, r)); return err }},
		{"GBSV1", false, func(n, r int) error { _, err := la.GBSV1(band(4, 2, n), vec(n, 1)); return err }},
		{"GTSV", true, func(n, r int) error { return la.GTSV(vec(n-1, 1), vec(n, 4), vec(n-1, 1), mat(n, r)) }},
		{"GTSV1", false, func(n, r int) error { return la.GTSV1(vec(n-1, 1), vec(n, 4), vec(n-1, 1), vec(n, 1)) }},
		{"POSV", true, func(n, r int) error { return la.POSV(mat(n, n), mat(n, r)) }},
		{"POSV1", false, func(n, r int) error { return la.POSV1(mat(n, n), vec(n, 1)) }},
		{"PPSV", true, func(n, r int) error { return la.PPSV(packed(n), mat(n, r)) }},
		{"PPSV1", false, func(n, r int) error { return la.PPSV1(packed(n), vec(n, 1)) }},
		{"PBSV", true, func(n, r int) error { return la.PBSV(band(2, 1, n), mat(n, r)) }},
		{"PBSV1", false, func(n, r int) error { return la.PBSV1(band(2, 1, n), vec(n, 1)) }},
		{"PTSV", true, func(n, r int) error { return la.PTSV(re(n, 4), vec(n-1, 1), mat(n, r)) }},
		{"PTSV1", false, func(n, r int) error { return la.PTSV1(re(n, 4), vec(n-1, 1), vec(n, 1)) }},
		{"SYSV", true, func(n, r int) error { _, err := la.SYSV(mat(n, n), mat(n, r)); return err }},
		{"SYSV1", false, func(n, r int) error { _, err := la.SYSV1(mat(n, n), vec(n, 1)); return err }},
		{"HESV", true, func(n, r int) error { _, err := la.HESV(mat(n, n), mat(n, r)); return err }},
		{"HESV1", false, func(n, r int) error { _, err := la.HESV1(mat(n, n), vec(n, 1)); return err }},
		{"SPSV", true, func(n, r int) error { _, err := la.SPSV(packed(n), mat(n, r)); return err }},
		{"SPSV1", false, func(n, r int) error { _, err := la.SPSV1(packed(n), vec(n, 1)); return err }},
		{"HPSV", true, func(n, r int) error { _, err := la.HPSV(packed(n), mat(n, r)); return err }},
		{"HPSV1", false, func(n, r int) error { _, err := la.HPSV1(packed(n), vec(n, 1)); return err }},
		{"GELS", true, func(n, r int) error { return la.GELS(mat(n, n), mat(n, r)) }},
		{"GELS1", false, func(n, r int) error { return la.GELS1(mat(n, n), vec(n, 1)) }},
		{"GELSX", true, func(n, r int) error { _, _, err := la.GELSX(mat(n, n), mat(n, r)); return err }},
		{"GELSS", true, func(n, r int) error { _, _, err := la.GELSS(mat(n, n), mat(n, r)); return err }},
		{"GELSD", true, func(n, r int) error { _, _, err := la.GELSD(mat(n, n), mat(n, r)); return err }},
		{"GGLSE", false, func(n, r int) error { _, err := la.GGLSE(mat(n, n), mat(n, n), vec(n, 1), vec(n, 1)); return err }},
		{"GGGLM", false, func(n, r int) error { _, _, err := la.GGGLM(mat(n, n), mat(n, n), vec(n, 1)); return err }},
		{"GESVX", true, func(n, r int) error { res, err := la.GESVX(mat(n, n), mat(n, r)); return x(n, r, res, err) }},
		{"GBSVX", true, func(n, r int) error { res, err := la.GBSVX(band(3, 1, n), mat(n, r)); return x(n, r, res, err) }},
		{"GTSVX", true, func(n, r int) error {
			res, err := la.GTSVX(vec(n-1, 1), vec(n, 4), vec(n-1, 1), mat(n, r))
			return x(n, r, res, err)
		}},
		{"POSVX", true, func(n, r int) error { res, err := la.POSVX(mat(n, n), mat(n, r)); return x(n, r, res, err) }},
		{"PPSVX", true, func(n, r int) error { res, err := la.PPSVX(packed(n), mat(n, r)); return x(n, r, res, err) }},
		{"PBSVX", true, func(n, r int) error { res, err := la.PBSVX(band(2, 1, n), mat(n, r)); return x(n, r, res, err) }},
		{"PTSVX", true, func(n, r int) error { res, err := la.PTSVX(re(n, 4), vec(n-1, 1), mat(n, r)); return x(n, r, res, err) }},
		{"SYSVX", true, func(n, r int) error { res, err := la.SYSVX(mat(n, n), mat(n, r)); return x(n, r, res, err) }},
		{"HESVX", true, func(n, r int) error { res, err := la.HESVX(mat(n, n), mat(n, r)); return x(n, r, res, err) }},
		{"SPSVX", true, func(n, r int) error { res, err := la.SPSVX(packed(n), mat(n, r)); return x(n, r, res, err) }},
		{"HPSVX", true, func(n, r int) error { res, err := la.HPSVX(packed(n), mat(n, r)); return x(n, r, res, err) }},
		{"GETRF", false, func(n, r int) error { _, _, err := la.GETRF(mat(n, n)); return err }},
		{"GETRS", true, func(n, r int) error { return la.GETRS(mat(n, n), piv(n), mat(n, r)) }},
		{"GETRI", false, func(n, r int) error { return la.GETRI(mat(n, n), piv(n)) }},
		{"GERFS", true, func(n, r int) error {
			_, _, err := la.GERFS(mat(n, n), mat(n, n), piv(n), mat(n, r), mat(n, r))
			return err
		}},
		{"GEEQU", false, func(n, r int) error { _, _, _, _, _, err := la.GEEQU(mat(n, n)); return err }},
		{"POTRF", false, func(n, r int) error { _, err := la.POTRF(mat(n, n)); return err }},
		{"SYTRD", false, func(n, r int) error { _, _, _, err := la.SYTRD(mat(n, n)); return err }},
		{"HETRD", false, func(n, r int) error { _, _, _, err := la.HETRD(mat(n, n)); return err }},
		{"ORGTR", false, func(n, r int) error { return la.ORGTR(mat(n, n), vec(n-1, 0)) }},
		{"UNGTR", false, func(n, r int) error { return la.UNGTR(mat(n, n), vec(n-1, 0)) }},
		{"SYGST", false, func(n, r int) error { return la.SYGST(mat(n, n), mat(n, n)) }},
		{"HEGST", false, func(n, r int) error { return la.HEGST(mat(n, n), mat(n, n)) }},
		{"LANGE", false, func(n, r int) error { _, err := la.LANGE(mat(n, n)); return err }},
		{"LAGGE", false, func(n, r int) error { return la.LAGGE(mat(n, n), re(n, 1)) }},
		{"SYEV", false, func(n, r int) error { _, err := la.SYEV(mat(n, n), vecs); return err }},
		{"HEEV", false, func(n, r int) error { _, err := la.HEEV(mat(n, n), vecs); return err }},
		{"SYEVD", false, func(n, r int) error { _, err := la.SYEVD(mat(n, n), vecs); return err }},
		{"HEEVD", false, func(n, r int) error { _, err := la.HEEVD(mat(n, n), vecs); return err }},
		{"SYEVX", false, func(n, r int) error { _, err := la.SYEVX(mat(n, n), vecs); return err }},
		{"HEEVX", false, func(n, r int) error { _, err := la.HEEVX(mat(n, n), vecs); return err }},
		{"SPEV", false, func(n, r int) error { _, _, err := la.SPEV(packed(n), vecs); return err }},
		{"HPEV", false, func(n, r int) error { _, _, err := la.HPEV(packed(n), vecs); return err }},
		{"SPEVD", false, func(n, r int) error { _, _, err := la.SPEVD(packed(n), vecs); return err }},
		{"HPEVD", false, func(n, r int) error { _, _, err := la.HPEVD(packed(n), vecs); return err }},
		{"SPEVX", false, func(n, r int) error { _, err := la.SPEVX(packed(n), vecs); return err }},
		{"HPEVX", false, func(n, r int) error { _, err := la.HPEVX(packed(n), vecs); return err }},
		{"SBEV", false, func(n, r int) error { _, _, err := la.SBEV(band(2, 1, n), vecs); return err }},
		{"HBEV", false, func(n, r int) error { _, _, err := la.HBEV(band(2, 1, n), vecs); return err }},
		{"SBEVD", false, func(n, r int) error { _, _, err := la.SBEVD(band(2, 1, n), vecs); return err }},
		{"HBEVD", false, func(n, r int) error { _, _, err := la.HBEVD(band(2, 1, n), vecs); return err }},
		{"SBEVX", false, func(n, r int) error { _, err := la.SBEVX(band(2, 1, n), vecs); return err }},
		{"HBEVX", false, func(n, r int) error { _, err := la.HBEVX(band(2, 1, n), vecs); return err }},
		{"STEV", false, func(n, r int) error { _, err := la.STEV[T](re(n, 4), re(n-1, 1), vecs); return err }},
		{"STEVD", false, func(n, r int) error { _, err := la.STEVD[T](re(n, 4), re(n-1, 1), vecs); return err }},
		{"STEVX", false, func(n, r int) error { _, err := la.STEVX[T](re(n, 4), re(n-1, 1), vecs); return err }},
		{"SYGV", false, func(n, r int) error { _, err := la.SYGV(mat(n, n), mat(n, n), vecs); return err }},
		{"HEGV", false, func(n, r int) error { _, err := la.HEGV(mat(n, n), mat(n, n), vecs); return err }},
		{"SPGV", false, func(n, r int) error { _, _, err := la.SPGV(packed(n), packed(n), vecs); return err }},
		{"HPGV", false, func(n, r int) error { _, _, err := la.HPGV(packed(n), packed(n), vecs); return err }},
		{"SBGV", false, func(n, r int) error { _, _, err := la.SBGV(band(2, 1, n), band(2, 1, n), vecs); return err }},
		{"HBGV", false, func(n, r int) error { _, _, err := la.HBGV(band(2, 1, n), band(2, 1, n), vecs); return err }},
		{"GEES", false, func(n, r int) error { _, _, _, err := la.GEES(mat(n, n), la.WithSchurVectors()); return err }},
		{"GEEV", false, func(n, r int) error { _, _, _, err := la.GEEV(mat(n, n), la.WithLeft(), la.WithRight()); return err }},
		{"GESVD", false, func(n, r int) error { _, err := la.GESVD(mat(n, n)); return err }},
		{"GEGS", false, func(n, r int) error { _, _, _, err := la.GEGS(mat(n, n), mat(n, n)); return err }},
		{"GEGV", false, func(n, r int) error { _, _, _, err := la.GEGV(mat(n, n), mat(n, n), la.WithRight()); return err }},
		{"GGSVD", false, func(n, r int) error { _, err := la.GGSVD(mat(n, n), mat(n, n)); return err }},
		{"GEESX", false, func(n, r int) error { _, err := la.GEESX(mat(n, n)); return err }},
		{"GEEVX", false, func(n, r int) error { _, err := la.GEEVX(mat(n, n), la.WithRight()); return err }},
		{"BatchGesv", true, func(n, r int) error { return itemErr1(la.BatchGesv(ms(mat(n, n)), ms(mat(n, r)))) }},
		{"BatchPosv", true, func(n, r int) error { return itemErr(la.BatchPosv(ms(mat(n, n)), ms(mat(n, r)))) }},
		{"BatchSyev", false, func(n, r int) error { return itemErr1(la.BatchSyev(ms(mat(n, n)), vecs)) }},
		{"BatchGemm", true, func(n, r int) error {
			return itemErr(la.BatchGemm(fromC[T](1), ms(mat(n, n)), ms(mat(n, r)), fromC[T](0), ms(mat(n, r))))
		}},
		{"BatchGesvx", true, func(n, r int) error { return itemErr1(la.BatchGesvx(ms(mat(n, n)), ms(mat(n, r)))) }},
		{"BatchPosvx", true, func(n, r int) error { return itemErr1(la.BatchPosvx(ms(mat(n, n)), ms(mat(n, r)))) }},
		{"BatchGesdd", false, func(n, r int) error { return itemErr1(la.BatchGesdd(ms(mat(n, n)))) }},
		{"BatchGelsd", true, func(n, r int) error { return itemErr2(la.BatchGelsd(ms(mat(n, n)), ms(mat(n, r)))) }},
	}
	for _, c := range cases {
		for _, sh := range [][2]int{{0, 3}, {0, 0}, {4, 0}} {
			if sh[0] > 0 && !c.rhs {
				continue
			}
			if err := c.call(sh[0], sh[1]); err != nil {
				t.Errorf("%s n=%d nrhs=%d: %v", c.name, sh[0], sh[1], err)
			}
		}
	}
}

// ms is a batch of one.
func ms[T la.Scalar](m *la.Matrix[T]) []*la.Matrix[T] { return []*la.Matrix[T]{m} }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestTridiagonalQuickReturn(t *testing.T) {
	t.Run("float32", testTridiagonalQuickReturn[float32])
	t.Run("float64", testTridiagonalQuickReturn[float64])
	t.Run("complex64", testTridiagonalQuickReturn[complex64])
	t.Run("complex128", testTridiagonalQuickReturn[complex128])
}
