package lapack

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/testutil/diff"
)

// White-box tests of the Householder path: the recursive panel against its
// unblocked leaves, the T hand-over against Larft, and the apply-Qᴴ Gelsd
// against the direct SVD drive on the same input.

func randT[T core.Scalar](seed, m, n int) []T {
	a := make([]T, m*n)
	Larnv(2, NewRng([4]int{seed, m, n, 1}), m*n, a)
	return a
}

// qrRatios returns ‖QᴴQ − I‖₁/(m·ε) and ‖A − Q·R‖₁/(‖A‖₁·m·ε) for the
// factored form (v, tau) of the m×n matrix a.
func qrRatios[T core.Scalar](m, n int, a, v, tau []T) (orth, resid float64) {
	one, zero := core.FromFloat[T](1), core.FromFloat[T](0)
	q := append([]T(nil), v...)
	Orgqr(tcfg(), m, n, n, q, m, tau)
	g := make([]T, n*n)
	blas.Gemm(tcfg(), ConjTrans, NoTrans, n, n, m, one, q, m, q, m, zero, g, n)
	for i := 0; i < n; i++ {
		g[i+i*n] -= one
	}
	r := make([]T, n*n)
	Lacpy('U', n, n, v, m, r, n)
	d := append([]T(nil), a...)
	blas.Gemm(tcfg(), NoTrans, NoTrans, m, n, n, -one, q, m, r, n, one, d, m)
	scale := float64(m) * core.Eps[T]()
	return Lange(OneNorm, n, n, g, n) / scale, Lange(OneNorm, m, n, d, m) / (Lange(OneNorm, m, n, a, m) * scale)
}

func testGeqrt3[T core.Scalar](t *testing.T, m, n int) {
	t.Helper()
	a := randT[T](51, m, n)
	if m == n {
		// Keep the square case well conditioned, so that two backward-stable
		// factorizations also agree forward.
		for i := 0; i < n; i++ {
			a[i+i*m] += core.FromFloat[T](float64(n))
		}
	}
	anorm := Lange(MaxAbs, m, n, a, m)
	work := make([]T, max(n*n, 1))

	ref, tauRef := append([]T(nil), a...), make([]T, n)
	Geqr2(tcfg(), m, n, ref, m, tauRef, work)

	v, tau, tm := append([]T(nil), a...), make([]T, n), make([]T, n*n)
	geqrt3(tcfg(), m, n, v, m, tau, tm, n, work)

	// R, V and tau agree with the unblocked factorization to roundoff.
	tol := 20 * float64(n) * core.Eps[T]() * math.Max(anorm, 1)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if d := core.Abs(v[i+j*m] - ref[i+j*m]); d > tol {
				t.Fatalf("%dx%d: factored (%d,%d) differs from Geqr2 by %g (tol %g)", m, n, i, j, d, tol)
			}
		}
		if d := core.Abs(tau[j] - tauRef[j]); d > tol {
			t.Fatalf("%dx%d: tau[%d] differs from Geqr2 by %g", m, n, j, d)
		}
	}
	// T is Larft's T of the same V and tau, and carries tau on its diagonal.
	tRef := make([]T, n*n)
	Larft(tcfg(), m, n, v, m, tau, tRef, n)
	for j := 0; j < n; j++ {
		if tm[j+j*n] != tau[j] {
			t.Fatalf("%dx%d: T(%d,%d) = %v, tau = %v", m, n, j, j, tm[j+j*n], tau[j])
		}
		for i := 0; i < j; i++ {
			if d := core.Abs(tm[i+j*n] - tRef[i+j*n]); d > tol {
				t.Fatalf("%dx%d: T(%d,%d) differs from Larft by %g", m, n, i, j, d)
			}
		}
	}
	if orth, resid := qrRatios(m, n, a, v, tau); orth > 10 || resid > 10 {
		t.Fatalf("%dx%d: ‖QᴴQ−I‖ ratio %.2f, ‖A−QR‖ ratio %.2f", m, n, orth, resid)
	}
}

func TestGeqrt3(t *testing.T) {
	// Tall enough to recurse (ragged, odd and even widths, one column),
	// square with a full-depth recursion, and shapes that are a leaf outright;
	// then either side of qrLeafWidth on a tall panel and of qrRecurseMinRows
	// on a full-width one.
	shapes := [][2]int{{700, 29}, {640, 32}, {530, 17}, {600, 1}, {520, 520}, {7, 7}, {5, 3}, {100, 32},
		{4096, qrLeafWidth}, {4096, qrLeafWidth + 1}, {qrRecurseMinRows - 1, 32}, {qrRecurseMinRows, 32}}
	for _, sh := range shapes {
		m, n := sh[0], sh[1]
		t.Run(fmt.Sprintf("%dx%d", m, n), func(t *testing.T) {
			testGeqrt3[float64](t, m, n)
			testGeqrt3[float32](t, m, n)
			testGeqrt3[complex128](t, m, n)
			testGeqrt3[complex64](t, m, n)
		})
	}
}

// testTHandOver checks that the blocked apply and generate loops compute
// the same bits from a handed-over T stack as from the Larft they run
// themselves — provided the stack is Larft's. geqrt3's T differs from
// Larft's in rounding, so the stack here is rebuilt by Larft from the
// factored form; the factorization's own stack is then held to roundoff.
func testTHandOver[T core.Scalar](t *testing.T, m, n int) {
	t.Helper()
	cfg := tcfg()
	a := randT[T](61, m, n)
	tau := make([]T, n)
	ts := geqrfT(cfg, m, n, a, m, tau)
	if ts == nil {
		t.Fatalf("%dx%d did not take the blocked path", m, n)
	}
	defer ts.release()
	nb := ts.nb
	build := &blockT[T]{nb: nb} // nothing handed over: the loops call Larft
	larftStack := &blockT[T]{nb: nb, t: make([]T, nb*n)}
	for i := 0; i < n; i += nb {
		Larft(cfg, m-i, min(nb, n-i), a[i+i*m:], m, tau[i:], larftStack.t[i*nb:], nb)
	}
	const nrhs = 5
	c0 := randT[T](62, m, nrhs)
	r0 := randT[T](63, nrhs, m)
	for _, trans := range []Trans{NoTrans, ConjTrans} {
		built, handed, own := append([]T(nil), c0...), append([]T(nil), c0...), append([]T(nil), c0...)
		ormqrBlocked(cfg, Left, trans, m, nrhs, n, a, m, tau, built, m, build)
		ormqrBlocked(cfg, Left, trans, m, nrhs, n, a, m, tau, handed, m, larftStack)
		ormqrBlocked(cfg, Left, trans, m, nrhs, n, a, m, tau, own, m, ts)
		if !diff.Same(built, handed) {
			t.Fatalf("%dx%d Left %v: handed-over T changes the bits", m, n, trans)
		}
		if d := diff.MaxDiff(own, built); d > 50*float64(n)*core.Eps[T]() {
			t.Fatalf("%dx%d Left %v: factorization's T off by %g", m, n, trans, d)
		}
		built, handed = append([]T(nil), r0...), append([]T(nil), r0...)
		ormqrBlocked(cfg, Right, trans, nrhs, m, n, a, m, tau, built, nrhs, build)
		ormqrBlocked(cfg, Right, trans, nrhs, m, n, a, m, tau, handed, nrhs, larftStack)
		if !diff.Same(built, handed) {
			t.Fatalf("%dx%d Right %v: handed-over T changes the bits", m, n, trans)
		}
	}
	built, handed, own := append([]T(nil), a...), append([]T(nil), a...), append([]T(nil), a...)
	orgqrBlocked(cfg, m, n, n, built, m, tau, build)
	orgqrBlocked(cfg, m, n, n, handed, m, tau, larftStack)
	orgqrBlocked(cfg, m, n, n, own, m, tau, ts)
	if !diff.Same(built, handed) {
		t.Fatalf("%dx%d Orgqr: handed-over T changes the bits", m, n)
	}
	if d := diff.MaxDiff(own, built); d > 50*float64(n)*core.Eps[T]() {
		t.Fatalf("%dx%d Orgqr: factorization's T off by %g", m, n, d)
	}
}

func TestQRTHandOver(t *testing.T) {
	for _, sh := range [][2]int{{600, 100}, {130, 70}} {
		testTHandOver[float64](t, sh[0], sh[1])
		testTHandOver[float32](t, sh[0], sh[1])
		testTHandOver[complex128](t, sh[0], sh[1])
		testTHandOver[complex64](t, sh[0], sh[1])
	}
}

// testGelsdTallVsDirect runs gelsdTall and the direct drive gelsdSVD on the
// same tall input: same rank, singular values to roundoff, and both
// solutions satisfy the normal equations of the rank-truncated problem
// equally well (the solutions themselves agree to cond·ε, which the graded
// and rank-deficient inputs make uninformative).
func testGelsdTallVsDirect[T core.Scalar](t *testing.T, kind string, m, n, wantRank int, a []T) {
	t.Helper()
	const nrhs = 3
	b := randT[T](71, m, nrhs)
	eps := core.Eps[T]()
	rcond := 100 * eps
	run := func(f func(*core.Config, int, int, int, []T, int, []T, int, []float64, float64) (int, int)) ([]T, []float64, int) {
		ac, x, s := append([]T(nil), a...), append([]T(nil), b...), make([]float64, n)
		rank, info := f(tcfg(), m, n, nrhs, ac, m, x, m, s, rcond)
		if info != 0 {
			t.Fatalf("%s: info %d", kind, info)
		}
		return x, s, rank
	}
	xt, st, rt := run(gelsdTall[T])
	xd, sd, rd := run(gelsdSVD[T])
	if rt != rd || (wantRank >= 0 && rt != wantRank) {
		t.Fatalf("%s: tall rank %d, direct rank %d, want %d", kind, rt, rd, wantRank)
	}
	for i := range st {
		if math.IsNaN(st[i]) || math.IsInf(st[i], 0) {
			t.Fatalf("%s: s[%d] = %v", kind, i, st[i])
		}
		if d := math.Abs(st[i] - sd[i]); d > 50*float64(n)*eps*sd[0] {
			t.Fatalf("%s: s[%d] tall %g direct %g", kind, i, st[i], sd[i])
		}
	}
	// Minimum-norm solutions of the same truncated problem: equal norms and
	// equal residuals, to roundoff relative to the problem's scale.
	one := core.FromFloat[T](1)
	for j := 0; j < nrhs; j++ {
		var res [2]float64
		for k, x := range [][]T{xt, xd} {
			r := append([]T(nil), b[j*m:j*m+m]...)
			blas.Gemv(tcfg(), NoTrans, m, n, -one, a, m, x[j*m:], 1, one, r, 1)
			res[k] = blas.Nrm2(m, r, 1)
		}
		bn := blas.Nrm2(m, b[j*m:], 1)
		if d := math.Abs(res[0] - res[1]); d > 1e3*float64(m)*eps*bn {
			t.Fatalf("%s: residuals differ: tall %g direct %g", kind, res[0], res[1])
		}
		nt, nd := blas.Nrm2(n, xt[j*m:], 1), blas.Nrm2(n, xd[j*m:], 1)
		if rt == n && kind == "random" {
			if d := diff.MaxDiff(xt[j*m:j*m+n], xd[j*m:j*m+n]); d > 1e3*float64(n)*eps*nd {
				t.Fatalf("%s: solutions differ by %g", kind, d)
			}
		}
		if math.IsNaN(nt) || math.Abs(nt-nd) > 1e-2*nd {
			t.Fatalf("%s: solution norms tall %g direct %g", kind, nt, nd)
		}
	}
}

func testGelsdKinds[T core.Scalar](t *testing.T) {
	const m, n = 300, 40
	testGelsdTallVsDirect(t, "random", m, n, n, randT[T](72, m, n))

	// Graded columns, 2^-(j/2): full rank at rcond = 100ε for every type.
	g := randT[T](73, m, n)
	for j := 0; j < n; j++ {
		blas.Scal(m, core.FromFloat[T](math.Ldexp(1, -j/4)), g[j*m:], 1)
	}
	testGelsdTallVsDirect(t, "graded", m, n, n, g)

	// Rank n−5: the last five columns repeat the first five.
	d := randT[T](74, m, n)
	for j := n - 5; j < n; j++ {
		copy(d[j*m:j*m+m], d[(j-(n-5))*m:])
	}
	testGelsdTallVsDirect(t, "rank-deficient", m, n, n-5, d)

	// Entries at the edges of the exponent range: the pre-scaling in front
	// of the QR must keep every square finite and non-zero.
	big, small := 500, -500
	if eps := core.Eps[T](); eps > 1e-10 {
		big, small = 60, -60
	}
	for _, e := range []int{big, small} {
		sc := randT[T](75, m, n)
		blas.Scal(m*n, core.FromFloat[T](math.Ldexp(1, e)), sc, 1)
		testGelsdTallVsDirect(t, fmt.Sprintf("scaled 2^%d", e), m, n, n, sc)
	}
}

func TestGelsdTallMatchesDirect(t *testing.T) {
	t.Run("float64", testGelsdKinds[float64])
	t.Run("float32", testGelsdKinds[float32])
	t.Run("complex128", testGelsdKinds[complex128])
	t.Run("complex64", testGelsdKinds[complex64])
}
