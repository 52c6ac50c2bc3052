package lapack_test

// Property tests for the PR-2 factorization rewiring: the recursive LU
// panel, the lookahead-pipelined Getrf, the recursive Cholesky, the widened
// blocked QR/LQ, and the LASYF/LAHEF panels must all agree with their
// unblocked oracles. All matrices use a padded lda so leading-dimension
// bookkeeping bugs cannot hide.

import (
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/testutil"
	"repro/internal/testutil/diff"
)

// testGetrf2VsGetf2 checks that the recursive panel produces exactly the
// same pivot sequence as the classic rank-1 kernel and factors that agree
// to rounding, across sizes straddling the recursion leaf.
func testGetrf2VsGetf2[T core.Scalar](t *testing.T, m, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{m, n, 41, 7})
	lda := m + 3
	a := testutil.RandGeneral[T](rng, m, n, lda)
	mn := min(m, n)

	afRec := make([]T, lda*n)
	lapack.Lacpy('A', m, n, a, lda, afRec, lda)
	ipivRec := make([]int, mn)
	infoRec := lapack.Getrf2(tcfg(), m, n, afRec, lda, ipivRec)

	afRef := make([]T, lda*n)
	lapack.Lacpy('A', m, n, a, lda, afRef, lda)
	ipivRef := make([]int, mn)
	infoRef := lapack.Getf2(m, n, afRef, lda, ipivRef)

	if infoRec != infoRef {
		t.Fatalf("info: recursive %d vs unblocked %d", infoRec, infoRef)
	}
	for i := range ipivRec {
		if ipivRec[i] != ipivRef[i] {
			t.Fatalf("pivot %d: recursive %d vs unblocked %d", i, ipivRec[i], ipivRef[i])
		}
	}
	if d := diff.MaxDiff(afRec, afRef); d > 1e3*core.Eps[T]()*float64(max(m, n)) {
		t.Fatalf("recursive vs unblocked factors differ by %v", d)
	}
	if r := testutil.LUResidual(m, n, a, lda, afRec, lda, ipivRec); r > thresh {
		t.Fatalf("LU residual %v > %v", r, thresh)
	}
}

func TestGetrf2VsGetf2(t *testing.T) {
	for _, n := range []int{1, 8, 16, 17, 33, 64, 100} {
		for _, m := range []int{n, n + 7, max(1, n-3)} {
			t.Run("float64", func(t *testing.T) { testGetrf2VsGetf2[float64](t, m, n) })
			t.Run("complex128", func(t *testing.T) { testGetrf2VsGetf2[complex128](t, m, n) })
		}
	}
}

// testLookaheadBitIdentity checks the acceptance criterion that the
// pipelined Getrf is bit-identical to the serial schedule: a Threads budget
// of 4 runs the depth-1 lookahead pipeline, a budget of 1 the serial loop,
// and the two must produce identical ipiv and factors that agree bit for
// bit, because both schedules issue the same partitioned Gemm calls on the
// same operand blocks.
func testLookaheadBitIdentity[T core.Scalar](t *testing.T, m, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{m, n, 1999, 5})
	lda := m + 1
	a := testutil.RandGeneral[T](rng, m, n, lda)
	mn := min(m, n)

	factor := func(threads int) ([]T, []int, int) {
		cfg := tcfg().With(func(c *core.Config) { c.Threads = threads })
		af := make([]T, lda*n)
		lapack.Lacpy('A', m, n, a, lda, af, lda)
		ipiv := make([]int, mn)
		return af, ipiv, lapack.Getrf(cfg, m, n, af, lda, ipiv)
	}
	afPipe, ipivPipe, infoPipe := factor(4)
	afSer, ipivSer, infoSer := factor(1)

	if infoPipe != infoSer {
		t.Fatalf("info: pipelined %d vs serial %d", infoPipe, infoSer)
	}
	for i := range ipivPipe {
		if ipivPipe[i] != ipivSer[i] {
			t.Fatalf("pivot %d: pipelined %d vs serial %d", i, ipivPipe[i], ipivSer[i])
		}
	}
	for i := range afPipe {
		if afPipe[i] != afSer[i] {
			t.Fatalf("factor element %d: pipelined and serial Getrf are not bit-identical", i)
		}
	}
}

func TestGetrfLookaheadBitIdentity(t *testing.T) {
	for _, mn := range [][2]int{{130, 130}, {257, 200}, {200, 257}, {64, 64}} {
		t.Run("float64", func(t *testing.T) { testLookaheadBitIdentity[float64](t, mn[0], mn[1]) })
		t.Run("complex128", func(t *testing.T) { testLookaheadBitIdentity[complex128](t, mn[0], mn[1]) })
	}
}

// testPotrfVsPotf2 checks the recursive Cholesky against the unblocked
// kernel for both triangles with padded lda.
func testPotrfVsPotf2[T core.Scalar](t *testing.T, uplo lapack.Uplo, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{n, 3, 5, 9})
	lda := n + 2
	a := testutil.RandSPD[T](rng, n, lda)

	afRec := make([]T, lda*n)
	lapack.Lacpy('A', n, n, a, lda, afRec, lda)
	if info := lapack.Potrf(tcfg(), uplo, n, afRec, lda); info != 0 {
		t.Fatalf("potrf info = %d", info)
	}
	afRef := make([]T, lda*n)
	lapack.Lacpy('A', n, n, a, lda, afRef, lda)
	if info := lapack.Potf2(tcfg(), uplo, n, afRef, lda); info != 0 {
		t.Fatalf("potf2 info = %d", info)
	}
	// The recursion reorders the updates, so compare to rounding, scaled by
	// the O(n) magnitude of the SPD test matrix.
	if d := diff.MaxDiff(afRec, afRef); d > 1e3*core.Eps[T]()*float64(n) {
		t.Fatalf("recursive vs unblocked Cholesky differ by %v", d)
	}
	if r := testutil.CholeskyResidual(uplo, n, a, lda, afRec, lda); r > thresh {
		t.Fatalf("Cholesky residual %v > %v", r, thresh)
	}
}

func TestPotrfVsPotf2(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 130, 200} {
		for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
			t.Run("float64", func(t *testing.T) { testPotrfVsPotf2[float64](t, uplo, n) })
			t.Run("complex128", func(t *testing.T) { testPotrfVsPotf2[complex128](t, uplo, n) })
		}
	}
}

// testGeqrfBlocked exercises the widened blocked QR well past the Ilaenv
// crossover: the R factor must match the unblocked oracle to rounding and
// the assembled Q·R must reproduce A.
func testGeqrfBlocked[T core.Scalar](t *testing.T, m, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{m, n, 17, 23})
	lda := m + 2
	a := testutil.RandGeneral[T](rng, m, n, lda)
	mn := min(m, n)

	af := make([]T, lda*n)
	lapack.Lacpy('A', m, n, a, lda, af, lda)
	tau := make([]T, mn)
	lapack.Geqrf(tcfg(), m, n, af, lda, tau)

	afRef := make([]T, lda*n)
	lapack.Lacpy('A', m, n, a, lda, afRef, lda)
	tauRef := make([]T, mn)
	work := make([]T, n)
	lapack.Geqr2(tcfg(), m, n, afRef, lda, tauRef, work)
	scale := 1e4 * core.Eps[T]() * float64(max(m, n))
	for j := 0; j < n; j++ {
		for i := 0; i <= min(j, m-1); i++ {
			d := core.Abs(af[i+j*lda] - afRef[i+j*lda])
			if d > scale {
				t.Fatalf("R(%d,%d): blocked vs unblocked differ by %v", i, j, d)
			}
		}
	}

	// Q from the blocked Orgqr must be orthonormal and reproduce A.
	q := make([]T, lda*mn)
	lapack.Lacpy('A', m, mn, af, lda, q, lda)
	lapack.Orgqr(tcfg(), m, mn, mn, q, lda, tau)
	if r := testutil.OrthoResidual(m, mn, q, lda); r > thresh {
		t.Fatalf("orthogonality residual %v > %v", r, thresh)
	}
	// QR = Q·R, compared against A column by column.
	qr := make([]T, lda*n)
	rmat := make([]T, mn*n)
	for j := 0; j < n; j++ {
		for i := 0; i < mn; i++ {
			if i <= j {
				rmat[i+j*mn] = af[i+j*lda]
			}
		}
	}
	one := core.FromFloat[T](1)
	zero := core.FromFloat[T](0)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, m, n, mn, one, q, lda, rmat, mn, zero, qr, lda)
	anorm := lapack.Lange(lapack.OneNorm, m, n, a, lda)
	dmax := 0.0
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if d := core.Abs(qr[i+j*lda] - a[i+j*lda]); d > dmax {
				dmax = d
			}
		}
	}
	if anorm == 0 {
		anorm = 1
	}
	if ratio := dmax / (anorm * float64(max(m, n)) * core.Eps[T]()); ratio > thresh {
		t.Fatalf("‖QR − A‖ ratio %v > %v", ratio, thresh)
	}
}

func TestGeqrfBlockedVsUnblocked(t *testing.T) {
	for _, mn := range [][2]int{{100, 100}, {150, 90}, {90, 150}, {257, 129}} {
		t.Run("float64", func(t *testing.T) { testGeqrfBlocked[float64](t, mn[0], mn[1]) })
		t.Run("complex128", func(t *testing.T) { testGeqrfBlocked[complex128](t, mn[0], mn[1]) })
	}
}

// testGelqfBlocked does the same for the newly blocked LQ: L·Q must
// reproduce A and Q (from Orglq) must have orthonormal rows.
func testGelqfBlocked[T core.Scalar](t *testing.T, m, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{m, n, 29, 31})
	lda := m + 2
	a := testutil.RandGeneral[T](rng, m, n, lda)
	mn := min(m, n)

	af := make([]T, lda*n)
	lapack.Lacpy('A', m, n, a, lda, af, lda)
	tau := make([]T, mn)
	lapack.Gelqf(tcfg(), m, n, af, lda, tau)

	// Q: mn×n with orthonormal rows.
	q := make([]T, mn*n)
	lapack.Lacpy('A', mn, n, af, lda, q, mn)
	lapack.Orglq(tcfg(), mn, n, mn, q, mn, tau)
	// L: m×mn lower trapezoid of af.
	l := make([]T, m*mn)
	for j := 0; j < mn; j++ {
		for i := j; i < m; i++ {
			l[i+j*m] = af[i+j*lda]
		}
	}
	lq := make([]T, lda*n)
	one := core.FromFloat[T](1)
	zero := core.FromFloat[T](0)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, m, n, mn, one, l, m, q, mn, zero, lq, lda)
	anorm := lapack.Lange(lapack.OneNorm, m, n, a, lda)
	if anorm == 0 {
		anorm = 1
	}
	dmax := 0.0
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if d := core.Abs(lq[i+j*lda] - a[i+j*lda]); d > dmax {
				dmax = d
			}
		}
	}
	if ratio := dmax / (anorm * float64(max(m, n)) * core.Eps[T]()); ratio > thresh {
		t.Fatalf("‖LQ − A‖ ratio %v > %v", ratio, thresh)
	}
}

func TestGelqfBlockedVsUnblocked(t *testing.T) {
	for _, mn := range [][2]int{{100, 100}, {90, 150}, {150, 90}, {129, 257}} {
		t.Run("float64", func(t *testing.T) { testGelqfBlocked[float64](t, mn[0], mn[1]) })
		t.Run("complex128", func(t *testing.T) { testGelqfBlocked[complex128](t, mn[0], mn[1]) })
	}
}

// testOrmqrBlocked compares the blocked Ormqr (all four side/trans
// combinations, k large enough to engage block reflectors) against explicit
// multiplication by the full Q assembled with Orgqr.
func testOrmqrBlocked[T core.Scalar](t *testing.T, m, k int) {
	t.Helper()
	rng := lapack.NewRng([4]int{m, k, 37, 43})
	lda := m + 1
	a := testutil.RandGeneral[T](rng, m, k, lda)
	tau := make([]T, k)
	lapack.Geqrf(tcfg(), m, k, a, lda, tau)

	// Full m×m Q for the oracle product.
	qf := make([]T, m*m)
	lapack.Lacpy('A', m, k, a, lda, qf, m)
	lapack.Orgqr(tcfg(), m, m, k, qf, m, tau)

	one := core.FromFloat[T](1)
	zero := core.FromFloat[T](0)
	nrhs := 13
	eps := core.Eps[T]() * float64(m) * 1e3
	for _, side := range []lapack.Side{lapack.Left, lapack.Right} {
		for _, trans := range []lapack.Trans{lapack.NoTrans, lapack.ConjTrans} {
			cm, cn := m, nrhs
			if side == lapack.Right {
				cm, cn = nrhs, m
			}
			ldc := cm + 1
			c0 := testutil.RandGeneral[T](rng, cm, cn, ldc)
			c := make([]T, ldc*cn)
			lapack.Lacpy('A', cm, cn, c0, ldc, c, ldc)
			lapack.Ormqr(tcfg(), side, trans, cm, cn, k, a, lda, tau, c, ldc)

			ref := make([]T, ldc*cn)
			if side == lapack.Left {
				blas.Gemm(tcfg(), trans, blas.NoTrans, cm, cn, m, one, qf, m, c0, ldc, zero, ref, ldc)
			} else {
				blas.Gemm(tcfg(), blas.NoTrans, trans, cm, cn, m, one, c0, ldc, qf, m, zero, ref, ldc)
			}
			for j := 0; j < cn; j++ {
				for i := 0; i < cm; i++ {
					if d := core.Abs(c[i+j*ldc] - ref[i+j*ldc]); d > eps {
						t.Fatalf("side=%v trans=%v C(%d,%d): blocked Ormqr differs from Q product by %v",
							side, trans, i, j, d)
					}
				}
			}
		}
	}
}

func TestOrmqrBlockedVsExplicitQ(t *testing.T) {
	for _, mk := range [][2]int{{80, 80}, {120, 50}, {97, 33}} {
		t.Run("float64", func(t *testing.T) { testOrmqrBlocked[float64](t, mk[0], mk[1]) })
		t.Run("complex128", func(t *testing.T) { testOrmqrBlocked[complex128](t, mk[0], mk[1]) })
	}
}

// testSytrfBlockedVsUnblocked checks the LASYF-panel driver against the
// unblocked kernel: identical pivot sequence and factors agreeing to
// rounding, both triangles, padded lda.
func testSytrfBlockedVsUnblocked[T core.Scalar](t *testing.T, uplo lapack.Uplo, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{n, 47, 53, 59})
	lda := n + 2
	g := testutil.RandGeneral[T](rng, n, n, lda)
	// Symmetrize (complex symmetric, not Hermitian, matching Sytrf).
	a := make([]T, lda*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			a[i+j*lda] = g[i+j*lda] + g[j+i*lda]
		}
	}

	afB := make([]T, lda*n)
	lapack.Lacpy('A', n, n, a, lda, afB, lda)
	ipivB := make([]int, n)
	infoB := lapack.Sytrf(tcfg(), uplo, n, afB, lda, ipivB)

	afU := make([]T, lda*n)
	lapack.Lacpy('A', n, n, a, lda, afU, lda)
	ipivU := make([]int, n)
	infoU := lapack.Sytf2(uplo, n, afU, lda, ipivU)

	if infoB != infoU {
		t.Fatalf("info: blocked %d vs unblocked %d", infoB, infoU)
	}
	for i := range ipivB {
		if ipivB[i] != ipivU[i] {
			t.Fatalf("pivot %d: blocked %d vs unblocked %d", i, ipivB[i], ipivU[i])
		}
	}
	if d := diff.MaxDiff(afB, afU); d > 1e4*core.Eps[T]()*float64(n) {
		t.Fatalf("blocked vs unblocked Sytrf factors differ by %v", d)
	}
}

func TestSytrfBlockedVsUnblocked(t *testing.T) {
	for _, n := range []int{49, 60, 97, 130} {
		for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
			t.Run("float64", func(t *testing.T) { testSytrfBlockedVsUnblocked[float64](t, uplo, n) })
			t.Run("complex128", func(t *testing.T) { testSytrfBlockedVsUnblocked[complex128](t, uplo, n) })
		}
	}
}

// testHetrfBlockedVsUnblocked does the same for the Hermitian LAHEF panels.
func testHetrfBlockedVsUnblocked[T core.Scalar](t *testing.T, uplo lapack.Uplo, n int) {
	t.Helper()
	rng := lapack.NewRng([4]int{n, 61, 67, 71})
	lda := n + 2
	g := testutil.RandGeneral[T](rng, n, n, lda)
	// Hermitian: A = G + Gᴴ.
	a := make([]T, lda*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			a[i+j*lda] = g[i+j*lda] + core.Conj(g[j+i*lda])
		}
	}

	afB := make([]T, lda*n)
	lapack.Lacpy('A', n, n, a, lda, afB, lda)
	ipivB := make([]int, n)
	infoB := lapack.Hetrf(tcfg(), uplo, n, afB, lda, ipivB)

	afU := make([]T, lda*n)
	lapack.Lacpy('A', n, n, a, lda, afU, lda)
	ipivU := make([]int, n)
	infoU := lapack.Hetf2(uplo, n, afU, lda, ipivU)

	if infoB != infoU {
		t.Fatalf("info: blocked %d vs unblocked %d", infoB, infoU)
	}
	for i := range ipivB {
		if ipivB[i] != ipivU[i] {
			t.Fatalf("pivot %d: blocked %d vs unblocked %d", i, ipivB[i], ipivU[i])
		}
	}
	if d := diff.MaxDiff(afB, afU); d > 1e4*core.Eps[T]()*float64(n) {
		t.Fatalf("blocked vs unblocked Hetrf factors differ by %v", d)
	}
}

func TestHetrfBlockedVsUnblocked(t *testing.T) {
	for _, n := range []int{49, 60, 97, 130} {
		for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
			t.Run("complex128", func(t *testing.T) { testHetrfBlockedVsUnblocked[complex128](t, uplo, n) })
			t.Run("complex64", func(t *testing.T) { testHetrfBlockedVsUnblocked[complex64](t, uplo, n) })
		}
	}
}
