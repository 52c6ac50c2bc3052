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

func testPosv[T core.Scalar](t *testing.T, uplo lapack.Uplo, n, nrhs int) {
	t.Helper()
	rng := lapack.NewRng([4]int{1, int(uplo), n, nrhs})
	lda, ldb := n+1, n+2
	a := testutil.RandSPD[T](rng, n, lda)
	xTrue := testutil.RandGeneral[T](rng, n, nrhs, ldb)
	b := make([]T, ldb*nrhs)
	one := core.FromFloat[T](1)
	if core.IsComplex[T]() {
		blas.Hemm(tcfg(), blas.Left, blas.Upper, n, nrhs, one, a, lda, xTrue, ldb, core.FromFloat[T](0), b, ldb)
	} else {
		blas.Symm(tcfg(), blas.Left, blas.Upper, n, nrhs, one, a, lda, xTrue, ldb, core.FromFloat[T](0), b, ldb)
	}
	af := make([]T, lda*n)
	lapack.Lacpy('A', n, n, a, lda, af, lda)
	if info := lapack.Potrf(tcfg(), uplo, n, af, lda); info != 0 {
		t.Fatalf("potrf info=%d", info)
	}
	if r := testutil.CholeskyResidual(uplo, n, a, lda, af, lda); r > thresh {
		t.Fatalf("cholesky residual %v", r)
	}
	sol := make([]T, ldb*nrhs)
	lapack.Lacpy('A', n, nrhs, b, ldb, sol, ldb)
	lapack.Potrs(tcfg(), uplo, n, nrhs, af, lda, sol, ldb)
	if d := diff.MaxDiff(sol[:ldb*nrhs], xTrue[:ldb*nrhs]); d > 1e5*core.Eps[T]() {
		t.Fatalf("potrs error %v", d)
	}
	// Driver path.
	af2 := make([]T, lda*n)
	lapack.Lacpy('A', n, n, a, lda, af2, lda)
	sol2 := make([]T, ldb*nrhs)
	lapack.Lacpy('A', n, nrhs, b, ldb, sol2, ldb)
	if info := lapack.Posv(tcfg(), uplo, n, nrhs, af2, lda, sol2, ldb); info != 0 {
		t.Fatalf("posv info=%d", info)
	}
	if r := testutil.SolveResidual(n, nrhs, symFull(uplo, n, a, lda), n, sol2, ldb, b, ldb); r > thresh {
		t.Fatalf("posv residual %v", r)
	}
}

// symFull expands the uplo triangle into a full Hermitian matrix
// (conjugating the mirrored triangle); symFullSym does the same without
// conjugation for complex-symmetric matrices.
func symFull[T core.Scalar](uplo lapack.Uplo, n int, a []T, lda int) []T {
	f := make([]T, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if (uplo == lapack.Upper) == (i <= j) {
				f[i+j*n] = a[i+j*lda]
			} else {
				f[i+j*n] = core.Conj(a[j+i*lda])
			}
		}
	}
	return f
}

func symFullSym[T core.Scalar](uplo lapack.Uplo, n int, a []T, lda int) []T {
	f := make([]T, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if (uplo == lapack.Upper) == (i <= j) {
				f[i+j*n] = a[i+j*lda]
			} else {
				f[i+j*n] = a[j+i*lda]
			}
		}
	}
	return f
}

func TestPosv(t *testing.T) {
	for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
		for _, n := range []int{1, 4, 21, 80} {
			t.Run("float64", func(t *testing.T) { testPosv[float64](t, uplo, n, 2) })
			t.Run("complex128", func(t *testing.T) { testPosv[complex128](t, uplo, n, 2) })
		}
		t.Run("float32", func(t *testing.T) { testPosv[float32](t, uplo, 15, 1) })
		t.Run("complex64", func(t *testing.T) { testPosv[complex64](t, uplo, 15, 1) })
	}
}

func TestPotrfNotPD(t *testing.T) {
	// An indefinite matrix must be rejected with positive info.
	n := 4
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i+i*n] = 1
	}
	a[2+2*n] = -5
	if info := lapack.Potrf(tcfg(), lapack.Upper, n, a, n); info != 3 {
		t.Fatalf("potrf info = %d, want 3", info)
	}
}

func TestPoconPoequ(t *testing.T) {
	n := 16
	rng := lapack.NewRng([4]int{7, 7, 7, 7})
	a := testutil.RandSPD[float64](rng, n, n)
	anorm := lapack.Lansy(lapack.OneNorm, lapack.Upper, n, a, n)
	af := append([]float64(nil), a...)
	lapack.Potrf(tcfg(), lapack.Upper, n, af, n)
	rcond := lapack.Pocon(tcfg(), lapack.Upper, n, af, n, anorm)
	if rcond <= 0 || rcond > 1.000001 {
		t.Fatalf("pocon rcond = %v", rcond)
	}
	// FACT = 'E' on a well-scaled matrix computes the xPOEQU factors
	// s(i) = 1/sqrt(a_ii) and returns them without applying them.
	b, x := make([]float64, n), make([]float64, n)
	res := lapack.Posvx(tcfg(), lapack.FactEquilibrate, lapack.Upper, n, 1, a, n, af, n, b, n, x, n)
	if res.Info != 0 || res.Equed != lapack.EquedNone {
		t.Fatalf("posvx: info %d equed %q", res.Info, res.Equed)
	}
	if math.Abs(res.RCond-rcond) > 1e-12*rcond {
		t.Fatalf("posvx rcond %v, pocon %v", res.RCond, rcond)
	}
	for i := 0; i < n; i++ {
		if math.Abs(res.S[i]*math.Sqrt(a[i+i*n])-1) > 1e-12 {
			t.Fatalf("poequ scale %d wrong", i)
		}
	}
}

func testPosvx[T core.Scalar](t *testing.T, fact lapack.Fact) {
	t.Helper()
	n, nrhs := 20, 2
	rng := lapack.NewRng([4]int{3, 3, 3, int(fact)})
	a := testutil.RandSPD[T](rng, n, n)
	if fact == lapack.FactEquilibrate {
		// Worsen the diagonal scaling.
		for i := 0; i < n; i++ {
			s := math.Pow(10, float64(i%5)-2)
			for j := 0; j < n; j++ {
				a[i+j*n] *= core.FromFloat[T](s)
				a[j+i*n] *= core.FromFloat[T](s)
			}
		}
	}
	xTrue := testutil.RandGeneral[T](rng, n, nrhs, n)
	b := make([]T, n*nrhs)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, nrhs, n, core.FromFloat[T](1), a, n, xTrue, n, core.FromFloat[T](0), b, n)
	acopy := append([]T(nil), a...)
	af := make([]T, n*n)
	if fact == lapack.FactFact {
		lapack.Lacpy('A', n, n, a, n, af, n)
		lapack.Potrf(tcfg(), lapack.Upper, n, af, n)
	}
	x := make([]T, n*nrhs)
	res := lapack.Posvx(tcfg(), fact, lapack.Upper, n, nrhs, acopy, n, af, n, b, n, x, n)
	if res.Info != 0 {
		t.Fatalf("posvx info=%d", res.Info)
	}
	if d := diff.MaxDiff(x, xTrue); d > 1e-6 {
		t.Fatalf("posvx error %v", d)
	}
}

func TestPosvx(t *testing.T) {
	for _, fact := range []lapack.Fact{lapack.FactNone, lapack.FactEquilibrate, lapack.FactFact} {
		t.Run("float64", func(t *testing.T) { testPosvx[float64](t, fact) })
	}
	t.Run("complex128", func(t *testing.T) { testPosvx[complex128](t, lapack.FactNone) })
}

// ---------- packed ----------

func packTri[T core.Scalar](uplo lapack.Uplo, n int, a []T, lda int) []T {
	ap := make([]T, n*(n+1)/2)
	for j := 0; j < n; j++ {
		if uplo == lapack.Upper {
			for i := 0; i <= j; i++ {
				ap[blas.PackIdx(uplo, n, i, j)] = a[i+j*lda]
			}
		} else {
			for i := j; i < n; i++ {
				ap[blas.PackIdx(uplo, n, i, j)] = a[i+j*lda]
			}
		}
	}
	return ap
}

func testPpsv[T core.Scalar](t *testing.T, uplo lapack.Uplo, n int) {
	t.Helper()
	nrhs := 2
	rng := lapack.NewRng([4]int{2, int(uplo), n, 5})
	a := testutil.RandSPD[T](rng, n, n)
	ap := packTri(uplo, n, a, n)
	xTrue := testutil.RandGeneral[T](rng, n, nrhs, n)
	b := make([]T, n*nrhs)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, nrhs, n, core.FromFloat[T](1), a, n, xTrue, n, core.FromFloat[T](0), b, n)
	apf := append([]T(nil), ap...)
	sol := append([]T(nil), b...)
	if info := lapack.Ppsv(uplo, n, nrhs, apf, sol, n); info != 0 {
		t.Fatalf("ppsv info=%d", info)
	}
	if d := diff.MaxDiff(sol, xTrue); d > 2e5*core.Eps[T]() {
		t.Fatalf("ppsv error %v", d)
	}
	// Condition estimate and refinement off the packed factorization; the
	// refinement must not degrade the solution.
	x := make([]T, n*nrhs)
	res := lapack.Ppsvx(lapack.FactFact, uplo, n, nrhs, ap, apf, b, n, x, n)
	if res.Info != 0 || res.RCond <= 0 || res.RCond > 1.000001 {
		t.Fatalf("ppcon info=%d rcond=%v", res.Info, res.RCond)
	}
	for j := 0; j < nrhs; j++ {
		if res.Berr[j] > 100*core.Eps[T]() {
			t.Fatalf("pprfs berr=%v", res.Berr[j])
		}
	}
	if d := diff.MaxDiff(x, xTrue); d > 2e5*core.Eps[T]() {
		t.Fatalf("ppsvx error %v", d)
	}
}

func TestPpsv(t *testing.T) {
	for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
		for _, n := range []int{1, 5, 30} {
			t.Run("float64", func(t *testing.T) { testPpsv[float64](t, uplo, n) })
			t.Run("complex128", func(t *testing.T) { testPpsv[complex128](t, uplo, n) })
		}
	}
}

func TestPptrfNotPD(t *testing.T) {
	n := 3
	ap := []float64{1, 0, -2, 0, 0, 1} // diag(1,-2,1) upper packed
	if info := lapack.Pptrf(lapack.Upper, n, ap); info != 2 {
		t.Fatalf("pptrf info=%d, want 2", info)
	}
}

func TestPpsvx(t *testing.T) {
	n, nrhs := 12, 2
	rng := lapack.NewRng([4]int{8, 1, 8, 1})
	a := testutil.RandSPD[float64](rng, n, n)
	ap := packTri(lapack.Upper, n, a, n)
	xTrue := testutil.RandGeneral[float64](rng, n, nrhs, n)
	b := make([]float64, n*nrhs)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, nrhs, n, 1, a, n, xTrue, n, 0, b, n)
	afp := make([]float64, len(ap))
	x := make([]float64, n*nrhs)
	res := lapack.Ppsvx(lapack.FactNone, lapack.Upper, n, nrhs, ap, afp, b, n, x, n)
	if res.Info != 0 {
		t.Fatalf("ppsvx info=%d", res.Info)
	}
	if d := diff.MaxDiff(x, xTrue); d > 1e-8 {
		t.Fatalf("ppsvx error %v", d)
	}
}

// ---------- band ----------

func bandFromSPD[T core.Scalar](uplo lapack.Uplo, n, kd int, a []T, lda, ldab int) []T {
	ab := make([]T, ldab*n)
	for j := 0; j < n; j++ {
		if uplo == lapack.Upper {
			for i := max(0, j-kd); i <= j; i++ {
				ab[kd+i-j+j*ldab] = a[i+j*lda]
			}
		} else {
			for i := j; i <= min(n-1, j+kd); i++ {
				ab[i-j+j*ldab] = a[i+j*lda]
			}
		}
	}
	return ab
}

func testPbsv[T core.Scalar](t *testing.T, uplo lapack.Uplo, n, kd int) {
	t.Helper()
	nrhs := 2
	rng := lapack.NewRng([4]int{3, int(uplo), n, kd})
	// Build a banded SPD matrix: start from SPD and zero outside the band,
	// then re-strengthen the diagonal to preserve definiteness.
	a := testutil.RandSPD[T](rng, n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if absInt(i-j) > kd {
				a[i+j*n] = 0
			}
		}
		a[j+j*n] += core.FromFloat[T](float64(n))
	}
	ldab := kd + 1
	ab := bandFromSPD(uplo, n, kd, a, n, ldab)
	xTrue := testutil.RandGeneral[T](rng, n, nrhs, n)
	b := make([]T, n*nrhs)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, nrhs, n, core.FromFloat[T](1), a, n, xTrue, n, core.FromFloat[T](0), b, n)
	abf := append([]T(nil), ab...)
	sol := append([]T(nil), b...)
	if info := lapack.Pbsv(uplo, n, kd, nrhs, abf, ldab, sol, n); info != 0 {
		t.Fatalf("pbsv info=%d", info)
	}
	if d := diff.MaxDiff(sol, xTrue); d > 2e5*core.Eps[T]() {
		t.Fatalf("pbsv error %v", d)
	}
	x := make([]T, n*nrhs)
	res := lapack.Pbsvx(lapack.FactFact, uplo, n, kd, nrhs, ab, ldab, abf, ldab, b, n, x, n)
	if res.Info != 0 || res.RCond <= 0 || res.RCond > 1.000001 {
		t.Fatalf("pbcon info=%d rcond=%v", res.Info, res.RCond)
	}
	for j := 0; j < nrhs; j++ {
		if res.Berr[j] > 100*core.Eps[T]() {
			t.Fatalf("pbrfs berr=%v", res.Berr[j])
		}
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestPbsv(t *testing.T) {
	for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
		for _, nk := range [][2]int{{1, 0}, {6, 1}, {20, 3}, {40, 7}} {
			t.Run("float64", func(t *testing.T) { testPbsv[float64](t, uplo, nk[0], nk[1]) })
			t.Run("complex128", func(t *testing.T) { testPbsv[complex128](t, uplo, nk[0], nk[1]) })
		}
	}
}

func TestPbsvx(t *testing.T) {
	n, kd, nrhs := 15, 2, 2
	rng := lapack.NewRng([4]int{9, 9, 2, 2})
	a := testutil.RandSPD[float64](rng, n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if absInt(i-j) > kd {
				a[i+j*n] = 0
			}
		}
		a[j+j*n] += float64(n)
	}
	ldab := kd + 1
	ab := bandFromSPD(lapack.Upper, n, kd, a, n, ldab)
	xTrue := testutil.RandGeneral[float64](rng, n, nrhs, n)
	b := make([]float64, n*nrhs)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, nrhs, n, 1, a, n, xTrue, n, 0, b, n)
	afb := make([]float64, ldab*n)
	x := make([]float64, n*nrhs)
	res := lapack.Pbsvx(lapack.FactNone, lapack.Upper, n, kd, nrhs, ab, ldab, afb, ldab, b, n, x, n)
	if res.Info != 0 {
		t.Fatalf("pbsvx info=%d", res.Info)
	}
	if d := diff.MaxDiff(x, xTrue); d > 1e-8 {
		t.Fatalf("pbsvx error %v", d)
	}
}

// ---------- tridiagonal SPD ----------

func testPtsv[T core.Scalar](t *testing.T, n int) {
	t.Helper()
	nrhs := 2
	rng := lapack.NewRng([4]int{4, 4, n, 1})
	d := make([]float64, n)
	e := make([]T, max(0, n-1))
	lapack.Larnv(1, rng, n-1, e)
	for i := range d {
		d[i] = 4 + rng.Uniform() // diagonally dominant → SPD
	}
	// Dense copy for residuals.
	a := make([]T, n*n)
	for i := 0; i < n; i++ {
		a[i+i*n] = core.FromFloat[T](d[i])
		if i < n-1 {
			a[i+1+i*n] = e[i]
			a[i+(i+1)*n] = core.Conj(e[i])
		}
	}
	xTrue := testutil.RandGeneral[T](rng, n, nrhs, n)
	b := make([]T, n*nrhs)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, nrhs, n, core.FromFloat[T](1), a, n, xTrue, n, core.FromFloat[T](0), b, n)
	df := append([]float64(nil), d...)
	ef := append([]T(nil), e...)
	sol := append([]T(nil), b...)
	if info := lapack.Ptsv(n, nrhs, df, ef, sol, n); info != 0 {
		t.Fatalf("ptsv info=%d", info)
	}
	if dd := diff.MaxDiff(sol, xTrue); dd > 1e5*core.Eps[T]() {
		t.Fatalf("ptsv error %v", dd)
	}
	res := lapack.Ptsvx[T](lapack.FactFact, n, nrhs, d, e, df, ef, b, n, sol, n)
	if res.Info != 0 || res.RCond <= 0 {
		t.Fatalf("ptsvx info=%d rcond=%v", res.Info, res.RCond)
	}
}

func TestPtsv(t *testing.T) {
	for _, n := range []int{1, 2, 9, 64} {
		t.Run("float64", func(t *testing.T) { testPtsv[float64](t, n) })
		t.Run("complex128", func(t *testing.T) { testPtsv[complex128](t, n) })
	}
}

func TestPttrfNotPD(t *testing.T) {
	d := []float64{1, -1, 1}
	e := []float64{0.5, 0.5}
	if info := lapack.Pttrf(3, d, e); info != 2 {
		t.Fatalf("pttrf info=%d, want 2", info)
	}
}
