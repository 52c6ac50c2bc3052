package lapack_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/testutil"
	"repro/internal/testutil/diff"
)

// randSym builds a random symmetric (not definite) matrix; for complex T it
// is complex symmetric (Aᵀ = A).
func randSym[T core.Scalar](rng *lapack.Rng, n, lda int) []T {
	a := make([]T, lda*n)
	col := make([]T, n)
	for j := 0; j < n; j++ {
		lapack.Larnv(2, rng, n, col)
		for i := 0; i <= j; i++ {
			a[i+j*lda] = col[i]
			a[j+i*lda] = col[i]
		}
	}
	return a
}

// randHerm builds a random Hermitian indefinite matrix.
func randHerm[T core.Scalar](rng *lapack.Rng, n, lda int) []T {
	a := make([]T, lda*n)
	col := make([]T, n)
	for j := 0; j < n; j++ {
		lapack.Larnv(2, rng, n, col)
		for i := 0; i < j; i++ {
			a[i+j*lda] = col[i]
			a[j+i*lda] = core.Conj(col[i])
		}
		a[j+j*lda] = core.FromFloat[T](core.Re(col[j]))
	}
	return a
}

func symMul[T core.Scalar](uplo lapack.Uplo, herm bool, n, nrhs int, a []T, lda int, x []T, ldx int, b []T, ldb int) {
	if herm {
		blas.Hemm(tcfg(), blas.Left, blas.Uplo(uplo), n, nrhs, core.FromFloat[T](1), a, lda, x, ldx, core.FromFloat[T](0), b, ldb)
	} else {
		blas.Symm(tcfg(), blas.Left, blas.Uplo(uplo), n, nrhs, core.FromFloat[T](1), a, lda, x, ldx, core.FromFloat[T](0), b, ldb)
	}
}

// testSysv solves with Sysv (Hesv when herm) and checks the residual, then
// the condition estimate and refinement of Sysvx (Hesvx) off the same
// factorization.
func testSysv[T core.Scalar](t *testing.T, herm bool, uplo lapack.Uplo, n int) {
	t.Helper()
	nrhs := 2
	seed, gen, full, driver, expert := 11, randSym[T], symFullSym[T], lapack.Sysv[T], lapack.Sysvx[T]
	if herm {
		seed, gen, full, driver, expert = 17, randHerm[T], symFull[T], lapack.Hesv[T], lapack.Hesvx[T]
	}
	rng := lapack.NewRng([4]int{int(uplo), n, seed, seed + 2})
	lda := n + 1
	a := gen(rng, n, lda)
	xTrue := testutil.RandGeneral[T](rng, n, nrhs, n)
	b := make([]T, n*nrhs)
	symMul(uplo, herm, n, nrhs, a, lda, xTrue, n, b, n)
	af := make([]T, lda*n)
	lapack.Lacpy('A', n, n, a, lda, af, lda)
	ipiv := make([]int, n)
	sol := append([]T(nil), b...)
	if info := driver(tcfg(), uplo, n, nrhs, af, lda, ipiv, sol, n); info != 0 {
		t.Fatalf("sysv info=%d", info)
	}
	if r := testutil.SolveResidual(n, nrhs, full(uplo, n, a, lda), n, sol, n, b, n); r > thresh {
		t.Fatalf("sysv residual %v", r)
	}
	x := make([]T, n*nrhs)
	res := expert(tcfg(), lapack.FactFact, uplo, n, nrhs, a, lda, af, lda, ipiv, b, n, x, n)
	if res.Info != 0 || res.RCond <= 0 || res.RCond > 1.000001 {
		t.Fatalf("sycon info=%d rcond=%v", res.Info, res.RCond)
	}
	for j := 0; j < nrhs; j++ {
		if res.Berr[j] > 100*core.Eps[T]() {
			t.Fatalf("syrfs berr=%v", res.Berr[j])
		}
	}
}

func TestSysv(t *testing.T) {
	for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
		for _, n := range []int{1, 2, 3, 8, 25, 60} {
			t.Run("float64", func(t *testing.T) { testSysv[float64](t, false, uplo, n) })
			t.Run("complex128", func(t *testing.T) { testSysv[complex128](t, false, uplo, n) })
		}
		t.Run("float32", func(t *testing.T) { testSysv[float32](t, false, uplo, 12) })
	}
}

func TestHesv(t *testing.T) {
	for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
		for _, n := range []int{1, 2, 3, 8, 25, 60} {
			t.Run("complex128", func(t *testing.T) { testSysv[complex128](t, true, uplo, n) })
		}
		t.Run("complex64", func(t *testing.T) { testSysv[complex64](t, true, uplo, 10) })
		// For real types Hesv must agree with Sysv semantics.
		t.Run("float64", func(t *testing.T) { testSysv[float64](t, true, uplo, 14) })
	}
}

func TestSysvForces2x2Pivots(t *testing.T) {
	// A zero-diagonal symmetric matrix forces 2×2 pivot blocks in both
	// triangles.
	n := 6
	a := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			v := float64((i+1)*(j+2)%7 - 3)
			a[i+j*n] = v
			a[j+i*n] = v
		}
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = float64(i) - 2.5
	}
	b0 := make([]float64, n)
	blas.Symv(blas.Upper, n, 1, a, n, xTrue, 1, 0, b0, 1)
	for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
		af, b, ipiv := append([]float64(nil), a...), append([]float64(nil), b0...), make([]int, n)
		if info := lapack.Sysv(tcfg(), uplo, n, 1, af, n, ipiv, b, n); info != 0 {
			t.Fatalf("%v: sysv info=%d", uplo, info)
		}
		if !slices.ContainsFunc(ipiv, func(p int) bool { return p < 0 }) {
			t.Fatalf("%v: expected at least one 2x2 pivot, ipiv %v", uplo, ipiv)
		}
		if d := diff.MaxDiff(b, xTrue); d > 1e-10 {
			t.Fatalf("%v: solution error %v", uplo, d)
		}
	}
}

// TestSysvSingular: INFO names the first zero pivot in the sweep's order —
// the last column for Upper, the first for Lower.
func TestSysvSingular(t *testing.T) {
	n := 4
	for _, c := range []struct {
		diag  [4]float64
		lower int
	}{{lower: 1}, {[4]float64{1, 0, 2, 0}, 2}} {
		for uplo, want := range map[lapack.Uplo]int{lapack.Upper: 4, lapack.Lower: c.lower} {
			a := make([]float64, n*n)
			for i, d := range c.diag {
				a[i+i*n] = d
			}
			if info := lapack.Sysv(tcfg(), uplo, n, 1, a, n, make([]int, n), make([]float64, n), n); info != want {
				t.Errorf("%v diag %v: info %d, want %d", uplo, c.diag, info, want)
			}
		}
	}
}

// testSysvx runs the expert driver from scratch (FactNone): Sysvx on the
// Upper triangle of a symmetric matrix, Hesvx on the Lower triangle of a
// Hermitian one.
func testSysvx[T core.Scalar](t *testing.T, herm bool, n, seed int) {
	t.Helper()
	nrhs, uplo, gen, expert := 2, lapack.Upper, randSym[T], lapack.Sysvx[T]
	if herm {
		uplo, gen, expert = lapack.Lower, randHerm[T], lapack.Hesvx[T]
	}
	rng := lapack.NewRng([4]int{seed, seed + 1, seed + 2, seed + 3})
	a := gen(rng, n, n)
	xTrue := testutil.RandGeneral[T](rng, n, nrhs, n)
	b := make([]T, n*nrhs)
	symMul(uplo, herm, n, nrhs, a, n, xTrue, n, b, n)
	af, ipiv, x := make([]T, n*n), make([]int, n), make([]T, n*nrhs)
	res := expert(tcfg(), lapack.FactNone, uplo, n, nrhs, a, n, af, n, ipiv, b, n, x, n)
	if res.Info != 0 {
		t.Fatalf("sysvx info=%d", res.Info)
	}
	if d := diff.MaxDiff(x, xTrue); d > 1e-8 {
		t.Fatalf("sysvx error %v", d)
	}
}

func TestSysvx(t *testing.T) { testSysvx[float64](t, false, 18, 21) }

func TestHesvx(t *testing.T) { testSysvx[complex128](t, true, 14, 31) }

func testSpsv[T core.Scalar](t *testing.T, uplo lapack.Uplo, n int, herm bool) {
	t.Helper()
	nrhs := 2
	rng := lapack.NewRng([4]int{41, int(uplo), n, 1})
	var a []T
	if herm {
		a = randHerm[T](rng, n, n)
	} else {
		a = randSym[T](rng, n, n)
	}
	ap := packTri(uplo, n, a, n)
	xTrue := testutil.RandGeneral[T](rng, n, nrhs, n)
	b := make([]T, n*nrhs)
	symMul(uplo, herm, n, nrhs, a, n, xTrue, n, b, n)
	apf := append([]T(nil), ap...)
	ipiv := make([]int, n)
	sol := append([]T(nil), b...)
	var info int
	if herm {
		info = lapack.Hpsv(tcfg(), uplo, n, nrhs, apf, ipiv, sol, n)
	} else {
		info = lapack.Spsv(tcfg(), uplo, n, nrhs, apf, ipiv, sol, n)
	}
	if info != 0 {
		t.Fatalf("sp/hpsv info=%d", info)
	}
	full := symFullSym(uplo, n, a, n)
	if herm {
		full = symFull(uplo, n, a, n)
	}
	if r := testutil.SolveResidual(n, nrhs, full, n, sol, n, b, n); r > thresh {
		t.Fatalf("sp/hpsv residual %v", r)
	}
	// Condition estimate and refinement off the packed factorization.
	driver := lapack.Spsvx[T]
	if herm {
		driver = lapack.Hpsvx[T]
	}
	x := make([]T, n*nrhs)
	res := driver(tcfg(), lapack.FactFact, uplo, n, nrhs, ap, apf, ipiv, b, n, x, n)
	if res.Info != 0 || res.RCond <= 0 || res.RCond > 1.000001 {
		t.Fatalf("sp/hpcon info=%d rcond=%v", res.Info, res.RCond)
	}
	for j := 0; j < nrhs; j++ {
		if res.Berr[j] > 100*core.Eps[T]() {
			t.Fatalf("sp/hprfs berr=%v", res.Berr[j])
		}
	}
}

func TestSpsvHpsv(t *testing.T) {
	for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
		for _, n := range []int{1, 5, 20} {
			t.Run("spsv/float64", func(t *testing.T) { testSpsv[float64](t, uplo, n, false) })
			t.Run("spsv/complex128", func(t *testing.T) { testSpsv[complex128](t, uplo, n, false) })
			t.Run("hpsv/complex128", func(t *testing.T) { testSpsv[complex128](t, uplo, n, true) })
		}
	}
}

// Golden fingerprints of the Bunch–Kaufman family, generated at the commit
// before Sytrf and Hetrf were folded into one body (PR 15) and regenerated
// once since, on purpose: PR 17 made the trailing update one blas.Gemmt per
// panel (the blocked rows round in a new order for n > nb) and gave the
// complex asm rows vector axpy/dot/scal kernels (their Sytf2 column); the
// real Sytf2/Hetf2 rows are the PR 15 bits; PR 21 put the ragged micro-tiles
// of the real asm rows on the full tile's FMA chain (blas.scratchEdge and the
// AVX-512 opmask tiles, where the scalar edge kernel rounded every product),
// which moved the assembly column of the blocked float32/float64 rows; and
// when Lower became the Upper body run on the point reflection, which moved
// every key (each folds both uplo) while the Upper half kept its bits.
// An FNV-64a over the factor array (all lda×n elements, so the unreferenced
// triangle and the padding row are covered) and ipiv for the factorizations,
// and over the solution for Sytrs/Hetrs with 4 right-hand sides. Each entry
// folds both uplo, n ∈ bkGoldenN (below, at and past the panel width nb = 48, including
// the kb = nb−1 panels), three random seeds, and the forced-2×2-pivot and
// singular matrices. One hash per entry, which every row of the kernel table
// produces — the AVX-512 and the AVX2 row, and the portable row (LA90_NO_ASM=1,
// reached here through the same gate with faultinject.ForcePortable) on the
// Go twins of their kernels; its own column was dropped when it took their
// bits, every asm value kept.
// Regenerate with `go test ./internal/lapack -run BunchKaufmanGolden -args -golden`.
var bkGolden = diff.Table{
	"Hetf2/complex128": {Hash: 0xd15321a14b6f19fa},
	"Hetf2/complex64":  {Hash: 0x32cae449e5af6696},
	"Hetf2/float32":    {Hash: 0x28fd09ccffd96017},
	"Hetf2/float64":    {Hash: 0xf770a999dcc4e736},
	"Hetrf/complex128": {Hash: 0xee74ff6a7b8a560c},
	"Hetrf/complex64":  {Hash: 0x5020134d00a5aebc},
	"Hetrf/float32":    {Hash: 0x8d17c5121b87a74b},
	"Hetrf/float64":    {Hash: 0x0d78c44855c93ccc},
	"Hetrs/complex128": {Hash: 0xd458ac74b60f34ac},
	"Hetrs/complex64":  {Hash: 0xb3e50f9c545a582a},
	"Hetrs/float32":    {Hash: 0x73cf3af1c38d87f8},
	"Hetrs/float64":    {Hash: 0xe5f9308ee56d5730},
	"Sytf2/complex128": {Hash: 0xf31e18fe773009ed},
	"Sytf2/complex64":  {Hash: 0xd0e1e8329395aeab},
	"Sytf2/float32":    {Hash: 0xdb998d5a885ce48a},
	"Sytf2/float64":    {Hash: 0xc96684bafe463e36},
	"Sytrf/complex128": {Hash: 0x7a913095941b58d7},
	"Sytrf/complex64":  {Hash: 0x8624db4f7823195f},
	"Sytrf/float32":    {Hash: 0xf9924f4ea09cffc5},
	"Sytrf/float64":    {Hash: 0x9d2b47e6838779cc},
	"Sytrs/complex128": {Hash: 0x001760e591a10ff3},
	"Sytrs/complex64":  {Hash: 0x64241751feb86ebf},
	"Sytrs/float32":    {Hash: 0xdb6afa32d6d7b8b2},
	"Sytrs/float64":    {Hash: 0xe5f9308ee56d5730},
}

var bkGoldenN = []int{1, 2, 3, 7, 47, 48, 49, 97, 200}

// bkMatrices lists the inputs of one (type, n): three random matrices, one
// with row/column n/2 zeroed (a singular pivot mid-panel), the zero matrix,
// and a zero-diagonal matrix that forces 2×2 pivots.
func bkMatrices[T core.Scalar](herm bool, n, lda int) [][]T {
	var ms [][]T
	gen := randSym[T]
	if herm {
		gen = randHerm[T]
	}
	for seed := 1; seed <= 3; seed++ {
		ms = append(ms, gen(lapack.NewRng([4]int{seed, n, 5, 7}), n, lda))
	}
	z := gen(lapack.NewRng([4]int{4, n, 5, 7}), n, lda)
	for i := 0; i < n; i++ {
		z[i+(n/2)*lda], z[n/2+i*lda] = 0, 0
	}
	ms = append(ms, z, make([]T, lda*n))
	f := make([]T, lda*n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			v := core.FromComplex[T](complex(float64((i+1)*(j+2)%7-3), float64((i+2*j)%3-1)))
			f[i+j*lda] = v
			f[j+i*lda] = v
			if herm {
				f[j+i*lda] = core.Conj(v)
			}
		}
	}
	return append(ms, f)
}

// bkFingerprints also checks that the Lower factorizations leave the strictly
// upper triangle and the padding row as they were, bit for bit.
func bkFingerprints[T core.Scalar](t *testing.T, cfg *core.Config, out map[string]*diff.Hash) {
	var z T
	type routine struct {
		name    string
		herm    bool
		blocked bool
	}
	for _, r := range []routine{{"Sytf2", false, false}, {"Hetf2", true, false}, {"Sytrf", false, true}, {"Hetrf", true, true}} {
		hf, hs := diff.NewHash(), diff.NewHash()
		for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
			for _, n := range bkGoldenN {
				lda := n + 1
				for _, a := range bkMatrices[T](r.herm, n, lda) {
					ipiv, a0 := make([]int, n), slices.Clone(a)
					var info int
					switch {
					case !r.blocked && !r.herm:
						info = lapack.Sytf2(uplo, n, a, lda, ipiv)
					case !r.blocked:
						info = lapack.Hetf2(uplo, n, a, lda, ipiv)
					case !r.herm:
						info = lapack.Sytrf(cfg, uplo, n, a, lda, ipiv)
					default:
						info = lapack.Hetrf(cfg, uplo, n, a, lda, ipiv)
					}
					for j, s := 0, 0; uplo == lapack.Lower && j < n; j, s = j+1, s+lda {
						if !diff.Same(a[s:s+j], a0[s:s+j]) || !diff.Same(a[s+n:s+lda], a0[s+n:s+lda]) {
							t.Errorf("%s/%T Lower n=%d: column %d changed outside the lower triangle", r.name, z, n, j)
						}
					}
					diff.Add(hf, a)
					hf.Int(append(ipiv, info)...)
					if !r.blocked || info != 0 {
						continue
					}
					b := testutil.RandGeneral[T](lapack.NewRng([4]int{n, 3, 5, 9}), n, 4, lda)
					if r.herm {
						lapack.Hetrs(cfg, uplo, n, 4, a, lda, ipiv, b, lda)
					} else {
						lapack.Sytrs(cfg, uplo, n, 4, a, lda, ipiv, b, lda)
					}
					diff.Add(hs, b)
				}
			}
		}
		out[fmt.Sprintf("%s/%T", r.name, z)] = hf
		if r.blocked {
			out[fmt.Sprintf("%s/%T", strings.Replace(r.name, "trf", "trs", 1), z)] = hs
		}
	}
}

func TestBunchKaufmanGolden(t *testing.T) {
	cfg := tcfg()
	bkGolden.Check(t, func(t *testing.T, out map[string]*diff.Hash) {
		bkFingerprints[float32](t, cfg, out)
		bkFingerprints[float64](t, cfg, out)
		bkFingerprints[complex64](t, cfg, out)
		bkFingerprints[complex128](t, cfg, out)
	})
}
