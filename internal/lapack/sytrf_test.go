package lapack_test

import (
	"fmt"
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

func testSysv[T core.Scalar](t *testing.T, uplo lapack.Uplo, n int) {
	t.Helper()
	nrhs := 2
	rng := lapack.NewRng([4]int{int(uplo), n, 11, 13})
	lda := n + 1
	a := randSym[T](rng, n, lda)
	xTrue := testutil.RandGeneral[T](rng, n, nrhs, n)
	b := make([]T, n*nrhs)
	symMul(uplo, false, n, nrhs, a, lda, xTrue, n, b, n)
	af := make([]T, lda*n)
	lapack.Lacpy('A', n, n, a, lda, af, lda)
	ipiv := make([]int, n)
	sol := append([]T(nil), b...)
	if info := lapack.Sysv(tcfg(), uplo, n, nrhs, af, lda, ipiv, sol, n); info != 0 {
		t.Fatalf("sysv info=%d", info)
	}
	if r := testutil.SolveResidual(n, nrhs, symFullSym(uplo, n, a, lda), n, sol, n, b, n); r > thresh {
		t.Fatalf("sysv residual %v", r)
	}
	// Condition estimate and refinement off the same factorization.
	x := make([]T, n*nrhs)
	res := lapack.Sysvx(tcfg(), lapack.FactFact, uplo, n, nrhs, a, lda, af, lda, ipiv, b, n, x, n)
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
			t.Run("float64", func(t *testing.T) { testSysv[float64](t, uplo, n) })
			t.Run("complex128", func(t *testing.T) { testSysv[complex128](t, uplo, n) })
		}
		t.Run("float32", func(t *testing.T) { testSysv[float32](t, uplo, 12) })
	}
}

func testHesv[T core.Scalar](t *testing.T, uplo lapack.Uplo, n int) {
	t.Helper()
	nrhs := 2
	rng := lapack.NewRng([4]int{int(uplo), n, 17, 19})
	lda := n + 1
	a := randHerm[T](rng, n, lda)
	xTrue := testutil.RandGeneral[T](rng, n, nrhs, n)
	b := make([]T, n*nrhs)
	symMul(uplo, true, n, nrhs, a, lda, xTrue, n, b, n)
	af := make([]T, lda*n)
	lapack.Lacpy('A', n, n, a, lda, af, lda)
	ipiv := make([]int, n)
	sol := append([]T(nil), b...)
	if info := lapack.Hesv(tcfg(), uplo, n, nrhs, af, lda, ipiv, sol, n); info != 0 {
		t.Fatalf("hesv info=%d", info)
	}
	if r := testutil.SolveResidual(n, nrhs, symFull(uplo, n, a, lda), n, sol, n, b, n); r > thresh {
		t.Fatalf("hesv residual %v", r)
	}
	x := make([]T, n*nrhs)
	res := lapack.Hesvx(tcfg(), lapack.FactFact, uplo, n, nrhs, a, lda, af, lda, ipiv, b, n, x, n)
	if res.Info != 0 || res.RCond <= 0 || res.RCond > 1.000001 {
		t.Fatalf("hecon info=%d rcond=%v", res.Info, res.RCond)
	}
}

func TestHesv(t *testing.T) {
	for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
		for _, n := range []int{1, 2, 3, 8, 25, 60} {
			t.Run("complex128", func(t *testing.T) { testHesv[complex128](t, uplo, n) })
		}
		t.Run("complex64", func(t *testing.T) { testHesv[complex64](t, uplo, 10) })
		// For real types Hesv must agree with Sysv semantics.
		t.Run("float64", func(t *testing.T) { testHesv[float64](t, uplo, 14) })
	}
}

func TestSysvForces2x2Pivots(t *testing.T) {
	// A zero-diagonal symmetric matrix forces 2×2 pivot blocks.
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
	b := make([]float64, n)
	blas.Symv(blas.Upper, n, 1, a, n, xTrue, 1, 0, b, 1)
	af := append([]float64(nil), a...)
	ipiv := make([]int, n)
	if info := lapack.Sysv(tcfg(), lapack.Upper, n, 1, af, n, ipiv, b, n); info != 0 {
		t.Fatalf("sysv info=%d", info)
	}
	has2x2 := false
	for _, p := range ipiv {
		if p < 0 {
			has2x2 = true
		}
	}
	if !has2x2 {
		t.Fatal("expected at least one 2x2 pivot")
	}
	if d := diff.MaxDiff(b, xTrue); d > 1e-10 {
		t.Fatalf("solution error %v", d)
	}
}

func TestSysvSingular(t *testing.T) {
	n := 4
	a := make([]float64, n*n) // zero matrix
	ipiv := make([]int, n)
	b := make([]float64, n)
	if info := lapack.Sysv(tcfg(), lapack.Upper, n, 1, a, n, ipiv, b, n); info <= 0 {
		t.Fatalf("expected positive info, got %d", info)
	}
}

func TestSysvx(t *testing.T) {
	n, nrhs := 18, 2
	rng := lapack.NewRng([4]int{21, 22, 23, 24})
	a := randSym[float64](rng, n, n)
	xTrue := testutil.RandGeneral[float64](rng, n, nrhs, n)
	b := make([]float64, n*nrhs)
	symMul(lapack.Upper, false, n, nrhs, a, n, xTrue, n, b, n)
	af := make([]float64, n*n)
	ipiv := make([]int, n)
	x := make([]float64, n*nrhs)
	res := lapack.Sysvx(tcfg(), lapack.FactNone, lapack.Upper, n, nrhs, a, n, af, n, ipiv, b, n, x, n)
	if res.Info != 0 {
		t.Fatalf("sysvx info=%d", res.Info)
	}
	if d := diff.MaxDiff(x, xTrue); d > 1e-8 {
		t.Fatalf("sysvx error %v", d)
	}
}

func TestHesvx(t *testing.T) {
	n, nrhs := 14, 2
	rng := lapack.NewRng([4]int{31, 32, 33, 34})
	a := randHerm[complex128](rng, n, n)
	xTrue := testutil.RandGeneral[complex128](rng, n, nrhs, n)
	b := make([]complex128, n*nrhs)
	symMul(lapack.Lower, true, n, nrhs, a, n, xTrue, n, b, n)
	af := make([]complex128, n*n)
	ipiv := make([]int, n)
	x := make([]complex128, n*nrhs)
	res := lapack.Hesvx(tcfg(), lapack.FactNone, lapack.Lower, n, nrhs, a, n, af, n, ipiv, b, n, x, n)
	if res.Info != 0 {
		t.Fatalf("hesvx info=%d", res.Info)
	}
	if d := diff.MaxDiff(x, xTrue); d > 1e-8 {
		t.Fatalf("hesvx error %v", d)
	}
}

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
// which moved the assembly column of the blocked float32/float64 rows.
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
	"Hetf2/complex128": {Hash: 0xeb9d0f635df37747},
	"Hetf2/complex64":  {Hash: 0xf39430b1a81ea159},
	"Hetf2/float32":    {Hash: 0xdc45b1a664ef604a},
	"Hetf2/float64":    {Hash: 0xa388656fe6848271},
	"Hetrf/complex128": {Hash: 0x9840feb49d671b4f},
	"Hetrf/complex64":  {Hash: 0x1b4ac25b2ae3e3eb},
	"Hetrf/float32":    {Hash: 0x83a6efde762b2e45},
	"Hetrf/float64":    {Hash: 0x252b02d83ad2e79d},
	"Hetrs/complex128": {Hash: 0xec740a053745bc69},
	"Hetrs/complex64":  {Hash: 0x71a3b5a0474f2847},
	"Hetrs/float32":    {Hash: 0x0bf30a2456259b74},
	"Hetrs/float64":    {Hash: 0xa8711876f74dffe8},
	"Sytf2/complex128": {Hash: 0x2172136e75661195},
	"Sytf2/complex64":  {Hash: 0xb376099e33a7b86f},
	"Sytf2/float32":    {Hash: 0x0fcdf3412de1d1be},
	"Sytf2/float64":    {Hash: 0xb9e2386413247cf1},
	"Sytrf/complex128": {Hash: 0x9246c28399f5f59f},
	"Sytrf/complex64":  {Hash: 0x104b505a29ec0fb4},
	"Sytrf/float32":    {Hash: 0xfebbe8ab2b4fdbf9},
	"Sytrf/float64":    {Hash: 0x5630ff73a9d6e69d},
	"Sytrs/complex128": {Hash: 0x243d7ea592bc0f70},
	"Sytrs/complex64":  {Hash: 0xb6f89d513b378290},
	"Sytrs/float32":    {Hash: 0x9b594425bec09d55},
	"Sytrs/float64":    {Hash: 0xa8711876f74dffe8},
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

func bkFingerprints[T core.Scalar](cfg *core.Config, out map[string]*diff.Hash) {
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
					ipiv := make([]int, n)
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
		bkFingerprints[float32](cfg, out)
		bkFingerprints[float64](cfg, out)
		bkFingerprints[complex64](cfg, out)
		bkFingerprints[complex128](cfg, out)
	})
}
