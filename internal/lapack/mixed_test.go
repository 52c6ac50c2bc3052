package lapack_test

// Tests for the mixed-precision iterative-refinement solvers
// (GesvMixed/PosvMixed): convergence to the float64 backward-error class on
// well-conditioned systems, bit-identity of every fallback path with the
// plain drivers, the non-finite screens (bounded termination on NaN/Inf
// input, per the PR-3 fault model), and the ITERMAX knob.

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/matgen"
)

// mixedWellCond builds a well-conditioned n×n system: Larnv entries with
// the diagonal shifted by n.
func mixedWellCond[T core.Scalar](seed, n, nrhs int) (a, b []T) {
	rng := lapack.NewRng([4]int{seed, 11, 13, 1})
	a = make([]T, n*n)
	b = make([]T, n*nrhs)
	lapack.Larnv(2, rng, n*n, a)
	lapack.Larnv(2, rng, n*nrhs, b)
	for i := 0; i < n; i++ {
		a[i+i*n] += core.FromFloat[T](float64(n))
	}
	return a, b
}

// mixedCond builds an n×n system whose matrix has condition number cond
// (geometrically spaced singular values between random unitary factors).
func mixedCond[T core.Scalar](seed, n, nrhs int, cond float64) (a, b []T) {
	rng := lapack.NewRng([4]int{seed, 11, 13, 1})
	a = make([]T, n*n)
	b = make([]T, n*nrhs)
	matgen.Latms(tcfg(), rng, n, cond, a, n)
	lapack.Larnv(2, rng, n*nrhs, b)
	return a, b
}

// mixedBackwardError returns max_j ‖b_j−A·x_j‖∞/(‖A‖∞·‖x_j‖∞).
func mixedBackwardError[T core.Scalar](n, nrhs int, a, b, x []T) float64 {
	r := append([]T(nil), b[:n*nrhs]...)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, nrhs, n,
		core.FromFloat[T](-1), a, n, x, n, core.FromFloat[T](1), r, n)
	anrm := lapack.Lange(lapack.InfNorm, n, n, a, n)
	worst := 0.0
	for j := 0; j < nrhs; j++ {
		rn := lapack.Lange(lapack.MaxAbs, n, 1, r[j*n:j*n+n], n)
		xn := lapack.Lange(lapack.MaxAbs, n, 1, x[j*n:j*n+n], n)
		if be := rn / (anrm * xn); be > worst {
			worst = be
		}
	}
	return worst
}

// bitsEqual compares two slices bit for bit (NaN payloads included), so
// fallback results can be checked for exact identity with the plain driver
// even on poisoned inputs.
func bitsEqual[T core.Scalar](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	eq64 := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		if !eq64(core.Re(a[i]), core.Re(b[i])) || !eq64(core.Im(a[i]), core.Im(b[i])) {
			return false
		}
	}
	return true
}

func testGesvMixedConverges[T lapack.MixedScalar](t *testing.T, n, nrhs int) {
	t.Helper()
	a, b := mixedWellCond[T](n+nrhs, n, nrhs)
	a0 := append([]T(nil), a...)
	b0 := append([]T(nil), b...)
	x := make([]T, n*nrhs)
	ipiv := make([]int, n)
	iter, info := lapack.GesvMixed(tcfg(), n, nrhs, a, n, ipiv, b, n, x, n)
	if info != 0 {
		t.Fatalf("info = %d", info)
	}
	if iter < 0 {
		t.Fatalf("well-conditioned system fell back: iter = %d", iter)
	}
	if !bitsEqual(a, a0) || !bitsEqual(b, b0) {
		t.Fatal("converged mixed solve must leave a and b unchanged")
	}
	cte := float64(n) * core.EpsDouble
	if be := mixedBackwardError(n, nrhs, a, b, x); be > 2*cte {
		t.Fatalf("backward error %.3e beyond n·eps64 class (%.3e)", be, cte)
	}
}

func TestGesvMixedConverges(t *testing.T) {
	for _, sz := range [][2]int{{1, 1}, {7, 2}, {50, 1}, {120, 3}, {200, 2}} {
		testGesvMixedConverges[float64](t, sz[0], sz[1])
		testGesvMixedConverges[complex128](t, sz[0], sz[1])
	}
}

func testPosvMixedConverges[T lapack.MixedScalar](t *testing.T, uplo lapack.Uplo, n, nrhs int) {
	t.Helper()
	g, b := mixedWellCond[T](3*n+nrhs, n, nrhs)
	// Hermitian positive definite: G·Gᴴ + n·I.
	a := make([]T, n*n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.ConjTrans, n, n, n, core.FromFloat[T](1), g, n, g, n, core.FromFloat[T](0), a, n)
	for i := 0; i < n; i++ {
		a[i+i*n] = core.FromFloat[T](core.Re(a[i+i*n]) + float64(n))
	}
	a0 := append([]T(nil), a...)
	x := make([]T, n*nrhs)
	iter, info := lapack.PosvMixed(tcfg(), uplo, n, nrhs, a, n, b, n, x, n)
	if info != 0 {
		t.Fatalf("info = %d", info)
	}
	if iter < 0 {
		t.Fatalf("well-conditioned HPD system fell back: iter = %d", iter)
	}
	if !bitsEqual(a, a0) {
		t.Fatal("converged mixed solve must leave a unchanged")
	}
	cte := float64(n) * core.EpsDouble
	if be := mixedBackwardError(n, nrhs, a, b, x); be > 2*cte {
		t.Fatalf("backward error %.3e beyond n·eps64 class (%.3e)", be, cte)
	}
}

func TestPosvMixedConverges(t *testing.T) {
	for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
		for _, sz := range [][2]int{{9, 2}, {80, 1}, {150, 3}} {
			testPosvMixedConverges[float64](t, uplo, sz[0], sz[1])
			testPosvMixedConverges[complex128](t, uplo, sz[0], sz[1])
		}
	}
}

// expectGesvFallbackIdentity runs GesvMixed expecting a fallback (reason
// wantIter, or any negative reason when wantIter is 0) and checks the
// delivered solution, factors, and pivots are bit-identical to the plain
// Gesv on the same inputs.
func expectGesvFallbackIdentity[T lapack.MixedScalar](t *testing.T, n, nrhs int, a, b []T, wantIter int) {
	t.Helper()
	aM := append([]T(nil), a...)
	bM := append([]T(nil), b...)
	x := make([]T, n*nrhs)
	ipivM := make([]int, n)
	iter, infoM := lapack.GesvMixed(tcfg(), n, nrhs, aM, n, ipivM, bM, n, x, n)
	if iter >= 0 {
		t.Fatalf("expected fallback, got convergence in %d sweeps", iter)
	}
	if wantIter != 0 && iter != wantIter {
		t.Fatalf("fallback reason %d, want %d", iter, wantIter)
	}
	aP := append([]T(nil), a...)
	bP := append([]T(nil), b...)
	ipivP := make([]int, n)
	infoP := lapack.Gesv(tcfg(), n, nrhs, aP, n, ipivP, bP, n)
	if infoM != infoP {
		t.Fatalf("fallback info %d, plain info %d", infoM, infoP)
	}
	if infoP == 0 && !bitsEqual(x, bP) {
		t.Fatal("fallback solution not bit-identical to plain Gesv")
	}
	if !bitsEqual(aM, aP) {
		t.Fatal("fallback factors not bit-identical to plain Gesv")
	}
	for i := range ipivM {
		if infoP == 0 && ipivM[i] != ipivP[i] {
			t.Fatalf("fallback pivots differ at %d", i)
		}
	}
	if !bitsEqual(bM, b) {
		t.Fatal("b must be preserved")
	}
}

// TestGesvMixedStallFallback forces the stall path deterministically: with
// ITERMAX = 1 a system of condition 1e4 cannot pass the convergence test —
// each sweep contracts the error by about cond·eps32 ≈ 1e-3, so after one
// the residual still misses n·eps64 by orders of magnitude, however good the
// low-precision factorization is, while rcond stays far above the
// ill-conditioning screen — and the engine must fall back, bit-identical to
// the plain driver. (A diagonally dominant system does not do: its one-sweep
// residual sits right at the threshold and lands on either side of it with
// the rounding order of the float32/complex64 factorization.)
func TestGesvMixedStallFallback(t *testing.T) {
	withDefault(t, func(c *core.Config) { c.MixedIterMax = 1 })
	a, b := mixedCond[float64](5, 100, 2, 1e4)
	expectGesvFallbackIdentity(t, 100, 2, a, b, lapack.MixedFallbackStalled)
	ac, bc := mixedCond[complex128](5, 100, 2, 1e4)
	expectGesvFallbackIdentity(t, 100, 2, ac, bc, lapack.MixedFallbackStalled)
}

// TestGesvMixedIllConditioned: condition number far beyond what float32
// resolves — two columns at unit scale differing by 1e-10, so the demotion
// loses the distinction entirely and refinement cannot contract (a row
// scaling would not do: it leaves the normwise criterion trivially
// satisfiable). The engine must fall back — reason is Stalled or Singular
// depending on what the float32 factorization makes of the collapsed
// columns — and still deliver the plain driver's bits.
func TestGesvMixedIllConditioned(t *testing.T) {
	n := 60
	a, b := mixedWellCond[float64](9, n, 1)
	for i := 0; i < n; i++ {
		a[i+2*n] = a[i+n] + 1e-10*float64(i%7-3)
	}
	expectGesvFallbackIdentity(t, n, 1, a, b, 0)
}

// TestGesvMixedSingular: an exactly rank-deficient matrix (zero column)
// fails the float32 factorization; the float64 fallback reports the
// singularity exactly as the plain driver does.
func TestGesvMixedSingular(t *testing.T) {
	n := 40
	a, b := mixedWellCond[float64](13, n, 1)
	clear(a[2*n : 3*n]) // column 2 := 0
	aM := append([]float64(nil), a...)
	x := make([]float64, n)
	iter, info := lapack.GesvMixed(tcfg(), n, 1, aM, n, make([]int, n), b, n, x, n)
	if iter >= 0 {
		t.Fatalf("singular system converged? iter=%d", iter)
	}
	aP := append([]float64(nil), a...)
	bP := append([]float64(nil), b...)
	infoP := lapack.Gesv(tcfg(), n, 1, aP, n, make([]int, n), bP, n)
	if infoP == 0 {
		t.Fatal("oracle: plain Gesv did not report singularity")
	}
	if info != infoP {
		t.Fatalf("fallback info %d, plain info %d", info, infoP)
	}
}

// TestMixedChaosNonFinite soaks the solvers in NaN/Inf/overflow-range
// poison (the PR-3 fault model): every case must terminate well inside the
// sweep bound — the screens abort on first sight of a non-finite value —
// and fall back to the plain driver's exact bits.
func TestMixedChaosNonFinite(t *testing.T) {
	n := 48
	poisons := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -4e38}
	for pi, p := range poisons {
		for _, loc := range []string{"a-first", "a-mid", "b"} {
			a, b := mixedWellCond[float64](pi+21, n, 2)
			switch loc {
			case "a-first":
				a[0] = p
			case "a-mid":
				a[(n/2)+(n/2)*n] = p
			case "b":
				b[n+3] = p
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				expectGesvFallbackIdentity(t, n, 2, a, b, lapack.MixedFallbackNonFinite)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("poison %v at %s: mixed solve did not terminate", p, loc)
			}
		}
	}
	// Same screens on the Cholesky route.
	g, b := mixedWellCond[float64](31, n, 1)
	hpd := make([]float64, n*n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.ConjTrans, n, n, n, 1.0, g, n, g, n, 0.0, hpd, n)
	for i := 0; i < n; i++ {
		hpd[i+i*n] += float64(n)
	}
	hpd[1+0*n] = math.NaN() // lower triangle
	aM := append([]float64(nil), hpd...)
	x := make([]float64, n)
	iter, _ := lapack.PosvMixed(tcfg(), lapack.Lower, n, 1, aM, n, b, n, x, n)
	if iter != lapack.MixedFallbackNonFinite {
		t.Fatalf("PosvMixed on NaN input: iter=%d, want %d", iter, lapack.MixedFallbackNonFinite)
	}
}

// TestSetMixedIterMax checks the refinement bound's clamp-and-swap contract
// in the default store: an update returns the configuration it replaced and
// the new value is clamped into the knob's range.
func TestSetMixedIterMax(t *testing.T) {
	orig := tcfg().MixedIterMax
	defer core.ResetDefault(*core.Default())
	set := func(n int) int {
		return core.UpdateDefault(func(c *core.Config) { c.MixedIterMax = n }).MixedIterMax
	}
	if old := set(5); old != orig {
		t.Fatalf("swap returned %d, want %d", old, orig)
	}
	if got := tcfg().MixedIterMax; got != 5 {
		t.Fatalf("MixedIterMax = %d, want 5", got)
	}
	// Below one sweep clamps up; huge values clamp to the cap.
	if set(0); tcfg().MixedIterMax != 1 {
		t.Fatalf("clamped bound = %d, want 1", tcfg().MixedIterMax)
	}
	if set(1 << 30); tcfg().MixedIterMax != core.MaxMixedIterMax {
		t.Fatalf("clamped bound = %d, want %d", tcfg().MixedIterMax, core.MaxMixedIterMax)
	}
}

// TestMixedIterMaxEnvKnob re-executes the test binary with
// LA90_MIXED_ITERMAX set (read once at init) and checks the override lands,
// including core.EnvInt's clamping: out-of-range values degrade to the
// nearest bound and garbage keeps the default.
func TestMixedIterMaxEnvKnob(t *testing.T) {
	if os.Getenv("LA90_MIXED_HELPER") == "1" {
		fmt.Printf("MIXEDMAX %d\n", tcfg().MixedIterMax)
		return
	}
	cases := []struct {
		env  string
		want int
	}{
		{"7", 7},
		{"1", 1},
		{"0", 1},           // below the minimum of one sweep
		{"99999999", 4096}, // above the internal cap
		{"banana", 30},     // garbage keeps the default
	}
	for _, c := range cases {
		cmd := exec.Command(os.Args[0], "-test.run", "TestMixedIterMaxEnvKnob$", "-test.v")
		cmd.Env = append(os.Environ(), "LA90_MIXED_HELPER=1", "LA90_MIXED_ITERMAX="+c.env)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("helper process failed: %v\n%s", err, out)
		}
		got := -1
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "MIXEDMAX ") {
				fmt.Sscanf(line, "MIXEDMAX %d", &got)
			}
		}
		if got != c.want {
			t.Errorf("LA90_MIXED_ITERMAX=%q: got %d, want %d", c.env, got, c.want)
		}
	}
}

// TestGesvMixedRcondScreen: a matrix whose float32 factorization succeeds
// cleanly (graded column, all entries representable) but whose condition
// number is far beyond the refinement contraction bound. Before the rcond
// screen this input burned all ITERMAX sweeps before stalling; now Gecon on
// the float32 factors must reject it up front — reason IllConditioned, not
// Stalled — and deliver the plain driver's bits. ITERMAX is raised so a
// stall (if the screen failed) would show up as the wrong reason code.
func TestGesvMixedRcondScreen(t *testing.T) {
	withDefault(t, func(c *core.Config) { c.MixedIterMax = 64 })
	n := 50
	a, b := mixedWellCond[float64](21, n, 2)
	for i := 0; i < n; i++ { // grade one column: cond ≈ 1e9, exact in f32
		a[i+3*n] *= 1e-9
	}
	expectGesvFallbackIdentity(t, n, 2, a, b, lapack.MixedFallbackIllConditioned)
	ac, bc := mixedWellCond[complex128](21, n, 2)
	for i := 0; i < n; i++ {
		ac[i+3*n] *= 1e-9
	}
	expectGesvFallbackIdentity(t, n, 2, ac, bc, lapack.MixedFallbackIllConditioned)
}

// TestPosvMixedRcondScreen is the Cholesky-route twin: an SPD matrix with a
// graded spectrum (diagonal 1e-9..1, factors exactly in float32) must trip
// the Pocon screen and fall back bit-identically to plain Posv.
func TestPosvMixedRcondScreen(t *testing.T) {
	withDefault(t, func(c *core.Config) { c.MixedIterMax = 64 })
	n := 32
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		d := 1.0
		if i == 0 {
			d = 1e-9
		}
		a[i+i*n] = d
	}
	// Couple the graded mode to the rest so the matrix is not diagonal.
	for i := 1; i < n; i++ {
		a[0+i*n] = 1e-6
		a[i+0*n] = 1e-6
	}
	_, b := mixedWellCond[float64](23, n, 1)
	for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
		aM := append([]float64(nil), a...)
		bM := append([]float64(nil), b...)
		x := make([]float64, n)
		iter, infoM := lapack.PosvMixed(tcfg(), uplo, n, 1, aM, n, bM, n, x, n)
		if iter != lapack.MixedFallbackIllConditioned {
			t.Fatalf("uplo=%c iter=%d, want %d", uplo, iter, lapack.MixedFallbackIllConditioned)
		}
		aP := append([]float64(nil), a...)
		bP := append([]float64(nil), b...)
		infoP := lapack.Posv(tcfg(), uplo, n, 1, aP, n, bP, n)
		if infoM != infoP {
			t.Fatalf("uplo=%c fallback info %d, plain info %d", uplo, infoM, infoP)
		}
		if !bitsEqual(x, bP) {
			t.Fatalf("uplo=%c fallback solution not bit-identical to plain Posv", uplo)
		}
		if !bitsEqual(aM, aP) {
			t.Fatalf("uplo=%c fallback factors not bit-identical to plain Posv", uplo)
		}
		if !bitsEqual(bM, b) {
			t.Fatalf("uplo=%c b must be preserved", uplo)
		}
	}
}
