package la_test

// Tests for the mixed-precision opt-in surface: WithMixed / LA90_MIXED
// routing on LA_GESV and LA_POSV, the "A unchanged on a converged mixed
// solve" contract and accuracy against the plain driver.

import (
	"repro/internal/core"

	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/blas"
	"repro/la"
)

// mixedProbe solves a fresh well-conditioned system through GESV with the
// given options and returns the solution, the post-solve A, and the error.
func mixedProbe(n int, opts ...la.Opt) (x, aAfter []float64, err error) {
	a := randMat[float64](90+n, n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	b := randMat[float64](91+n, n, 2)
	_, err = la.GESV(a, b, opts...)
	return b.Data, a.Data, err
}

func TestGESVWithMixed(t *testing.T) {
	n := 120
	xPlain, aPlain, err := mixedProbe(n)
	if err != nil {
		t.Fatal(err)
	}
	xMixed, aMixed, err := mixedProbe(n, la.WithMixed())
	if err != nil {
		t.Fatal(err)
	}
	// Same accuracy class: the two solutions agree to O(n·eps64·cond).
	for i := range xPlain {
		if d := math.Abs(xMixed[i] - xPlain[i]); d > 1e-10*(1+math.Abs(xPlain[i])) {
			t.Fatalf("mixed and plain solutions diverge at %d: %g vs %g", i, xMixed[i], xPlain[i])
		}
	}
	// Observable difference: the plain path leaves LU factors in A, the
	// converged mixed path returns A untouched.
	orig := randMat[float64](90+n, n, n)
	for i := 0; i < n; i++ {
		orig.Set(i, i, orig.At(i, i)+float64(n))
	}
	if !slicesBitEqual(aMixed, orig.Data) {
		t.Fatal("converged mixed GESV must leave A unchanged")
	}
	if slicesBitEqual(aPlain, orig.Data) {
		t.Fatal("sanity: plain GESV should have overwritten A with factors")
	}
}

func slicesBitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestGESVSetMixedDefault: with the process default on (what LA90_MIXED
// sets at startup), a plain GESV takes the mixed path.
func TestGESVSetMixedDefault(t *testing.T) {
	defer core.ResetDefault(*core.Default())
	core.UpdateDefault(func(c *core.Config) { c.Mixed = true })
	n := 64
	_, aAfter, err := mixedProbe(n) // no WithMixed: default routes mixed
	if err != nil {
		t.Fatal(err)
	}
	orig := randMat[float64](90+n, n, n)
	for i := 0; i < n; i++ {
		orig.Set(i, i, orig.At(i, i)+float64(n))
	}
	if !slicesBitEqual(aAfter, orig.Data) {
		t.Fatal("the Mixed default did not route GESV through the mixed path")
	}
}

func TestPOSVWithMixed(t *testing.T) {
	for _, n := range []int{40, 130} {
		aP := spdMat[float64](5, n)
		bP := randMat[float64](7, n, 2)
		if err := la.POSV(aP, bP); err != nil {
			t.Fatal(err)
		}
		aM := spdMat[float64](5, n)
		bM := randMat[float64](7, n, 2)
		if err := la.POSV(aM, bM, la.WithMixed()); err != nil {
			t.Fatal(err)
		}
		for i := range bP.Data {
			if d := math.Abs(bM.Data[i] - bP.Data[i]); d > 1e-10*(1+math.Abs(bP.Data[i])) {
				t.Fatalf("n=%d: mixed and plain POSV diverge at %d", n, i)
			}
		}
		if !slicesBitEqual(aM.Data, spdMat[float64](5, n).Data) {
			t.Fatalf("n=%d: converged mixed POSV must leave A unchanged", n)
		}
	}
	// Complex Hermitian positive definite.
	n := 50
	aP := spdMat[complex128](3, n)
	bP := randMat[complex128](9, n, 1)
	if err := la.POSV(aP, bP); err != nil {
		t.Fatal(err)
	}
	aM := spdMat[complex128](3, n)
	bM := randMat[complex128](9, n, 1)
	if err := la.POSV(aM, bM, la.WithMixed()); err != nil {
		t.Fatal(err)
	}
	for i := range bP.Data {
		re := math.Abs(real(bM.Data[i]) - real(bP.Data[i]))
		im := math.Abs(imag(bM.Data[i]) - imag(bP.Data[i]))
		if re+im > 1e-10*(1+real(bP.Data[i])*real(bP.Data[i])) {
			t.Fatalf("complex mixed POSV diverges at %d", i)
		}
	}
}

// TestGESVMixedFloat32Passthrough: float32 has no lower precision to factor
// in — WithMixed must silently run the plain path (A overwritten with
// factors, solve correct).
func TestGESVMixedFloat32Passthrough(t *testing.T) {
	n := 30
	a := randMat[float32](1, n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float32(n))
	}
	a0 := a.Clone()
	b := randMat[float32](2, n, 1)
	b0 := b.Clone()
	if _, err := la.GESV(a, b, la.WithMixed()); err != nil {
		t.Fatal(err)
	}
	// Plain path ran: A holds factors now.
	same := true
	for i := range a.Data {
		if a.Data[i] != a0.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("float32 WithMixed should run the plain (in-place) path")
	}
	// And the solution solves the system.
	r := make([]float32, n)
	copy(r, b0.Data)
	blas.Gemv(core.Default(), blas.NoTrans, n, n, float32(-1), a0.Data, n, b.Data, 1, float32(1), r, 1)
	for i, v := range r {
		if math.Abs(float64(v)) > 1e-3 {
			t.Fatalf("float32 residual too large at %d: %g", i, v)
		}
	}
}

// TestMixedEnvKnob re-executes the test binary with LA90_MIXED set (read
// once at init) and checks the process default lands, by the one rule of
// the boolean variables: set and not "0" means on.
func TestMixedEnvKnob(t *testing.T) {
	if os.Getenv("LA90_MIXED_LA_HELPER") == "1" {
		fmt.Printf("MIXEDDEF %v\n", core.Default().Mixed)
		return
	}
	for _, c := range []struct {
		env  string
		want bool
	}{{"1", true}, {"0", false}, {"", false}, {"yes", true}} {
		cmd := exec.Command(os.Args[0], "-test.run", "TestMixedEnvKnob$", "-test.v")
		cmd.Env = append(os.Environ(), "LA90_MIXED_LA_HELPER=1", "LA90_MIXED="+c.env)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("helper process failed: %v\n%s", err, out)
		}
		got := ""
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "MIXEDDEF ") {
				got = strings.TrimSpace(strings.TrimPrefix(line, "MIXEDDEF "))
			}
		}
		if got != fmt.Sprint(c.want) {
			t.Errorf("LA90_MIXED=%q: default %s, want %v", c.env, got, c.want)
		}
	}
}
