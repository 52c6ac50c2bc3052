package diff

import (
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// TestForceUndoneAfterFailure fails a subtest on each forced row, in a child
// run of this binary, and checks that the next subtest runs on the selected
// row: a failing test may not leave a later one on the row it forced.
func TestForceUndoneAfterFailure(t *testing.T) {
	if os.Getenv("DIFF_FAIL_ON_ROW") != "" {
		for _, r := range []Row{AVX2, Portable} {
			t.Run("fail", func(t *testing.T) { Force(t, r); t.Fatalf("deliberate failure on the %v row", r) })
			t.Run("next", func(t *testing.T) {
				if faultinject.AVX2Only() || faultinject.PortableOnly() {
					t.Logf("LEAKED after %v", r)
				}
			})
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestForceUndoneAfterFailure$", "-test.v")
	cmd.Env = append(os.Environ(), "DIFF_FAIL_ON_ROW=1")
	out, err := cmd.CombinedOutput()
	if err == nil || strings.Count(string(out), "deliberate failure") != 2 || strings.Contains(string(out), "LEAKED") {
		t.Fatalf("a forced row outlived its failing subtest, or the child did not fail as planned (%v):\n%s", err, out)
	}
}

// TestRowSetVisitsEachRowOnce: RowSet lists a selected portable row once
// (LA90_NO_ASM=1, no AVX2+FMA), a selected AVX2 row once beside it.
func TestRowSetVisitsEachRowOnce(t *testing.T) {
	defer func(asm, avx512 bool) { Asm, AVX512 = asm, avx512 }(Asm, AVX512)
	for _, c := range []struct {
		noAsm string
		asm   bool
		want  []Row
	}{{"1", true, []Row{Selected}}, {"0", false, []Row{Selected}}, {"0", true, []Row{Selected, Portable}}} {
		t.Setenv("LA90_NO_ASM", c.noAsm)
		Asm, AVX512 = c.asm, false
		if got := RowSet(); (runtime.GOARCH == "amd64" || c.noAsm == "1") && !slices.Equal(got, c.want) {
			t.Errorf("LA90_NO_ASM=%s, Asm=%v, no AVX-512: RowSet() = %v, want %v", c.noAsm, c.asm, got, c.want)
		}
	}
}
