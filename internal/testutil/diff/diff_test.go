package diff

import (
	"os"
	"os/exec"
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
