package blas

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestTuningEnvKnobs re-executes the test binary with the LA90_GEMM_SMALL
// knob set (it is read once at init) and checks each override lands,
// including core.EnvInt's clamping: garbage keeps the default and
// out-of-range values degrade to the nearest bound.
func TestTuningEnvKnobs(t *testing.T) {
	if os.Getenv("LA90_TUNING_HELPER") == "1" {
		fmt.Printf("TUNING %d\n", core.Default().GemmSmallDim)
		return
	}
	cases := []struct {
		small     string
		wantSmall int
	}{
		// Plain overrides; 0 disables the pack-free path entirely.
		{"48", 48},
		{"0", 0},
		// Out of range clamps to [0, 256]; garbage keeps the default.
		{"100000", core.MaxGemmSmallDim},
		{"banana", 64},
	}
	for _, c := range cases {
		cmd := exec.Command(os.Args[0], "-test.run", "TestTuningEnvKnobs$", "-test.v")
		cmd.Env = append(os.Environ(),
			"LA90_TUNING_HELPER=1",
			"LA90_GEMM_SMALL="+c.small)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("helper process failed: %v\n%s", err, out)
		}
		got := false
		var gotSmall int
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "TUNING ") {
				if _, err := fmt.Sscanf(line, "TUNING %d", &gotSmall); err != nil {
					t.Fatalf("parsing helper output %q: %v", line, err)
				}
				got = true
			}
		}
		if !got {
			t.Fatalf("helper printed no TUNING line:\n%s", out)
		}
		if gotSmall != c.wantSmall {
			t.Errorf("SMALL=%q: got %d, want %d", c.small, gotSmall, c.wantSmall)
		}
	}
}
