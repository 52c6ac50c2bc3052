package blas

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestTuningEnvKnobs re-executes the test binary with odd values in the
// LA90_GEMM_{MC,KC,NC,SMALL} variables (the default is built once at init)
// and checks that the packed engine's blocking and crossover keep their
// built-in values: they are the library's decision, and the environment
// reaches only the rows of core.Knobs.
func TestTuningEnvKnobs(t *testing.T) {
	blocking := func(c *core.Config) string {
		return fmt.Sprintf("TUNING %d %d %d %d", c.GemmMC, c.GemmKC, c.GemmNC, c.GemmSmallDim)
	}
	if os.Getenv("LA90_TUNING_HELPER") == "1" {
		fmt.Println(blocking(core.Default()))
		return
	}
	want := blocking(core.Default())
	for _, set := range [][4]string{
		{"1", "3", "7", "0"},
		{"100000", "100000", "100000", "100000"},
		{"48", "96", "512", "banana"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run", "TestTuningEnvKnobs$", "-test.v")
		cmd.Env = append(os.Environ(), "LA90_TUNING_HELPER=1",
			"LA90_GEMM_MC="+set[0], "LA90_GEMM_KC="+set[1], "LA90_GEMM_NC="+set[2], "LA90_GEMM_SMALL="+set[3])
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("helper process failed: %v\n%s", err, out)
		}
		got := ""
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "TUNING ") {
				got = line
			}
		}
		if got != want {
			t.Errorf("LA90_GEMM_{MC,KC,NC,SMALL}=%v: helper reads %q, want the built-in %q", set, got, want)
		}
	}
}
