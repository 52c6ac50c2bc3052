package lapack_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/testutil/diff"
)

func TestMain(m *testing.M) { diff.Main(m) }

// tcfg returns the process-default execution context for tests that drive
// the cfg-threaded routines directly.
func tcfg() *core.Config { return core.Default() }

// withDefault installs mutate(current default) as the process default for
// the rest of the test and restores the previous default afterwards.
func withDefault(t *testing.T, mutate func(*core.Config)) {
	t.Helper()
	saved := *core.Default()
	t.Cleanup(func() { core.ResetDefault(saved) })
	core.UpdateDefault(mutate)
}
