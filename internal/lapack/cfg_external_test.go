package lapack_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/testutil/diff"
)

func TestMain(m *testing.M) { diff.Main(m) }

// tcfg returns the process-default execution context for tests that drive
// the cfg-threaded routines directly.
func tcfg() *core.Config { return core.Default() }

// withoutSmall runs f with the pack-free small-matrix path off: the other
// route of the tests that cross-check getrfSmall, getrsSmall, potrfSmall and
// potrsSmall.
func withoutSmall(t testing.TB, f func()) {
	diff.Engine(t, func(e *faultinject.Engine) { e.SmallDim = 0 })
	f()
	diff.Engine(t, nil)
}
