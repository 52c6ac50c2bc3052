package lapack_test

import (
	"flag"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// -avx2 keeps the whole test binary off the AVX-512 row of the blas kernel
// table (`make test-avx2`; see internal/blas/cfg_test.go).
var avx2Row = flag.Bool("avx2", false, "run on the AVX2 row of the kernel table where the AVX-512 row would be selected")

func TestMain(m *testing.M) {
	flag.Parse()
	faultinject.ForceAVX2(*avx2Row)
	os.Exit(m.Run())
}

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
