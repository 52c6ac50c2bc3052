package blas

import (
	"flag"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// tcfg returns the current default execution context — the configuration an
// API-boundary capture would produce with no per-call options. Tests that
// exercise Set* shims re-capture after mutating so they observe the update.
func tcfg() *core.Config { return core.Default() }

// -avx2 keeps the whole test binary off the AVX-512 row of the kernel table
// (`make test-avx2`): on a machine that has AVX-512, plain `go test` selects
// the AVX2 row only in the subtests that force it.
var avx2Row = flag.Bool("avx2", false, "run on the AVX2 row of the kernel table where the AVX-512 row would be selected")

func TestMain(m *testing.M) {
	flag.Parse()
	faultinject.ForceAVX2(*avx2Row)
	os.Exit(m.Run())
}
