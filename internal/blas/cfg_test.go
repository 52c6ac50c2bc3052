package blas

import (
	"testing"

	"repro/internal/core"
	"repro/internal/testutil/diff"
)

// tcfg returns the current default execution context — the configuration an
// API-boundary capture would produce with no per-call options. Tests that
// exercise Set* shims re-capture after mutating so they observe the update.
func tcfg() *core.Config { return core.Default() }

func TestMain(m *testing.M) {
	diff.Asm, diff.AVX512 = useAsmF64, useAVX512
	diff.Main(m)
}
