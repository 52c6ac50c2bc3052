package lapack_test

import (
	"testing"

	"repro/internal/lapack"
)

// TestIlaenvReductionParams pins the whole tuning table: every name's block
// size at ispec 1 and unblocked crossover at ispec 3, GETRF on both sides of
// its 512 switch, ORGQR just inside and just outside the nxOrgqr² = 240²
// area, and the values an unknown name gets.
func TestIlaenvReductionParams(t *testing.T) {
	cases := []struct {
		ispec  int
		name   string
		n1, n2 int
		want   int
	}{
		{1, "GETRF", 511, 511, 64},
		{1, "GETRF", 512, 512, 256},
		{1, "GETRF", 100, 512, 256},
		{1, "GETRF2", 1000, 1000, 8},
		{1, "POTRF", 1000, -1, 64},
		{1, "GETRI", 1000, -1, 48},
		{1, "SYTRF", 1000, -1, 48},
		{1, "HETRF", 1000, -1, 48},
		{1, "GEQRF", 1000, 1000, 32},
		{1, "GELQF", 1000, 1000, 32},
		{1, "ORGQR", 1000, 1000, 32},
		{1, "ORMQR", 1000, 1000, 32},
		{1, "ORGLQ", 1000, 1000, 32},
		{1, "ORMLQ", 1000, 1000, 32},
		{1, "SYTRD", 1000, -1, 32},
		{1, "HETRD", 1000, -1, 32},
		{1, "GEBRD", 1000, 1000, 32},
		{1, "GEHRD", 1000, 1, 32},
		{1, "XYZZY", 1000, 1000, 32},

		{3, "GETRF", 1000, 1000, 128},
		{3, "GEQRF", 1000, 1000, 64},
		{3, "GELQF", 1000, 1000, 64},
		{3, "ORGQR", 240, 240, 240},
		{3, "ORGQR", 241, 240, 8},
		{3, "ORGQR", 960, 60, 960},
		{3, "ORGQR", 961, 60, 8},
		{3, "ORMQR", 1000, 1000, 8},
		{3, "ORGLQ", 1000, 1000, 8},
		{3, "ORMLQ", 1000, 1000, 8},
		{3, "SYTRD", 1000, -1, 128},
		{3, "HETRD", 1000, -1, 128},
		{3, "GEBRD", 1000, 1000, 128},
		{3, "GEHRD", 1000, 1, 128},
		{3, "XYZZY", 1000, 1000, 128},
	}
	for _, c := range cases {
		if got := lapack.Ilaenv(c.ispec, c.name, c.n1, c.n2, -1, -1); got != c.want {
			t.Errorf("Ilaenv(%d, %q, %d, %d) = %d, want %d", c.ispec, c.name, c.n1, c.n2, got, c.want)
		}
	}
}
