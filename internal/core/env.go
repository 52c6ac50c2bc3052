package core

import (
	"os"
	"strconv"
)

// EnvInt reads an integer tuning parameter from the environment with the
// hardening policy shared by every LA90_* knob: a missing, empty, or
// non-numeric value leaves the default untouched, a parsable value is clamped
// into [lo, hi]. Tuning knobs must never be able to crash or wedge the
// process — a deployment typo like LA90_NUM_THREADS=1e9 or a negative block
// size degrades to the nearest sane setting instead of a multi-gigabyte
// allocation or a zero-width loop.
func EnvInt(name string, def, lo, hi int) int {
	s := os.Getenv(name)
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return def
	}
	return ClampInt(n, lo, hi)
}

// ClampInt returns n limited to the inclusive range [lo, hi].
func ClampInt(n, lo, hi int) int {
	if n < lo {
		return lo
	}
	if n > hi {
		return hi
	}
	return n
}

// EnvFlag is the one parsing rule of the boolean LA90_* variables: set, and
// not "0", means on.
func EnvFlag(name string) bool {
	s := os.Getenv(name)
	return s != "" && s != "0"
}
