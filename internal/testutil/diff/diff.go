// Package diff is the test suite's one harness for cross-checks: the rows of
// the blas kernel table a check runs on, the thread counts it runs at, the
// fingerprint it compares, and the golden tables that pin fingerprints across
// commits (DESIGN "One test harness").
//
// It imports nothing above internal/core, so that the internal tests of
// package blas can use it as well as those of lapack and la. A test binary
// that imports it runs diff.Main from its TestMain, which applies -avx2;
// -golden prints every golden table in the form it is stored in instead of
// checking it, and -golden -v prints a line per case where a table has cases.
package diff

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
)

var (
	golden = flag.Bool("golden", false, "print every golden table in the form it is stored in instead of checking it (-v: one line per case too)")
	avx2   = flag.Bool("avx2", false, "run on the AVX2 row of the kernel table where the AVX-512 row would be selected")
)

// Main parses the flags, keeps the whole binary off the AVX-512 row under
// -avx2 (`make test-avx2`) and runs the tests.
func Main(m *testing.M) {
	flag.Parse()
	faultinject.ForceAVX2(*avx2)
	os.Exit(m.Run())
}

// Cases reports whether a table with cases should print one line per case.
func Cases() bool { return *golden && testing.Verbose() }

// Row is a row of the blas kernel table.
type Row int

const (
	Selected Row = iota // the row kernelFor selects
	AVX2                // the AVX2 row, forced where AVX-512 would be selected
	Portable            // the Go row (faultinject.ForcePortable, as LA90_NO_ASM=1)
)

func (r Row) String() string { return [...]string{"table", "avx2", "portable"}[r] }

// AVX512 says whether the kernel table selects its AVX-512 row, so that
// forcing the AVX2 row runs a second asm row. The tests of package blas set it
// from the table before any test runs; other packages cannot see the table
// and keep true, so on an AVX2 machine without AVX-512 their AVX2 row repeats
// the selected one.
var AVX512 = true

// RowSet lists the rows a cross-check visits. The AVX2 row is left out where
// it is the selected one (-avx2, LA90_NO_ASM=1, not amd64, !AVX512).
func RowSet() []Row {
	if *avx2 || !AVX512 || core.EnvFlag("LA90_NO_ASM") || runtime.GOARCH != "amd64" {
		return []Row{Selected, Portable}
	}
	return []Row{Selected, AVX2, Portable}
}

// Force puts the kernel table on row r until t ends (t.Cleanup undoes it, so
// a failure cannot leave a later test on the wrong row) or the next Force.
func Force(t testing.TB, r Row) {
	wasAVX2, wasPortable := faultinject.AVX2Only(), faultinject.PortableOnly()
	t.Cleanup(func() {
		faultinject.ForceAVX2(wasAVX2)
		faultinject.ForcePortable(wasPortable)
	})
	faultinject.ForceAVX2(*avx2 || r == AVX2)
	faultinject.ForcePortable(r == Portable)
}

// Engine moves the packed engine's blocking and crossovers until t ends
// (t.Cleanup restores the hook before it) or the next Engine: blas applies
// mutate to its internal/blas/tuning.go values on every read, and nil puts
// them back. The hook is process-wide and read more than once per call, so a
// test that sets it must not call t.Parallel, and sets it between calls only.
func Engine(t testing.TB, mutate func(*faultinject.Engine)) {
	prev := faultinject.ForceEngine(mutate)
	t.Cleanup(func() { faultinject.ForceEngine(prev) })
}

// Run runs f as the subtest named after row r with r forced, if r is in
// RowSet.
func Run(t *testing.T, r Row, f func(t *testing.T)) {
	if slices.Contains(RowSet(), r) {
		t.Run(r.String(), func(t *testing.T) {
			Force(t, r)
			f(t)
		})
	}
}

// Rows runs f as a subtest on every row of RowSet.
func Rows(t *testing.T, f func(t *testing.T)) {
	for _, r := range RowSet() {
		Run(t, r, f)
	}
}

// OnRows calls f on every row of RowSet, forced within t, then selects again.
func OnRows(t testing.TB, f func(r Row)) {
	for _, r := range RowSet() {
		Force(t, r)
		f(r)
	}
	Force(t, Selected)
}

// Threads is the one list of worker counts the thread cross-checks run at.
var Threads = []int{1, 2, 3, 4, 7, 8}

// AcrossThreads calls f at every count of Threads, reports each count whose
// result differs bitwise from the one-thread result as an error of t, and
// returns the one-thread result.
func AcrossThreads[T core.Scalar](t testing.TB, what string, f func(threads int) []T) []T {
	t.Helper()
	serial := f(Threads[0])
	for _, n := range Threads[1:] {
		if !Same(f(n), serial) {
			t.Errorf("%s: %d threads differ bitwise from one", what, n)
		}
	}
	return serial
}

// Same reports whether a and b are equal bit for bit: NaN payloads and the
// signs of zeros included.
func Same[T core.Scalar](a, b []T) bool {
	return slices.EqualFunc(a, b, func(x, y T) bool {
		p, q := core.ToComplex(x), core.ToComplex(y)
		return math.Float64bits(real(p)) == math.Float64bits(real(q)) && math.Float64bits(imag(p)) == math.Float64bits(imag(q))
	})
}

// MaxDiff is the largest elementwise |a − b|: the tolerance level of a
// cross-check where the rows or routes may round differently.
func MaxDiff[T core.Scalar](a, b []T) float64 {
	d := 0.0
	for i := range a {
		d = math.Max(d, core.Abs(a[i]-b[i]))
	}
	return d
}

// Hash is the fingerprint of the suite: an FNV-64a over a stream in which
// every scalar is its real then its imaginary part and every int an int64,
// each little-endian; on a table's tolerance level it also keeps sums.
type Hash struct {
	h     uint64
	Sums  []float64 // the tolerance level, compared per term
	Terms []int     // the number of terms of each sum
}

func NewHash() *Hash { return &Hash{h: 14695981039346656037} }

func (h *Hash) write(u uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], u)
	for _, c := range b {
		h.h = (h.h ^ uint64(c)) * 1099511628211
	}
}

// Float writes each v as a float64 alone (no imaginary part).
func (h *Hash) Float(vs ...float64) {
	for _, v := range vs {
		h.write(math.Float64bits(v))
	}
}

func (h *Hash) Int(vs ...int) {
	for _, v := range vs {
		h.write(uint64(int64(v)))
	}
}

// Add writes every scalar of xs.
func Add[T core.Scalar](h *Hash, xs ...[]T) {
	for _, x := range xs {
		for _, v := range x {
			c := core.ToComplex(v)
			h.write(math.Float64bits(real(c)))
			h.write(math.Float64bits(imag(c)))
		}
	}
}

// Approx adds v, a sum of terms terms, to tolerance sum k.
func (h *Hash) Approx(k int, v float64, terms int) {
	for len(h.Sums) <= k {
		h.Sums, h.Terms = append(h.Sums, 0), append(h.Terms, 0)
	}
	h.Sums[k] += v
	h.Terms[k] += terms
}

func (h *Hash) Sum64() uint64 { return h.h }

// Entry is one key of a golden table: its hash on the asm rows and on the
// portable row (columns 0 and 1) and, on the tolerance level, its sums.
type Entry struct {
	Hash [2]uint64
	Sums [2][]float64
}

// Table is a golden table: per key, the fingerprints a commit recorded.
type Table map[string]Entry

// Check runs fp on rows (every row of RowSet when none is given), each as a
// subtest, and checks what it computed against the table: the portable row
// must equal column 1, every other row must land on one recorded column, a
// hash bit for bit and a sum to 1e-12 per term (1e-4 for the keys of
// single-precision types). Under -golden it prints the table instead, from
// the selected row and the portable row. The bits were recorded on amd64;
// other targets may fuse multiply-adds in the portable kernels, so there fp
// runs (and makes its own assertions) but the comparison is skipped.
func (tab Table) Check(t *testing.T, fp func(t *testing.T, out map[string]*Hash), rows ...Row) {
	if len(rows) == 0 {
		rows = RowSet()
	}
	if *golden && !slices.Contains(rows, Portable) {
		rows = append(rows, Portable)
	}
	got := map[Row]map[string]*Hash{}
	for _, r := range rows {
		Run(t, r, func(t *testing.T) {
			got[r] = map[string]*Hash{}
			fp(t, got[r])
			switch {
			case *golden:
			case runtime.GOARCH != "amd64":
				t.Skip("golden bits were recorded on amd64 (other targets fuse multiply-adds in the portable kernels)")
			default:
				tab.check(t, r, got[r])
			}
		})
	}
	if *golden {
		for _, k := range sortedKeys(got[Selected]) {
			fmt.Printf("\t%q: %s,\n", k, format(got[Selected][k], got[Portable][k]))
		}
	}
}

func (tab Table) check(t *testing.T, r Row, out map[string]*Hash) {
	if len(out) != len(tab) {
		t.Fatalf("%d fingerprints computed, table has %d", len(out), len(tab))
	}
	for _, k := range sortedKeys(out) {
		want, h := tab[k], out[k]
		if !want.matches(1, k, h) && (r == Portable || !want.matches(0, k, h)) {
			t.Errorf("%s: %#016x %v, recorded %#016x %v (asm) or %#016x %v (portable)", k, h.h, h.Sums, want.Hash[0], want.Sums[0], want.Hash[1], want.Sums[1])
		}
	}
}

func (e Entry) matches(col int, key string, h *Hash) bool {
	if h.h != e.Hash[col] || len(h.Sums) != len(e.Sums[col]) {
		return false
	}
	tol := 1e-12
	if strings.HasSuffix(key, "float32") || strings.HasSuffix(key, "complex64") {
		tol = 1e-4
	}
	for f, s := range h.Sums {
		if !(math.Abs(s-e.Sums[col][f]) <= tol*float64(max(1, h.Terms[f]))) {
			return false
		}
	}
	return true
}

// format is the value of a table entry as it is stored.
func format(asm, portable *Hash) string {
	s := fmt.Sprintf("{Hash: [2]uint64{%#016x, %#016x}", asm.h, portable.h)
	if len(asm.Sums) > 0 {
		s += fmt.Sprintf(", Sums: [2][]float64{\n\t\t{%s},\n\t\t{%s}}", floats(asm.Sums), floats(portable.Sums))
	}
	return s + "}"
}

func floats(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.17g", x)
	}
	return strings.Join(s, ", ")
}

func sortedKeys(m map[string]*Hash) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
