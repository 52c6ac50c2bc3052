package lapack_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/testutil"
	"repro/internal/testutil/diff"
)

// testPotrfRoutes factors one matrix by Potrf and by Potf2 on every row of
// the kernel table. Potrf's route is set by the order: potrfSmall up to the
// Ilaenv block of 64, the recursion on potrfSmall leaves above it.
func testPotrfRoutes[T core.Scalar](t *testing.T, uplo lapack.Uplo, n int) {
	rng := lapack.NewRng([4]int{n, 22, 5, 1})
	lda := n + 3
	a := testutil.RandSPD[T](rng, n, lda)
	factors := []struct {
		name string
		run  func(af []T) int
	}{
		{"default", func(af []T) int { return lapack.Potrf(tcfg(), uplo, n, af, lda) }},
		{"Potf2", func(af []T) int { return lapack.Potf2(tcfg(), uplo, n, af, lda) }},
	}
	var out [3][][]T
	diff.OnRows(t, func(r diff.Row) {
		for _, f := range factors {
			af := append([]T(nil), a...)
			if info := f.run(af); info != 0 {
				t.Fatalf("%s on %s: info = %d", f.name, r, info)
			}
			if res := testutil.CholeskyResidual(uplo, n, a, lda, af, lda); res > thresh {
				t.Fatalf("%s on %s: residual ratio %v > %v", f.name, r, res, thresh)
			}
			out[r] = append(out[r], af)
		}
		for i, f := range factors[1:] {
			if d := diff.MaxDiff(out[r][0], out[r][i+1]); d > 1e3*core.Eps[T]()*float64(n) {
				t.Fatalf("default vs %s on %s differ by %v", f.name, r, d)
			}
		}
		// The float64 step kernel and the axpy-form ragged step run both
		// triangles through the same arithmetic in the same order, so under
		// the crossover a float64 U is Lᵀ to the bit.
		if _, f64 := any(a).([]float64); f64 && uplo == lapack.Upper && n <= 64 {
			al := append([]T(nil), a...)
			lapack.Potrf(tcfg(), lapack.Lower, n, al, lda)
			for j := 0; j < n; j++ {
				for i := 0; i <= j; i++ {
					if u, l := out[r][0][i+j*lda], al[j+i*lda]; u != l {
						t.Fatalf("%s: U(%d,%d) = %v but L(%d,%d) = %v", r, i, j, u, j, i, l)
					}
				}
			}
		}
	})
	// The two asm rows share every leaf under the small path and differ only
	// in the micro-tile of the packed engine, whose tiles agree bit for bit.
	for i, f := range factors {
		if out[diff.AVX2] != nil && !diff.Same(out[diff.Selected][i], out[diff.AVX2][i]) {
			t.Fatalf("%s: the AVX2 row differs bitwise from the selected row", f.name)
		}
	}
}

func TestPotrfRoutesAgree(t *testing.T) {
	sizes := []int{96, 128, 130}
	for n := 1; n <= 65; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
			name := fmt.Sprintf("%v/n=%d", uplo, n)
			t.Run("float64/"+name, func(t *testing.T) { testPotrfRoutes[float64](t, uplo, n) })
			t.Run("float32/"+name, func(t *testing.T) { testPotrfRoutes[float32](t, uplo, n) })
			t.Run("complex128/"+name, func(t *testing.T) { testPotrfRoutes[complex128](t, uplo, n) })
			t.Run("complex64/"+name, func(t *testing.T) { testPotrfRoutes[complex64](t, uplo, n) })
		}
	}
}

// testPotrsRoutes solves from one factor by potrsSmall (nrhs < 8 under the
// crossover) and by the Trsm pair (the crossover disabled), on every row.
func testPotrsRoutes[T core.Scalar](t *testing.T, uplo lapack.Uplo, n, nrhs int) {
	rng := lapack.NewRng([4]int{n, nrhs, 7, 1})
	lda, ldb := n+3, n+1
	a := testutil.RandSPD[T](rng, n, lda)
	b := testutil.RandGeneral[T](rng, n, nrhs, ldb)
	var out [3][]T
	diff.OnRows(t, func(r diff.Row) {
		af := append([]T(nil), a...)
		if info := lapack.Potrf(tcfg(), uplo, n, af, lda); info != 0 {
			t.Fatalf("info = %d", info)
		}
		x, xt := append([]T(nil), b...), append([]T(nil), b...)
		lapack.Potrs(tcfg(), uplo, n, nrhs, af, lda, x, ldb)
		withoutSmall(t, func() { lapack.Potrs(tcfg(), uplo, n, nrhs, af, lda, xt, ldb) })
		full := symFull(uplo, n, a, lda)
		if res := testutil.SolveResidual(n, nrhs, full, n, x, ldb, b, ldb); res > thresh {
			t.Fatalf("%s: residual ratio %v > %v", r, res, thresh)
		}
		if d := diff.MaxDiff(x, xt); d > 1e3*core.Eps[T]()*float64(n) {
			t.Fatalf("%s: small solve and Trsm pair differ by %v", r, d)
		}
		out[r] = x
	})
	if out[diff.AVX2] != nil && !diff.Same(out[diff.Selected], out[diff.AVX2]) {
		t.Fatal("the AVX2 row differs bitwise from the selected row")
	}
}

func TestPotrsRoutesAgree(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 9, 15, 16, 17, 31, 40, 47, 64} {
		for _, nrhs := range []int{1, 3, 7} {
			for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
				name := fmt.Sprintf("%v/n=%d/nrhs=%d", uplo, n, nrhs)
				t.Run("float64/"+name, func(t *testing.T) { testPotrsRoutes[float64](t, uplo, n, nrhs) })
				t.Run("float32/"+name, func(t *testing.T) { testPotrsRoutes[float32](t, uplo, n, nrhs) })
				t.Run("complex128/"+name, func(t *testing.T) { testPotrsRoutes[complex128](t, uplo, n, nrhs) })
				t.Run("complex64/"+name, func(t *testing.T) { testPotrsRoutes[complex64](t, uplo, n, nrhs) })
			}
		}
	}
}

// The placement sweep (ROADMAP item 3b): one exceptional value at every
// position class of a driver's input, and the driver's outcome on every route
// it has compared with its oracle route. A driver joins by adding a row to
// placementDrivers; POSV was the first, GESV is the second.

// A placement is where the exceptional value goes: entry (i, j) of A — for
// POSV of its stored triangle, and i == j means that the reduced pivot of
// column j takes the value — or entry i of the first right-hand side when inB
// is set.
type placement struct {
	i, j int
	inB  bool
	v    float64
}

// An outcome is what a driver reports: INFO, the pivot left at the failing
// position when INFO > 0, the interchanges of a driver that makes any, and
// the class of every entry of X when INFO = 0.
type outcome struct {
	info  int
	pivot float64
	ipiv  []int
	class []byte
}

func classOf(v float64) byte {
	switch {
	case v != v:
		return 'n'
	case math.IsInf(v, 1):
		return '+'
	case math.IsInf(v, -1):
		return '-'
	}
	return '.'
}

type placementDriver struct {
	name  string
	uplos []lapack.Uplo
	// places lists the placements for order n.
	places func(n int) []placement
	// run solves the n×n system with the placement applied, by the route
	// under test or by the oracle route, and reports the outcome.
	run func(t *testing.T, oracle bool, uplo lapack.Uplo, n int, p placement) outcome
	// agree says whether a route's outcome is the oracle's, as far as the
	// driver's rule asks; expect, when not nil, holds the oracle itself to
	// what the placement must do.
	agree  func(p placement, got, want outcome) bool
	expect func(p placement, want outcome) bool
}

// blockColumns are the columns a placement sweep of order n visits: the
// first, an interior and the last, inside a block of eight and on either
// side of a block boundary.
func blockColumns(n int) []int {
	cols := map[int]bool{0: true, n / 2: true, n - 1: true}
	for _, j := range []int{3, 7, 8, 9, 15, 16} {
		if j < n {
			cols[j] = true
		}
	}
	out := make([]int, 0, len(cols))
	for j := range cols {
		out = append(out, j)
	}
	sort.Ints(out)
	return out
}

// exactSPD returns the uplo triangle of A = L·Lᵀ, for an integer unit-ish
// lower triangular L with powers of two on the diagonal, in an lda-strided
// array whose other entries are NaN, and L: every step of the factorization
// is exact in floating point, with fused multiply-adds or without, so routes
// agree on a reduced pivot to the bit.
func exactSPD(rng *lapack.Rng, uplo lapack.Uplo, n, lda int) (a, l []float64) {
	l = make([]float64, n*n)
	r := make([]float64, n*n)
	lapack.Larnv(1, rng, n*n, r)
	for j := 0; j < n; j++ {
		l[j+j*n] = float64(int(1) << int(3*r[j+j*n]))
		for i := j + 1; i < n; i++ {
			l[i+j*n] = math.Floor(5*r[i+j*n]) - 2
		}
	}
	a = make([]float64, lda*n)
	for i := range a {
		a[i] = math.NaN()
	}
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			s := 0.0
			for p := 0; p <= j; p++ {
				s += l[i+p*n] * l[j+p*n]
			}
			if uplo == lapack.Lower {
				a[i+j*lda] = s
			} else {
				a[j+i*lda] = s
			}
		}
	}
	return a, l
}

var placementDrivers = []placementDriver{{
	name:  "POSV",
	uplos: []lapack.Uplo{lapack.Upper, lapack.Lower},
	// A non-positive, NaN or −Inf reduced pivot; NaN and ±Inf off the
	// diagonal of A at the first, an interior and the last entry of a stored
	// column; and the same three in B.
	places: func(n int) (ps []placement) {
		for _, j := range blockColumns(n) {
			for _, v := range []float64{0, -3, math.NaN(), math.Inf(-1), math.Inf(1)} {
				ps = append(ps, placement{i: j, j: j, v: v})
			}
			for _, i := range []int{j + 1, (j + n) / 2, n - 1} {
				if i > j && i < n {
					for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
						ps = append(ps, placement{i: i, j: j, v: v})
					}
				}
			}
		}
		for _, i := range []int{0, n / 2, n - 1} {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				ps = append(ps, placement{i: i, inB: true, v: v})
			}
		}
		return ps
	},
	// Routes must agree on INFO, the pivot and the classes when the placement
	// is a reduced pivot or in B; a non-finite entry of A reaches the failing
	// pivot through products that the oracle's Level-2 loops skip when the
	// other factor is zero (and the small path, by the rule, does not), so
	// there the pivot need only be what fails: not positive.
	agree: func(p placement, got, want outcome) bool {
		samePivot := math.Float64bits(got.pivot) == math.Float64bits(want.pivot)
		if !p.inB && p.i != p.j {
			samePivot = !(got.pivot > 0)
		}
		return got.info == want.info && samePivot && string(got.class) == string(want.class)
	},
	expect: func(p placement, want outcome) bool {
		if !p.inB && p.i == p.j && (p.v <= 0 || p.v != p.v) {
			return want.info == p.j+1 && math.Float64bits(want.pivot) == math.Float64bits(p.v)
		}
		return true
	},
	run: func(t *testing.T, oracle bool, uplo lapack.Uplo, n int, p placement) outcome {
		lda := n + 2
		a, l := exactSPD(lapack.NewRng([4]int{n, 3, 3, 1}), uplo, n, lda)
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i%5 - 2)
		}
		at := func(i, j int) *float64 {
			if uplo == lapack.Upper {
				i, j = j, i
			}
			return &a[i+j*lda]
		}
		switch {
		case p.inB:
			b[p.i] = p.v
		case p.i == p.j:
			// The reduced pivot is A(j,j) − Σ L(j,k)²; what is left after the
			// exact subtraction is v.
			*at(p.j, p.j) += p.v - l[p.j+p.j*n]*l[p.j+p.j*n]
		default:
			*at(p.i, p.j) = p.v
		}
		canary := append([]float64(nil), a...)
		var info int
		posv := func() { info = lapack.Posv(tcfg(), uplo, n, 1, a, lda, b, n) }
		if oracle {
			withoutSmall(t, posv) // Potf2 and the Trsm pair
		} else {
			posv()
		}
		for j := 0; j < n; j++ {
			for i := 0; i < lda; i++ {
				if stored := i < n && (uplo == lapack.Upper && i <= j || uplo == lapack.Lower && i >= j); !stored {
					if math.Float64bits(a[i+j*lda]) != math.Float64bits(canary[i+j*lda]) {
						t.Fatalf("entry (%d,%d) outside the %v triangle was written", i, j, uplo)
					}
				}
			}
		}
		if info > 0 {
			return outcome{info: info, pivot: a[info-1+(info-1)*lda]}
		}
		o := outcome{class: make([]byte, n)}
		for i, v := range b {
			o.class[i] = classOf(v)
		}
		return o
	},
}, {
	name:  "GESV",
	uplos: []lapack.Uplo{lapack.Lower}, // not looked at
	// Zero, NaN and ±Inf at the first, an interior and the last entry of a
	// column and on its diagonal — in the ragged block, inside a full one and
	// on either side of a block boundary — and in B. A zero on the diagonal
	// (i == j) is a zero U(j, j): the whole reduced column is zero and INFO
	// reports it.
	places: func(n int) (ps []placement) {
		for _, j := range blockColumns(n) {
			for _, i := range []int{j, 0, (j + n) / 2 % n, n - 1} {
				for _, v := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
					ps = append(ps, placement{i: i, j: j, v: v})
				}
			}
		}
		for _, i := range []int{0, n / 2, n - 1} {
			for _, v := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
				ps = append(ps, placement{i: i, inB: true, v: v})
			}
		}
		return ps
	},
	// INFO, the zero pivot and the interchanges — up to the zero pivot, past
	// which nothing is exact any more — are the oracle's. So are the classes
	// of X, but for one thing: an unknown divided by an infinite pivot is
	// zero, the oracle's Trsv passes over an unknown that is zero, and the
	// small path, by the rule, multiplies it into the column of U all the
	// same — Inf among them. So the small path may have NaN for a number of
	// the oracle's; never the other way round, and never another kind of
	// non-finite. (TestSmallLUKeepsNonFinite pins the rule itself.)
	agree: func(p placement, got, want outcome) bool {
		upto := len(want.ipiv)
		if want.info > 0 {
			upto = want.info
		}
		for i := range want.ipiv[:upto] {
			if got.ipiv[i] != want.ipiv[i] {
				return false
			}
		}
		if got.info != want.info || math.Float64bits(got.pivot) != math.Float64bits(want.pivot) || len(got.class) != len(want.class) {
			return false
		}
		for i, c := range want.class {
			if g := got.class[i]; g != c && !(c == '.' && g == 'n') {
				return false
			}
		}
		return true
	},
	expect: func(p placement, want outcome) bool {
		if !p.inB && p.i == p.j && p.v == 0 {
			return want.info == p.j+1 && want.pivot == 0
		}
		return true
	},
	run: func(t *testing.T, oracle bool, _ lapack.Uplo, n int, p placement) outcome {
		// A zero U(j, j) and a placement in B are looked at on the exact
		// matrix, where a zero pivot is one on every route and X has exact
		// zeros; an entry of A is replaced in a random matrix, where no two
		// routes' roundings can part on a tie or an exact cancellation.
		lda, ldb := n+2, n+1
		singular := !p.inB && p.i == p.j && p.v == 0
		a := exactLU(n, lda, singular, p.j)
		if !p.inB && !singular {
			copy(a, testutil.RandGeneral[float64](lapack.NewRng([4]int{n, 3, 7, 1}), n, n, lda))
			for j := 0; j < n; j++ {
				a[n+j*lda], a[n+1+j*lda] = math.NaN(), math.NaN()
			}
		}
		b := make([]float64, 2*ldb)
		for i := range b {
			b[i] = float64(i%5 - 2)
		}
		b[n], b[ldb+n] = math.NaN(), math.NaN()
		switch {
		case p.inB:
			b[p.i] = p.v
		case p.i != p.j || p.v != 0:
			a[p.i+p.j*lda] = p.v
		}
		canary, bCanary := append([]float64(nil), a...), append([]float64(nil), b...)
		pivots := make([]int, n+2)
		pivots[0], pivots[n+1] = -7, -7
		ipiv := pivots[1 : n+1]
		var info int
		if oracle {
			// Getf2, the interchanges and the Trsm pair.
			if info = lapack.Getf2(n, n, a, lda, ipiv); info == 0 {
				withoutSmall(t, func() { lapack.Getrs(tcfg(), lapack.NoTrans, n, 1, a, lda, ipiv, b, ldb) })
			}
		} else {
			info = lapack.Gesv(tcfg(), n, 1, a, lda, ipiv, b, ldb)
		}
		for j := 0; j <= n; j++ {
			for i := n; i < lda; i++ {
				if math.Float64bits(a[i+j*lda]) != math.Float64bits(canary[i+j*lda]) {
					t.Fatalf("entry (%d,%d) outside A was written", i, j)
				}
			}
		}
		for i := n; i < len(b); i++ {
			if math.Float64bits(b[i]) != math.Float64bits(bCanary[i]) {
				t.Fatalf("entry %d outside the right-hand side was written: %v", i, b[i])
			}
		}
		if pivots[0] != -7 || pivots[n+1] != -7 {
			t.Fatalf("an entry outside ipiv was written: %v", pivots)
		}
		o := outcome{info: info, ipiv: ipiv}
		if info > 0 {
			o.pivot = a[info-1+(info-1)*lda]
			return o
		}
		o.class = make([]byte, n)
		for i, v := range b[:n] {
			o.class[i] = classOf(v)
		}
		return o
	},
}}

// exactLU returns A = P·L·U in an lda-strided array with one more column,
// everything outside the matrix NaN: L is unit lower triangular with entries
// 0, ±¼ and ±½, U upper triangular with powers of two on its diagonal and ±1
// and ±2 above it, and P puts row i of L·U in row (3·i+1) mod n when that is
// a permutation — so every step of the factorization is exact in floating
// point, with fused multiply-adds or without, and the pivot of every column
// is the only entry of its size. With singular set U(k, k) is zero.
func exactLU(n, lda int, singular bool, k int) []float64 {
	rng := lapack.NewRng([4]int{n, 3, 5, 1})
	r := make([]float64, 2*n*n)
	lapack.Larnv(1, rng, len(r), r)
	l, u := make([]float64, n*n), make([]float64, n*n)
	for j := 0; j < n; j++ {
		l[j+j*n] = 1
		u[j+j*n] = float64(int(1) << int(3*r[j+j*n]))
		for i := j + 1; i < n; i++ {
			l[i+j*n] = (math.Floor(5*r[i+j*n]) - 2) / 4
			u[j+i*n] = math.Floor(2*r[n*n+i+j*n]) + 1
			if r[n*n+j+i*n] < 0.5 {
				u[j+i*n] = -u[j+i*n]
			}
		}
	}
	if singular {
		u[k+k*n] = 0
	}
	a := make([]float64, lda*(n+1))
	for i := range a {
		a[i] = math.NaN()
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			s := 0.0
			for q := 0; q <= min(i, j); q++ {
				s += l[i+q*n] * u[q+j*n]
			}
			row := i
			if n%3 != 0 {
				row = (3*i + 1) % n
			}
			a[row+j*lda] = s
		}
	}
	return a
}

// TestPlacementSweep: every placement of every driver must give the INFO, the
// pivot value, the interchanges and the classes of X (finite, NaN, ±Inf: a
// non-finite value is never dropped by a zero multiplier) of the oracle route,
// as far as the driver's rule asks, on every row of the kernel table, with
// the canaries around the operands untouched.
func TestPlacementSweep(t *testing.T) {
	for _, d := range placementDrivers {
		for _, n := range []int{1, 5, 8, 13, 24, 37, 64} {
			for _, uplo := range d.uplos {
				for _, p := range d.places(n) {
					want := d.run(t, true, uplo, n, p)
					if d.expect != nil && !d.expect(p, want) {
						t.Fatalf("%s n=%d %v %+v: oracle reports info=%d pivot=%v", d.name, n, uplo, p, want.info, want.pivot)
					}
					diff.OnRows(t, func(r diff.Row) {
						if got := d.run(t, false, uplo, n, p); !d.agree(p, got, want) {
							t.Fatalf("%s n=%d %v %+v on %s: info=%d pivot=%v ipiv=%v X=%s, oracle info=%d pivot=%v ipiv=%v X=%s",
								d.name, n, uplo, p, r, got.info, got.pivot, got.ipiv, got.class, want.info, want.pivot, want.ipiv, want.class)
						}
					})
				}
			}
		}
	}
}

// TestCholeskyUnreferencedTriangle: whatever the other triangle holds — NaN
// canaries or the mirror image — the factor and the solution have the same
// bits, and the canaries are still there afterwards.
func TestCholeskyUnreferencedTriangle(t *testing.T) {
	for _, n := range []int{1, 4, 8, 12, 31, 32, 64} {
		for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
			rng := lapack.NewRng([4]int{n, 9, 9, 1})
			lda := n + 1
			full := testutil.RandSPD[float64](rng, n, lda)
			b0 := testutil.RandGeneral[float64](rng, n, 2, n)
			tri := append([]float64(nil), full...)
			for j := 0; j < n; j++ {
				for i := 0; i < lda; i++ {
					if stored := i < n && (uplo == lapack.Upper && i <= j || uplo == lapack.Lower && i >= j); !stored {
						tri[i+j*lda] = math.NaN()
					}
				}
			}
			bf, bt := append([]float64(nil), b0...), append([]float64(nil), b0...)
			if info := lapack.Posv(tcfg(), uplo, n, 2, full, lda, bf, n); info != 0 {
				t.Fatalf("info = %d", info)
			}
			lapack.Posv(tcfg(), uplo, n, 2, tri, lda, bt, n)
			if !diff.Same(bf, bt) {
				t.Fatalf("n=%d %v: the unreferenced triangle changed the solution", n, uplo)
			}
			for j := 0; j < n; j++ {
				for i := 0; i < lda; i++ {
					stored := i < n && (uplo == lapack.Upper && i <= j || uplo == lapack.Lower && i >= j)
					if stored && tri[i+j*lda] != full[i+j*lda] {
						t.Fatalf("n=%d %v: the unreferenced triangle changed factor entry (%d,%d)", n, uplo, i, j)
					}
					if !stored && tri[i+j*lda] == tri[i+j*lda] {
						t.Fatalf("n=%d %v: canary (%d,%d) was overwritten with %v", n, uplo, i, j, tri[i+j*lda])
					}
				}
			}
		}
	}
}

// TestCholeskyQuickReturns: n = 0 and nrhs = 0 touch nothing (nil operands
// must do), n = 1 is a square root and two divisions.
func TestCholeskyQuickReturns(t *testing.T) {
	for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
		if info := lapack.Potrf[float64](tcfg(), uplo, 0, nil, 1); info != 0 {
			t.Fatalf("n=0: info = %d", info)
		}
		lapack.Potrs[float64](tcfg(), uplo, 0, 3, nil, 1, nil, 1)
		if info := lapack.Posv[float64](tcfg(), uplo, 0, 2, nil, 1, nil, 1); info != 0 {
			t.Fatalf("n=0: info = %d", info)
		}
		a := []float64{4, math.NaN(), math.NaN()}
		lapack.Potrs(tcfg(), uplo, 1, 0, a, 3, nil, 1)
		b := []float64{6, math.NaN()}
		if info := lapack.Posv(tcfg(), uplo, 1, 1, a, 3, b, 2); info != 0 || a[0] != 2 || b[0] != 1.5 {
			t.Fatalf("n=1: info=%d a=%v b=%v", info, a, b)
		}
		if a[1] == a[1] || a[2] == a[2] || b[1] == b[1] {
			t.Fatalf("n=1 wrote past its operands: a=%v b=%v", a, b)
		}
		a[0] = -1
		if info := lapack.Potrf(tcfg(), uplo, 1, a, 3); info != 1 || a[0] != -1 {
			t.Fatalf("n=1, a = -1: info=%d a=%v", info, a)
		}
	}
}
