package la_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/la"
)

// newSPD returns an n×n diagonally dominant (hence SPD) matrix.
func newSPD(n int) *la.Matrix[float64] {
	a := la.NewMatrix[float64](n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			v := 1.0 / float64(1+((i+j)%17))
			if i == j {
				v += float64(n)
			}
			a.Set(i, j, v)
		}
	}
	return a
}

func newRHS(n, nrhs int) *la.Matrix[float64] {
	b := la.NewMatrix[float64](n, nrhs)
	for j := 0; j < nrhs; j++ {
		for i := 0; i < n; i++ {
			b.Set(i, j, float64((i+j)%5)+1)
		}
	}
	return b
}

// TestWorkerPanicContained is the headline fault-containment test: with the
// parallel engine active and a worker-goroutine panic armed, LA_GESV must
// return a *la.Error with the out-of-band InfoPanic code — on the calling
// goroutine, with the worker's stack attached, and with the process (this
// test binary) surviving. A follow-up un-armed solve proves the runtime is
// left fully usable.
func TestWorkerPanicContained(t *testing.T) {
	defer blas.SetThreads(blas.SetThreads(4))
	defer faultinject.Reset()

	// n must be large enough that LU's trailing-update GEMM exceeds the
	// parallel engine's volume threshold with several macro-tiles.
	const n = 640
	a := newSPD(n)
	b := newRHS(n, 2)

	faultinject.ArmWorkerPanics(1)
	_, err := la.GESV(a, b)
	if err == nil {
		t.Fatal("armed worker panic did not surface as an error")
	}
	var e *la.Error
	if !errors.As(err, &e) {
		t.Fatalf("got %T (%v), want *la.Error", err, err)
	}
	if e.Info != la.InfoPanic {
		t.Fatalf("Info = %d, want InfoPanic (%d)", e.Info, la.InfoPanic)
	}
	if e.Routine != "LA_GESV" {
		t.Fatalf("Routine = %q, want LA_GESV", e.Routine)
	}
	if len(e.Stack) == 0 {
		t.Fatal("contained fault lost the worker stack")
	}
	if !strings.Contains(e.Error(), "internal fault contained") {
		t.Fatalf("Error() = %q, want the fault-containment message", e.Error())
	}
	if !strings.Contains(e.Detail, faultinject.PanicMessage) {
		t.Fatalf("Detail = %q does not identify the injected panic", e.Detail)
	}

	// The engine, worker pool, and scratch caches must be intact.
	faultinject.Reset()
	a2 := newSPD(n)
	b2 := newRHS(n, 2)
	if _, err := la.GESV(a2, b2); err != nil {
		t.Fatalf("post-fault GESV failed: %v", err)
	}
	for i := 0; i < n; i++ {
		if math.IsNaN(b2.At(i, 0)) {
			t.Fatal("post-fault solution contains NaN")
		}
	}
}

// TestWorkerPanicContainedSyev arms a worker panic inside the blocked
// tridiagonal reduction: at n = 1024 the Latrd panel's trailing rank-2k
// update runs on the parallel engine, so the injected fault fires on a
// worker goroutine deep under LA_SYEV. It must surface as a *la.Error with
// InfoPanic on the caller, the process must survive, and a follow-up
// un-armed eigensolve must succeed.
func TestWorkerPanicContainedSyev(t *testing.T) {
	defer blas.SetThreads(blas.SetThreads(4))
	defer faultinject.Reset()

	const n = 1024
	a := newSPD(n)

	faultinject.ArmWorkerPanics(1)
	_, err := la.SYEV(a)
	if err == nil {
		t.Fatal("armed worker panic did not surface as an error")
	}
	var e *la.Error
	if !errors.As(err, &e) {
		t.Fatalf("got %T (%v), want *la.Error", err, err)
	}
	if e.Info != la.InfoPanic {
		t.Fatalf("Info = %d, want InfoPanic (%d)", e.Info, la.InfoPanic)
	}
	if e.Routine != "LA_SYEV" {
		t.Fatalf("Routine = %q, want LA_SYEV", e.Routine)
	}
	if len(e.Stack) == 0 {
		t.Fatal("contained fault lost the worker stack")
	}

	faultinject.Reset()
	a2 := newSPD(n)
	w, err := la.SYEV(a2)
	if err != nil {
		t.Fatalf("post-fault SYEV failed: %v", err)
	}
	for i, v := range w {
		if math.IsNaN(v) {
			t.Fatalf("post-fault eigenvalue %d is NaN", i)
		}
	}
}

// TestWorkerPanicThroughMust checks the paper's no-INFO path: Must on a
// contained fault terminates with the ERINFO message, and the panic is an
// ordinary caller-frame panic the test can recover — the process survives
// wherever the caller chooses to recover.
func TestWorkerPanicThroughMust(t *testing.T) {
	defer blas.SetThreads(blas.SetThreads(4))
	defer faultinject.Reset()

	const n = 640
	a := newSPD(n)
	b := newRHS(n, 1)

	faultinject.ArmWorkerPanics(1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Must did not terminate on the contained fault")
		}
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "Terminated in LAPACK90 subroutine:") {
			t.Fatalf("Must panic = %v, want the ERINFO termination message", r)
		}
		if !strings.Contains(msg, "LA_GESV") {
			t.Fatalf("termination message %q does not name the routine", msg)
		}
	}()
	la.Must1(la.GESV(a, b))
}

// nanDriverCalls builds one WithCheck call per linear-system driver with a
// NaN planted in its matrix argument, returning the routine name, expected
// ERINFO argument index, and the call.
func nanDriverCalls(bad float64) []struct {
	name string
	arg  int
	call func() error
} {
	const n = 4
	nanMat := func(rows, cols int) *la.Matrix[float64] {
		m := la.NewMatrix[float64](rows, cols)
		for j := 0; j < cols; j++ {
			for i := 0; i < rows; i++ {
				m.Set(i, j, 1)
			}
		}
		m.Set(rows/2, cols/2, bad)
		return m
	}
	spd := func() *la.Matrix[float64] { return newSPD(n) }
	rhs := func() *la.Matrix[float64] { return newRHS(n, 1) }
	packedLen := n * (n + 1) / 2
	nanPacked := func() []float64 {
		ap := make([]float64, packedLen)
		for i := range ap {
			ap[i] = 1
		}
		// Keep the packed diagonal dominant so only the planted NaN is at
		// fault, then poison one entry.
		ap[packedLen/2] = bad
		return ap
	}
	vec := func(k int) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = 1
		}
		return v
	}

	return []struct {
		name string
		arg  int
		call func() error
	}{
		{"GESV", 1, func() error { _, err := la.GESV(nanMat(n, n), rhs(), la.WithCheck()); return err }},
		{"GESV1", 1, func() error { _, err := la.GESV1(nanMat(n, n), vec(n), la.WithCheck()); return err }},
		{"GBSV", 2, func() error {
			ab := la.NewMatrix[float64](4, n) // kl=1, ku=1 band storage
			for j := 0; j < n; j++ {
				for i := 0; i < 4; i++ {
					ab.Set(i, j, 1)
				}
			}
			b := nanMat(n, 1)
			_, err := la.GBSV(ab, b, la.WithKL(1), la.WithCheck())
			return err
		}},
		{"GTSV", 2, func() error {
			d := vec(n)
			d[1] = bad
			return la.GTSV(vec(n-1), d, vec(n-1), rhs(), la.WithCheck())
		}},
		{"POSV", 1, func() error {
			a := spd()
			a.Set(1, 1, bad)
			return la.POSV(a, rhs(), la.WithCheck())
		}},
		{"PPSV", 1, func() error { return la.PPSV(nanPacked(), rhs(), la.WithCheck()) }},
		{"PBSV", 2, func() error {
			ab := la.NewMatrix[float64](2, n) // kd=1 symmetric band storage
			for j := 0; j < n; j++ {
				ab.Set(0, j, float64(n))
				ab.Set(1, j, 1)
			}
			return la.PBSV(ab, nanMat(n, 1), la.WithCheck())
		}},
		{"PTSV", 1, func() error {
			d := vec(n)
			d[2] = bad
			return la.PTSV(d, vec(n-1), rhs(), la.WithCheck())
		}},
		{"SYSV", 1, func() error { _, err := la.SYSV(nanMat(n, n), rhs(), la.WithCheck()); return err }},
		{"HESV", 1, func() error { _, err := la.HESV(nanMat(n, n), rhs(), la.WithCheck()); return err }},
		{"SPSV", 1, func() error { _, err := la.SPSV(nanPacked(), rhs(), la.WithCheck()); return err }},
		{"HPSV", 1, func() error { _, err := la.HPSV(nanPacked(), rhs(), la.WithCheck()); return err }},
		{"GELS", 1, func() error { return la.GELS(nanMat(n, n), rhs(), la.WithCheck()) }},
	}
}

// TestCheckModeScreensNonFinite: with check mode on, a NaN or Inf anywhere
// in the input of every linear-system driver returns the defined ERINFO
// argument error — negative INFO naming the poisoned argument, with a
// non-finite detail message — in bounded time (the screen runs before any
// factorization).
func TestCheckModeScreensNonFinite(t *testing.T) {
	for _, bad := range []struct {
		label string
		v     float64
	}{{"NaN", math.NaN()}, {"+Inf", math.Inf(1)}, {"-Inf", math.Inf(-1)}} {
		for _, c := range nanDriverCalls(bad.v) {
			t.Run(c.name+"/"+bad.label, func(t *testing.T) {
				err := c.call()
				var e *la.Error
				if !errors.As(err, &e) {
					t.Fatalf("got %T (%v), want *la.Error", err, err)
				}
				if e.Info != -c.arg {
					t.Fatalf("Info = %d, want %d", e.Info, -c.arg)
				}
				if !strings.Contains(e.Detail, "non-finite") {
					t.Fatalf("Detail = %q, want a non-finite diagnosis", e.Detail)
				}
			})
		}
	}
}

// TestCheckModeAcceptsFiniteInput makes sure screening never rejects an
// ordinary well-posed solve.
func TestCheckModeAcceptsFiniteInput(t *testing.T) {
	a := newSPD(8)
	b := newRHS(8, 2)
	if _, err := la.GESV(a, b, la.WithCheck()); err != nil {
		t.Fatalf("WithCheck rejected a finite system: %v", err)
	}
}

// eigOperand is one input of a symmetric eigenproblem wrapper in the storage
// format its kind names: 'S' a dense n×n matrix, 'B' symmetric band storage
// with two off-diagonals, 'P' a packed triangle, 'D' and 'E' the diagonal and
// off-diagonal of a tridiagonal matrix. Every one holds the entries of the
// same diagonally dominant (positive definite) matrix, so the clean problem
// is well posed as A and as B.
type eigOperand struct {
	mat *la.Matrix[float64] // 'S', 'B'
	vec []float64           // 'P', 'D', 'E'
}

func (x eigOperand) data() []float64 {
	if x.mat != nil {
		return x.mat.Data
	}
	return x.vec
}

func newEigOperand(kind byte, n int) eigOperand {
	const kd = 2
	at := func(i, j int) float64 {
		if i == j {
			return float64(n)
		}
		return 1 / float64(1+j-i)
	}
	switch kind {
	case 'S':
		a := la.NewMatrix[float64](n, n)
		for j := 0; j < n; j++ {
			for i := 0; i <= j; i++ {
				a.Set(i, j, at(i, j))
				a.Set(j, i, at(i, j))
			}
		}
		return eigOperand{mat: a}
	case 'B':
		ab := la.NewMatrix[float64](kd+1, n)
		for j := 0; j < n; j++ {
			for i := max(0, j-kd); i <= j; i++ {
				ab.Set(kd+i-j, j, at(i, j))
			}
		}
		return eigOperand{mat: ab}
	case 'P':
		var ap []float64
		for j := 0; j < n; j++ {
			for i := 0; i <= j; i++ {
				ap = append(ap, at(i, j))
			}
		}
		return eigOperand{vec: ap}
	case 'D':
		v := make([]float64, n)
		for i := range v {
			v[i] = at(i, i)
		}
		return eigOperand{vec: v}
	}
	v := make([]float64, n-1)
	for i := range v {
		v[i] = at(i, i+1)
	}
	return eigOperand{vec: v}
}

func err2[A any](_ A, err error) error         { return err }
func err3[A, B any](_ A, _ B, err error) error { return err }

// TestWithCheckSymmetricEigen: every wrapper of la/eig.go, the Hermitian
// names included, screens every argument under WithCheck — a NaN or +Inf at
// the first, an interior or the last position of argument i is the ERINFO
// argument error INFO = −i of the wrapper's routine, returned before any
// work (the inputs keep their bits) — and accepts the clean problem.
func TestWithCheckSymmetricEigen(t *testing.T) {
	type operands = []eigOperand
	chk := la.WithCheck()
	cases := []checkCase{
		{"SYEV", "LA_SYEV", "S", func(x operands) error { return err2(la.SYEV(x[0].mat, chk)) }},
		{"HEEV", "LA_SYEV", "S", func(x operands) error { return err2(la.HEEV(x[0].mat, chk)) }},
		{"SYEVD", "LA_SYEVD", "S", func(x operands) error { return err2(la.SYEVD(x[0].mat, chk)) }},
		{"HEEVD", "LA_SYEVD", "S", func(x operands) error { return err2(la.HEEVD(x[0].mat, chk)) }},
		{"SYEVX", "LA_SYEVX", "S", func(x operands) error { return err2(la.SYEVX(x[0].mat, chk)) }},
		{"HEEVX", "LA_SYEVX", "S", func(x operands) error { return err2(la.HEEVX(x[0].mat, chk)) }},
		{"SPEV", "LA_SPEV", "P", func(x operands) error { return err3(la.SPEV(x[0].vec, chk)) }},
		{"HPEV", "LA_SPEV", "P", func(x operands) error { return err3(la.HPEV(x[0].vec, chk)) }},
		{"SPEVD", "LA_SPEVD", "P", func(x operands) error { return err3(la.SPEVD(x[0].vec, chk)) }},
		{"HPEVD", "LA_SPEVD", "P", func(x operands) error { return err3(la.HPEVD(x[0].vec, chk)) }},
		{"SPEVX", "LA_SPEVX", "P", func(x operands) error { return err2(la.SPEVX(x[0].vec, chk)) }},
		{"HPEVX", "LA_SPEVX", "P", func(x operands) error { return err2(la.HPEVX(x[0].vec, chk)) }},
		{"SBEV", "LA_SBEV", "B", func(x operands) error { return err3(la.SBEV(x[0].mat, chk)) }},
		{"HBEV", "LA_SBEV", "B", func(x operands) error { return err3(la.HBEV(x[0].mat, chk)) }},
		{"SBEVD", "LA_SBEVD", "B", func(x operands) error { return err3(la.SBEVD(x[0].mat, chk)) }},
		{"HBEVD", "LA_SBEVD", "B", func(x operands) error { return err3(la.HBEVD(x[0].mat, chk)) }},
		{"SBEVX", "LA_SBEVX", "B", func(x operands) error { return err2(la.SBEVX(x[0].mat, chk)) }},
		{"HBEVX", "LA_SBEVX", "B", func(x operands) error { return err2(la.HBEVX(x[0].mat, chk)) }},
		{"STEV", "LA_STEV", "DE", func(x operands) error { return err2(la.STEV[float64](x[0].vec, x[1].vec, chk)) }},
		{"STEVD", "LA_STEVD", "DE", func(x operands) error { return err2(la.STEVD[float64](x[0].vec, x[1].vec, chk)) }},
		{"STEVX", "LA_STEVX", "DE", func(x operands) error { return err2(la.STEVX[float64](x[0].vec, x[1].vec, chk)) }},
		{"SYGV", "LA_SYGV", "SS", func(x operands) error { return err2(la.SYGV(x[0].mat, x[1].mat, chk)) }},
		{"HEGV", "LA_SYGV", "SS", func(x operands) error { return err2(la.HEGV(x[0].mat, x[1].mat, chk)) }},
		{"SPGV", "LA_SPGV", "PP", func(x operands) error { return err3(la.SPGV(x[0].vec, x[1].vec, chk)) }},
		{"HPGV", "LA_SPGV", "PP", func(x operands) error { return err3(la.HPGV(x[0].vec, x[1].vec, chk)) }},
		{"SBGV", "LA_SBGV", "BB", func(x operands) error { return err3(la.SBGV(x[0].mat, x[1].mat, chk)) }},
		{"HBGV", "LA_SBGV", "BB", func(x operands) error { return err3(la.HBGV(x[0].mat, x[1].mat, chk)) }},
	}
	screensEveryArgument(t, cases)
}

// TestWithCheckNonsymmetric is TestWithCheckSymmetricEigen for the wrappers
// of la/nonsym.go and la/gen.go.
func TestWithCheckNonsymmetric(t *testing.T) {
	chk := la.WithCheck()
	err4 := func(_, _, _ any, err error) error { return err }
	screensEveryArgument(t, []checkCase{
		{"GEES", "LA_GEES", "S", func(x []eigOperand) error { return err4(la.GEES(x[0].mat, chk)) }},
		{"GEEV", "LA_GEEV", "S", func(x []eigOperand) error { return err4(la.GEEV(x[0].mat, chk)) }},
		{"GEESX", "LA_GEESX", "S", func(x []eigOperand) error { return err2(la.GEESX(x[0].mat, chk)) }},
		{"GEEVX", "LA_GEEVX", "S", func(x []eigOperand) error { return err2(la.GEEVX(x[0].mat, chk)) }},
		{"GEGS", "LA_GEGS", "SS", func(x []eigOperand) error { return err4(la.GEGS(x[0].mat, x[1].mat, chk)) }},
		{"GEGV", "LA_GEGV", "SS", func(x []eigOperand) error { return err4(la.GEGV(x[0].mat, x[1].mat, chk)) }},
		{"GGSVD", "LA_GGSVD", "SS", func(x []eigOperand) error { return err2(la.GGSVD(x[0].mat, x[1].mat, chk)) }},
	})
}

// checkCase is one wrapper of a WithCheck table: its routine name, the kinds
// of its operands (see newEigOperand) and the call.
type checkCase struct {
	name, routine, kinds string
	call                 func(x []eigOperand) error
}

// screensEveryArgument runs each case on the clean problem and then with a
// NaN or +Inf at the first, an interior and the last position of each
// argument: every one must be the ERINFO argument error of that argument,
// with every input untouched.
func screensEveryArgument(t *testing.T, cases []checkCase) {
	type operands = []eigOperand
	const n = 5
	build := func(kinds string) operands {
		x := make(operands, len(kinds))
		for i := range x {
			x[i] = newEigOperand(kinds[i], n)
		}
		return x
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.call(build(c.kinds)); err != nil {
				t.Fatalf("clean input rejected: %v", err)
			}
			for arg, operand := range build(c.kinds) {
				last := len(operand.data()) - 1
				for _, bad := range []float64{math.NaN(), math.Inf(1)} {
					for _, pos := range []int{0, last / 2, last} {
						x := build(c.kinds)
						x[arg].data()[pos] = bad
						before := make([][]float64, len(x))
						for i := range x {
							before[i] = append([]float64(nil), x[i].data()...)
						}
						err := c.call(x)
						var e *la.Error
						if !errors.As(err, &e) || e.Routine != c.routine || e.Info != -(arg+1) || !strings.Contains(e.Detail, "non-finite") {
							t.Fatalf("%v in argument %d at %d: got %v, want %s INFO = %d (non-finite)", bad, arg+1, pos, err, c.routine, -(arg + 1))
						}
						for i := range x {
							for k, v := range x[i].data() {
								if math.Float64bits(v) != math.Float64bits(before[i][k]) {
									t.Fatalf("%v in argument %d at %d: argument %d was written at %d", bad, arg+1, pos, i+1, k)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestSetCheckInputs verifies the process-wide default (what
// LA90_CHECK_INPUTS sets at startup): with it on, a plain call (no WithCheck
// option) screens inputs; with it off again, screening is off.
func TestSetCheckInputs(t *testing.T) {
	setCheck := func(on bool) { core.UpdateDefault(func(c *core.Config) { c.CheckInputs = on }) }
	defer core.ResetDefault(*core.Default())
	setCheck(true)

	a := newSPD(4)
	a.Set(2, 2, math.NaN())
	_, err := la.GESV(a, newRHS(4, 1))
	var e *la.Error
	if !errors.As(err, &e) || e.Info != -1 {
		t.Fatalf("global check mode did not screen: err = %v", err)
	}

	setCheck(false)
	a2 := newSPD(4)
	a2.Set(2, 2, math.NaN())
	if _, err := la.GESV(a2, newRHS(4, 1)); err != nil {
		var e2 *la.Error
		if errors.As(err, &e2) && strings.Contains(e2.Detail, "non-finite") {
			t.Fatal("screening still active with the default off")
		}
	}
}

// TestNewMatrixOverflowContained: NewMatrix with a poisoned shape panics
// with an ERINFO *la.Error when called directly, and inside a driver the
// boundary guard would convert it; both directions keep the process alive.
func TestNewMatrixOverflowContained(t *testing.T) {
	cases := []struct {
		name       string
		rows, cols int
		info       int
	}{
		{"negative rows", -1, 4, -1},
		{"negative cols", 4, -1, -2},
		{"element count overflow", math.MaxInt/2 + 1, 2, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				e, ok := r.(*la.Error)
				if !ok {
					t.Fatalf("recovered %T (%v), want *la.Error", r, r)
				}
				if e.Routine != "LA_MATRIX" || e.Info != c.info {
					t.Fatalf("got %v, want LA_MATRIX INFO=%d", e, c.info)
				}
			}()
			la.NewMatrix[float64](c.rows, c.cols)
			t.Fatal("NewMatrix accepted a poisoned shape")
		})
	}
}
