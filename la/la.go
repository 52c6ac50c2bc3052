// Package la is the LAPACK90 interface layer: a generic, shape-inferring,
// workspace-managing front end over the LAPACK computational core, the Go
// translation of the F90_LAPACK module described in
//
//	J. Waśniewski and J. Dongarra, "High Performance Linear Algebra
//	Package LAPACK90", IPPS 1998.
//
// As in the paper, "no distinction is made between single and double
// precision or between real and complex data types": every routine is
// generic over float32, float64, complex64 and complex128, covering
// LAPACK's S/D/C/Z variants with a single exported name. Dimensions are
// inferred from the array arguments (the paper's assumed-shape arrays),
// workspace is allocated internally, and argument errors are reported with
// the LAPACK90 convention (INFO = -i identifies the i-th argument).
//
// # Naming and shapes
//
// Routines keep their LAPACK driver names: GESV solves a general linear
// system, POSV a positive definite one, SYEV a symmetric eigenproblem, and
// so on — the paper's LA_GESV becomes la.GESV. Where the paper's generic
// interface dispatches on the rank of B (matrix right-hand side B(:,:)
// versus vector B(:), resolved to SGESV_F90 versus SGESV1_F90), this
// package provides an explicit pair: GESV takes a *Matrix right-hand side
// and GESV1 a vector.
//
// # Optional arguments
//
// The paper's optional output arguments (IPIV, RCOND, FERR, ...) are
// always computed and returned as ordinary Go results. Optional input
// arguments (UPLO, TRANS, ITYPE, JOBZ, ...) become variadic options:
//
//	w, err := la.SYEV(a, la.WithVectors(), la.WithUpLo(la.Lower))
//
// # Error handling
//
// Every routine returns an error implementing the ERINFO protocol of the
// paper's LA_AUXMOD module: a *la.Error carrying the routine name and the
// LAPACK INFO code. The paper's "if INFO is not present the program stops"
// behaviour is available through Must / Must1 / Must2, which panic with
// the ERINFO message:
//
//	ipiv := la.Must1(la.GESV(a, b))
package la

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/lapack"
)

// Scalar is the element-type constraint: float32 | float64 | complex64 |
// complex128, the four LAPACK type families.
type Scalar = interface {
	float32 | float64 | complex64 | complex128
}

// Matrix is a dense column-major matrix: element (i, j) lives at
// Data[i + j*Stride]. This is exactly the FORTRAN storage convention, so
// the interface layer can hand the data to the computational core without
// copies.
type Matrix[T Scalar] struct {
	Rows, Cols int
	Stride     int // leading dimension, >= max(1, Rows)
	Data       []T
}

// NewMatrix allocates a zero rows×cols matrix. A negative dimension or a
// rows×cols element count that does not fit in int panics with an
// ERINFO-style *Error (routine "LA_MATRIX"): when the allocation happens
// inside a driver the API-boundary guard converts that panic into the
// driver's ordinary error return, so a corrupt size reaches the caller as an
// argument error instead of a runtime allocation fault.
func NewMatrix[T Scalar](rows, cols int) *Matrix[T] {
	if err := checkAlloc("LA_MATRIX", rows, cols); err != nil {
		panic(err)
	}
	return &Matrix[T]{
		Rows:   rows,
		Cols:   cols,
		Stride: max(1, rows),
		Data:   make([]T, max(1, rows)*cols),
	}
}

// vecOut allocates the rows×cols matrix of an optional vector output (Z, U,
// Vᴴ) and returns it with the data and leading dimension the computational
// routine takes; when the vectors are not wanted these are nil, nil and 1.
func vecOut[T Scalar](want bool, rows, cols int) (z *Matrix[T], data []T, ld int) {
	if !want {
		return nil, nil, 1
	}
	z = NewMatrix[T](rows, cols)
	return z, z.Data, z.Stride
}

// checkAlloc validates an allocation shape: both extents non-negative and
// the element count max(1, rows)·cols representable in int.
func checkAlloc(routine string, rows, cols int) *Error {
	if rows < 0 {
		return &Error{Routine: routine, Info: -1, Detail: "negative row dimension"}
	}
	if cols < 0 {
		return &Error{Routine: routine, Info: -2, Detail: "negative column dimension"}
	}
	if rows > 0 && cols > math.MaxInt/rows {
		return &Error{Routine: routine, Info: -1,
			Detail: fmt.Sprintf("%d x %d elements overflow the address space", rows, cols)}
	}
	return nil
}

// workSize multiplies workspace extents (an lwork computation such as n·nb),
// panicking with an ERINFO-style *Error on int overflow so the API-boundary
// guard reports a contained argument error rather than allocating garbage.
func workSize(routine string, a, b int) int {
	if a < 0 || b < 0 || (a > 0 && b > math.MaxInt/a) {
		panic(&Error{Routine: routine, Info: InfoPanic,
			Detail: fmt.Sprintf("workspace size %d x %d overflows", a, b)})
	}
	return a * b
}

// MatrixFrom builds a rows×cols matrix from a row-major [][]T literal,
// which reads naturally in source code.
func MatrixFrom[T Scalar](rows [][]T) *Matrix[T] {
	r := len(rows)
	c := 0
	if r > 0 {
		c = len(rows[0])
	}
	m := NewMatrix[T](r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("la: ragged rows in MatrixFrom")
		}
		for j, v := range row {
			m.Set(i, j, v)
		}
	}
	return m
}

// At returns element (i, j).
func (m *Matrix[T]) At(i, j int) T { return m.Data[i+j*m.Stride] }

// Set assigns element (i, j).
func (m *Matrix[T]) Set(i, j int, v T) { m.Data[i+j*m.Stride] = v }

// Clone returns a deep copy.
func (m *Matrix[T]) Clone() *Matrix[T] {
	c := NewMatrix[T](m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		copy(c.Data[j*c.Stride:j*c.Stride+m.Rows], m.Data[j*m.Stride:j*m.Stride+m.Rows])
	}
	return c
}

// Col returns column j as a slice sharing the matrix storage.
func (m *Matrix[T]) Col(j int) []T { return m.Data[j*m.Stride : j*m.Stride+m.Rows] }

// Error is the LAPACK90 error report (the ERINFO protocol): Routine names
// the interface routine (e.g. "LA_GESV"); Info carries the LAPACK INFO
// code, negative for the index of an invalid argument, positive for a
// numerical failure described by Detail. Errors produced by the panic
// recovery guard at the API boundary carry the out-of-band Info value
// InfoPanic and, when the fault was captured on a worker goroutine, the
// worker's stack trace in Stack.
//
// Diag classifies the failure beyond the raw INFO code (see Diagnosis);
// when the diagnosis came from a condition estimate, RCond carries the
// estimate and Equed which equilibration the driver had applied, so a
// caller deciding whether to trust or reject a solution has the whole
// conditioning story in the error value. errors.Is matches the sentinel
// for the diagnosis: errors.Is(err, la.ErrSingularToWorkingPrecision).
type Error struct {
	Routine string
	Info    int
	Detail  string
	Diag    Diagnosis // classified failure cause (DiagNone when unclassified)
	RCond   float64   // reciprocal condition estimate, when Diag derives from one
	Equed   byte      // equilibration applied before the diagnosis ('N' if none, 0 if n/a)
	Stack   []byte    // worker stack for faults recovered from the parallel engine
	Err     error     // underlying cause, when one exists (ctx.Err() for canceled calls)
}

// Diagnosis classifies a driver's numerical failure so callers can branch
// on the cause without decoding routine-specific INFO conventions. The
// taxonomy (documented in DESIGN.md §6) spans every solver family:
type Diagnosis int

const (
	// DiagNone: no classification — argument errors and routines that
	// predate the taxonomy report the raw INFO code only.
	DiagNone Diagnosis = iota
	// DiagSingular: a factor is exactly singular (U(i,i) = 0, D(i,i) = 0);
	// no solution was computed.
	DiagSingular
	// DiagSingularToWorkingPrecision: the factorization succeeded but the
	// condition estimate landed below machine epsilon — the matrix is
	// singular to working precision, and the computed solution and error
	// bounds (which are still returned) may be meaningless. RCond holds
	// the estimate.
	DiagSingularToWorkingPrecision
	// DiagNotPositiveDefinite: a Cholesky-family driver found a leading
	// minor that is not positive definite.
	DiagNotPositiveDefinite
	// DiagNotConverged: an iterative eigen/SVD/Schur computation exceeded
	// its iteration budget.
	DiagNotConverged
	// DiagContainedFault: the error is a panic contained at the API
	// boundary (Info == InfoPanic), not a numerical report.
	DiagContainedFault
	// DiagCanceled: the call's context (WithContext) was canceled and the
	// computation unwound at a cooperative checkpoint; no result was
	// delivered. Err carries ctx.Err(), so errors.Is reaches
	// context.Canceled / context.DeadlineExceeded.
	DiagCanceled
)

// String names the diagnosis for logs and error text.
func (d Diagnosis) String() string {
	switch d {
	case DiagSingular:
		return "singular"
	case DiagSingularToWorkingPrecision:
		return "singular to working precision"
	case DiagNotPositiveDefinite:
		return "not positive definite"
	case DiagNotConverged:
		return "did not converge"
	case DiagContainedFault:
		return "contained fault"
	case DiagCanceled:
		return "canceled"
	}
	return "unclassified"
}

// Sentinel errors for errors.Is matching against an *Error's diagnosis.
var (
	ErrSingular                   = errors.New("la: matrix is exactly singular")
	ErrSingularToWorkingPrecision = errors.New("la: matrix is singular to working precision")
	ErrNotPositiveDefinite        = errors.New("la: matrix is not positive definite")
	ErrNotConverged               = errors.New("la: iteration did not converge")
	ErrContainedFault             = errors.New("la: internal fault contained")
	ErrCanceled                   = errors.New("la: call canceled")
)

// Is reports whether target is the sentinel for this error's diagnosis,
// enabling errors.Is(err, la.ErrSingularToWorkingPrecision) and friends.
func (e *Error) Is(target error) bool {
	switch target {
	case ErrSingular:
		return e.Diag == DiagSingular
	case ErrSingularToWorkingPrecision:
		return e.Diag == DiagSingularToWorkingPrecision
	case ErrNotPositiveDefinite:
		return e.Diag == DiagNotPositiveDefinite
	case ErrNotConverged:
		return e.Diag == DiagNotConverged
	case ErrContainedFault:
		return e.Diag == DiagContainedFault || e.Info == InfoPanic
	case ErrCanceled:
		return e.Diag == DiagCanceled
	}
	return false
}

// Unwrap exposes the underlying cause, letting errors.Is walk past the
// ERINFO report to, e.g., context.Canceled for a call canceled through
// WithContext.
func (e *Error) Unwrap() error { return e.Err }

// InfoPanic is the out-of-band INFO value reported when a driver's error was
// recovered from an internal panic rather than produced by the ERINFO
// protocol. It is far outside the range of legitimate INFO codes (argument
// indices and matrix dimensions), so callers can reliably distinguish a
// contained fault from a numerical failure.
const InfoPanic = -1 << 30

// InfoCanceled is the out-of-band INFO value reported when a driver was
// canceled through its WithContext context rather than completing. Like
// InfoPanic it is far outside the range of legitimate INFO codes.
const InfoCanceled = InfoPanic + 1

func (e *Error) Error() string {
	if e.Info == InfoCanceled {
		return fmt.Sprintf("%s: %s (INFO = %d)", e.Routine, e.Detail, e.Info)
	}
	if e.Info == InfoPanic {
		return fmt.Sprintf("%s: internal fault contained: %s (INFO = %d)", e.Routine, e.Detail, e.Info)
	}
	if e.Info < 0 {
		if e.Detail != "" {
			return fmt.Sprintf("%s: argument %d had an illegal value: %s (INFO = %d)", e.Routine, -e.Info, e.Detail, e.Info)
		}
		return fmt.Sprintf("%s: argument %d had an illegal value (INFO = %d)", e.Routine, -e.Info, e.Info)
	}
	if e.Detail != "" {
		return fmt.Sprintf("%s: %s (INFO = %d)", e.Routine, e.Detail, e.Info)
	}
	return fmt.Sprintf("%s: numerical failure (INFO = %d)", e.Routine, e.Info)
}

// erinfo builds the error return for a routine; nil when info == 0.
func erinfo(routine string, info int, detail string) error {
	if info == 0 {
		return nil
	}
	return &Error{Routine: routine, Info: info, Detail: detail}
}

// erdiag is erinfo with a diagnosis classifying the failure; diag is only
// attached to positive (numerical) INFO codes.
func erdiag(routine string, info int, detail string, diag Diagnosis) error {
	if info == 0 {
		return nil
	}
	e := &Error{Routine: routine, Info: info, Detail: detail}
	if info > 0 {
		e.Diag = diag
	}
	return e
}

// erexpert builds the error return of an n×n expert driver: INFO = n+1 is
// the singular-to-working-precision diagnosis carrying the rcond estimate
// and the applied equilibration; 0 < INFO ≤ n is the hard factorization
// failure described by singDetail/singDiag.
func erexpert(routine string, info, n int, rcond float64, equed byte, singDetail string, singDiag Diagnosis) error {
	if info == 0 {
		return nil
	}
	if info == n+1 {
		return &Error{
			Routine: routine,
			Info:    info,
			Detail: fmt.Sprintf("matrix is singular to working precision (RCOND = %.3e below machine epsilon)",
				rcond),
			Diag:  DiagSingularToWorkingPrecision,
			RCond: rcond,
			Equed: equed,
		}
	}
	return erdiag(routine, info, singDetail, singDiag)
}

// Must panics with the paper's termination message when err is non-nil —
// the behaviour of a LAPACK90 call without the optional INFO argument.
func Must(err error) {
	if err != nil {
		panic(fmt.Sprintf("Terminated in LAPACK90 subroutine: %v", err))
	}
}

// Must1 returns its first argument, panicking ERINFO-style on error.
func Must1[A any](a A, err error) A {
	Must(err)
	return a
}

// Must2 returns its first two arguments, panicking ERINFO-style on error.
func Must2[A, B any](a A, b B, err error) (A, B) {
	Must(err)
	return a, b
}

// UpLo selects the stored triangle of a symmetric/Hermitian/triangular
// matrix.
type UpLo = lapack.Uplo

// UpLo values.
const (
	Upper = lapack.Upper
	Lower = lapack.Lower
)

// Op selects the operation applied to a matrix operand, the TRANS
// argument.
type Op = lapack.Trans

// Op values. Trans means transpose; ConjTrans the conjugate transpose
// (identical to Trans for real element types).
const (
	None      = lapack.NoTrans
	Trans     = lapack.TransT
	ConjTrans = lapack.ConjTrans
)

// options collects every optional LAPACK90 argument; each routine reads
// only the fields its LAPACK counterpart documents.
type options struct {
	uplo     UpLo
	trans    Op
	transB   Op // op(B) for the batched GEMM (WithTransB)
	itype    int
	vectors  bool    // JOBZ = 'V'
	norm     byte    // NORM for LA_GETRF/LA_LANGE: 'M','1','I','F'
	rcond    float64 // RCOND threshold for rank decisions
	fact     lapack.Fact
	rng      lapack.EigRange
	vl, vu   float64
	il, iu   int
	abstol   float64
	kl       int // band structure hints (LA_GBSV, LA_LAGGE)
	ku       int
	haveKL   bool
	schurVec bool                      // LA_GEES VS wanted
	left     bool                      // LA_GEEV VL wanted
	right    bool                      // LA_GEEV VR wanted
	sel      func(wr, wi float64) bool // LA_GEES/LA_GEESX SELECT
	job      lapack.SVDJob             // LA_GESVD JOB
	jobU     lapack.SVDJob
	jobVT    lapack.SVDJob
	iseed    [4]int
	haveSeed bool
	check    bool // screen inputs for non-finite values (WithCheck / LA90_CHECK_INPUTS)

	// cfg is the execution context of the call: the process-wide default
	// configuration captured exactly once, here at the API boundary, then
	// refined by WithThreads / WithContext and passed explicitly
	// through every lapack driver into the blas engines. Nothing below the
	// boundary re-reads ambient state, so concurrent calls with different
	// contexts never observe each other.
	cfg *core.Config
}

func defaults() options {
	cfg := core.Default()
	return options{
		cfg:    cfg,
		check:  cfg.CheckInputs,
		uplo:   Upper,
		trans:  None,
		transB: None,
		itype:  1,
		norm:   '1',
		rcond:  -1,
		fact:   lapack.FactNone,
		rng:    lapack.RangeAll,
		il:     1,
		iu:     0, // 0 means "n" at call time
		jobU:   lapack.SVDSome,
		jobVT:  lapack.SVDSome,
	}
}

// iuFor is the IU of an expert eigensolver of order n: WithIndexRange's
// upper index, where 0 stands for n.
func (o *options) iuFor(n int) int {
	if o.rng == lapack.RangeIndex && o.iu == 0 {
		return n
	}
	return o.iu
}

// Opt is a LAPACK90 optional argument.
type Opt func(*options)

// WithUpLo selects the referenced triangle (default Upper), the paper's
// UPLO argument.
func WithUpLo(u UpLo) Opt { return func(o *options) { o.uplo = u } }

// WithTrans selects op(A) (default None), the paper's TRANS argument.
func WithTrans(t Op) Opt { return func(o *options) { o.trans = t } }

// WithTransB selects op(B) (default None) for routines with two transposable
// operands, such as BatchGemm.
func WithTransB(t Op) Opt { return func(o *options) { o.transB = t } }

// WithIType selects the generalized eigenproblem type 1, 2 or 3 (default
// 1), the paper's ITYPE argument.
func WithIType(k int) Opt { return func(o *options) { o.itype = k } }

// WithVectors requests eigenvectors (JOBZ = 'V'); without it only
// eigenvalues are computed.
func WithVectors() Opt { return func(o *options) { o.vectors = true } }

// WithNorm selects the norm for LA_GETRF's condition estimate and
// LA_LANGE: 'M', '1', 'I' or 'F' (default '1').
func WithNorm(n byte) Opt { return func(o *options) { o.norm = n } }

// WithRCond sets the rank-decision threshold of LA_GELSX/LA_GELSS
// (default: machine epsilon).
func WithRCond(r float64) Opt { return func(o *options) { o.rcond = r } }

// WithEquilibration allows an expert driver to equilibrate the system
// (FACT = 'E').
func WithEquilibration() Opt { return func(o *options) { o.fact = lapack.FactEquilibrate } }

// WithValueRange restricts an expert eigensolver to eigenvalues in
// (vl, vu] (RANGE = 'V').
func WithValueRange(vl, vu float64) Opt {
	return func(o *options) { o.rng, o.vl, o.vu = lapack.RangeValue, vl, vu }
}

// WithIndexRange restricts an expert eigensolver to the il-th through
// iu-th smallest eigenvalues, 1-based inclusive (RANGE = 'I').
func WithIndexRange(il, iu int) Opt {
	return func(o *options) { o.rng, o.il, o.iu = lapack.RangeIndex, il, iu }
}

// WithAbsTol sets the bisection convergence tolerance (ABSTOL).
func WithAbsTol(tol float64) Opt { return func(o *options) { o.abstol = tol } }

// WithKL passes the number of sub-diagonals for LA_GBSV, whose band
// storage cannot express it unambiguously (the paper's KL argument), and
// for LA_LAGGE.
func WithKL(kl int) Opt { return func(o *options) { o.kl, o.haveKL = kl, true } }

// WithKU passes the number of super-diagonals for LA_LAGGE.
func WithKU(ku int) Opt { return func(o *options) { o.ku = ku } }

// WithSchurVectors requests the Schur vectors from LA_GEES.
func WithSchurVectors() Opt { return func(o *options) { o.schurVec = true } }

// WithLeft requests left eigenvectors from LA_GEEV.
func WithLeft() Opt { return func(o *options) { o.left = true } }

// WithRight requests right eigenvectors from LA_GEEV.
func WithRight() Opt { return func(o *options) { o.right = true } }

// WithSelect supplies the SELECT function of LA_GEES and LA_GEESX, for
// every element type: the eigenvalues λ with sel(Re λ, Im λ) true are moved
// to the top of the Schur form.
func WithSelect(sel func(wr, wi float64) bool) Opt {
	return func(o *options) { o.sel = sel }
}

// WithSingularVectors controls which singular vectors LA_GESVD computes
// ('A' all, 'S' economy, 'N' none) for U and Vᴴ respectively.
func WithSingularVectors(jobU, jobVT byte) Opt {
	return func(o *options) { o.jobU, o.jobVT = lapack.SVDJob(jobU), lapack.SVDJob(jobVT) }
}

// WithSeed seeds LA_LAGGE's random stream (the paper's ISEED argument).
func WithSeed(iseed [4]int) Opt {
	return func(o *options) { o.iseed, o.haveSeed = iseed, true }
}

func apply(opts []Opt) options {
	o := defaults()
	for _, f := range opts {
		f(&o)
	}
	return o
}

// stored is the stored-matrix rule (core.Stored) on a *Matrix argument: m is
// non-nil and well formed. Every driver checks each of its matrix arguments
// with it before any work, so a malformed one is INFO = -i, never a fault.
func stored[T Scalar](m *Matrix[T]) bool {
	return m != nil && core.Stored(m.Rows, m.Cols, m.Stride, len(m.Data)) == core.Sound
}

// epsFor returns the FORTRAN 90 EPSILON of the element type, used by
// routines with precision-dependent defaults.
func epsFor[T Scalar]() float64 { return core.Eps[T]() }
