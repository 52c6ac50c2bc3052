package la

// Fault containment at the LAPACK90 API boundary.
//
// Two mechanisms live here:
//
//   - guard, deferred by every driver, recovers any panic escaping the
//     computational core — including panics captured on worker goroutines by
//     the parallel engine (see internal/blas.PanicError) — and converts it
//     into the driver's ordinary *Error return, with the out-of-band INFO
//     code InfoPanic. A kernel bug or corrupted input can therefore fail one
//     call, never the process. Must keeps the paper's stop-with-message
//     behaviour for callers that want it.
//
//   - opt-in non-finite input screening. LAPACK's contract says nothing
//     about NaN/Inf input: drivers may return garbage (and before the
//     iteration bounds were audited, could conceivably spin). With screening
//     on — per call via WithCheck, or process-wide via the
//     LA90_CHECK_INPUTS environment variable — each driver scans its matrix
//     arguments with a vectorized finiteness check (core.AllFinite) and
//     fails fast with the ERINFO argument error for the offending argument.

import (
	"fmt"
	"runtime/debug"

	"repro/internal/blas"
	"repro/internal/core"
)

// WithCheck enables non-finite input screening for this call: matrix and
// vector arguments are scanned for NaN/Inf before any computation, and an
// offender produces the ERINFO argument error (INFO = -i with a detail
// message) instead of a garbage result.
func WithCheck() Opt { return func(o *options) { o.check = true } }

// guard is deferred at the top of every driver with the driver's routine
// name and a pointer to its named error result. It converts a panic escaping
// the computational core into a *Error return:
//
//   - a *Error panic (ERINFO-aware code such as NewMatrix sizing) passes
//     through as-is;
//   - a *blas.PanicError (a fault captured on a worker goroutine and
//     re-raised on the caller, or one item of a Batch driver) passes a
//     *Error through and otherwise keeps the worker's stack;
//   - anything else is wrapped with the recovering goroutine's stack.
//
// Panics raised by Must deliberately do not reach guard: Must runs in the
// caller's frame, after the driver (and its deferred guard) has returned.
func guard(routine string, err *error) {
	if r := recover(); r != nil {
		*err = recoveredError(routine, r)
	}
}

// recoveredError converts a recovered panic value into the ERINFO error the
// API reports for it. Shared by guard and by batch, so a fault is described
// identically whether it failed a single call or one item of a batch.
func recoveredError(routine string, r any) *Error {
	switch v := r.(type) {
	case *Error:
		return v
	case *core.CancelError:
		return canceledError(routine, v)
	case *blas.PanicError:
		switch w := v.Value.(type) {
		case *Error:
			return w
		case *core.CancelError:
			// A checkpoint fired on a worker goroutine; the pool has already
			// drained every worker before re-raising, so this is an orderly
			// cancellation, not a contained fault.
			return canceledError(routine, w)
		}
		return &Error{
			Routine: routine,
			Info:    InfoPanic,
			Detail:  fmt.Sprintf("recovered panic on worker goroutine: %v", v.Value),
			Diag:    DiagContainedFault,
			Stack:   v.Stack,
		}
	default:
		return &Error{
			Routine: routine,
			Info:    InfoPanic,
			Detail:  fmt.Sprintf("recovered panic: %v", r),
			Diag:    DiagContainedFault,
			Stack:   debug.Stack(),
		}
	}
}

// finiteMat returns the ERINFO argument error when matrix m (argument index
// arg, named name in the detail message) contains a non-finite value; nil
// otherwise (a nil matrix is vacuously finite — shape validation happens
// separately). Only the live Rows×Cols region is scanned, so stride padding
// can never trigger a false positive.
func finiteMat[T Scalar](routine string, arg int, name string, m *Matrix[T]) error {
	if m == nil {
		return nil
	}
	if m.Stride == max(1, m.Rows) && len(m.Data) >= m.Rows*m.Cols {
		// Contiguous storage: one flat scan instead of a per-column loop.
		if !core.AllFinite(m.Data[:m.Rows*m.Cols]) {
			return nonFinite(routine, arg, name)
		}
		return nil
	}
	for j := 0; j < m.Cols; j++ {
		if !core.AllFinite(m.Col(j)) {
			return nonFinite(routine, arg, name)
		}
	}
	return nil
}

// finiteSlice is finiteMat for vector arguments.
func finiteSlice[T Scalar](routine string, arg int, name string, x []T) error {
	if !core.AllFinite(x) {
		return nonFinite(routine, arg, name)
	}
	return nil
}

// finiteFloats is finiteSlice for the real-valued auxiliary vectors some
// drivers take (e.g. the diagonal of LA_PTSV).
func finiteFloats(routine string, arg int, name string, x []float64) error {
	if !core.AllFinite(x) {
		return nonFinite(routine, arg, name)
	}
	return nil
}

// firstErr returns the first non-nil error among its arguments, letting a
// driver chain one screening call per matrix argument.
func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// canceledError is the ERINFO report for a call that unwound at a
// cancellation checkpoint: Info is the out-of-band InfoCanceled and Err the
// context's ctx.Err(), so errors.Is(err, la.ErrCanceled) and
// errors.Is(err, context.Canceled) both hold.
func canceledError(routine string, ce *core.CancelError) *Error {
	return &Error{
		Routine: routine,
		Info:    InfoCanceled,
		Detail:  fmt.Sprintf("call canceled: %v", ce.Err),
		Diag:    DiagCanceled,
		Err:     ce.Err,
	}
}

func nonFinite(routine string, arg int, name string) error {
	return &Error{Routine: routine, Info: -arg, Detail: name + " contains a non-finite value"}
}

// The argument checks of the drivers, one per storage format, shared by the
// simple driver (LA_xxSV) and the expert one (LA_xxSVX): each matrix argument
// by the stored-matrix rule and its shape, in argument order, then — with
// check — non-finite entries.

// generalArgs checks the general matrix A of a one-matrix driver.
func generalArgs[T Scalar](routine string, check bool, a *Matrix[T]) error {
	if !stored(a) {
		return erinfo(routine, -1, "")
	}
	if check {
		return finiteMat(routine, 1, "A", a)
	}
	return nil
}

// lsArgs checks the m×n A and the max(m, n)-row B of a least squares driver.
func lsArgs[T Scalar](routine string, check bool, a, b *Matrix[T]) error {
	if !stored(a) {
		return erinfo(routine, -1, "")
	}
	if !stored(b) || b.Rows != max(a.Rows, a.Cols) {
		return erinfo(routine, -2, "")
	}
	if check {
		return firstErr(finiteMat(routine, 1, "A", a), finiteMat(routine, 2, "B", b))
	}
	return nil
}

// denseArgs checks the A and B of a dense n×n system.
func denseArgs[T Scalar](routine string, check bool, a, b *Matrix[T]) error {
	if !stored(a) || a.Rows != a.Cols {
		return erinfo(routine, -1, "")
	}
	if !stored(b) || b.Rows != a.Rows {
		return erinfo(routine, -2, "")
	}
	if check {
		return firstErr(finiteMat(routine, 1, "A", a), finiteMat(routine, 2, "B", b))
	}
	return nil
}

// packedArgs checks the AP and B of a packed system and returns its order.
func packedArgs[T Scalar](routine string, check bool, ap []T, b *Matrix[T]) (int, error) {
	n := packedOrder(len(ap))
	if n < 0 {
		return n, erinfo(routine, -1, "")
	}
	if !stored(b) || b.Rows != n {
		return n, erinfo(routine, -2, "")
	}
	if check {
		return n, firstErr(finiteSlice(routine, 1, "AP", ap), finiteMat(routine, 2, "B", b))
	}
	return n, nil
}

// bandArgs checks the AB (symmetric band storage, kd = AB.Rows−1) and B of a
// positive definite band system.
func bandArgs[T Scalar](routine string, check bool, ab, b *Matrix[T]) error {
	if !stored(ab) || ab.Rows < 1 {
		return erinfo(routine, -1, "")
	}
	if !stored(b) || b.Rows != ab.Cols {
		return erinfo(routine, -2, "")
	}
	if check {
		return firstErr(finiteMat(routine, 1, "AB", ab), finiteMat(routine, 2, "B", b))
	}
	return nil
}

// gtArgs checks the DL, D, DU and B of a general tridiagonal system.
func gtArgs[T Scalar](routine string, check bool, dl, d, du []T, b *Matrix[T]) error {
	n := len(d)
	if n > 0 && (len(dl) != n-1 || len(du) != n-1) {
		return erinfo(routine, -1, "")
	}
	if !stored(b) || b.Rows != n {
		return erinfo(routine, -4, "")
	}
	if check {
		return firstErr(
			finiteSlice(routine, 1, "DL", dl),
			finiteSlice(routine, 2, "D", d),
			finiteSlice(routine, 3, "DU", du),
			finiteMat(routine, 4, "B", b),
		)
	}
	return nil
}

// ptArgs checks the D, E and B of a positive definite tridiagonal system.
func ptArgs[T Scalar](routine string, check bool, d []float64, e []T, b *Matrix[T]) error {
	n := len(d)
	if n > 0 && len(e) != n-1 {
		return erinfo(routine, -2, "")
	}
	if !stored(b) || b.Rows != n {
		return erinfo(routine, -3, "")
	}
	if check {
		return firstErr(finiteFloats(routine, 1, "D", d), finiteSlice(routine, 2, "E", e), finiteMat(routine, 3, "B", b))
	}
	return nil
}

// The argument checks of the eigenproblem drivers (la/eig.go, nonsym.go,
// gen.go), one per storage format. Each takes A and, for the generalized
// problem, the B of the same order, checks them like the helpers above —
// shapes first, in argument order, then with check the non-finite entries —
// and returns the order of the problem.

// squareArgs checks the square dense A (and B).
func squareArgs[T Scalar](routine string, check bool, ms ...*Matrix[T]) (int, error) {
	for i, m := range ms {
		if !stored(m) || m.Rows != m.Cols || m.Rows != ms[0].Rows {
			return 0, erinfo(routine, -(i + 1), "")
		}
	}
	if check {
		for i, m := range ms {
			if err := finiteMat(routine, i+1, "AB"[i:i+1], m); err != nil {
				return 0, err
			}
		}
	}
	return ms[0].Rows, nil
}

// packedEigArgs checks the packed triangle AP (and BP).
func packedEigArgs[T Scalar](routine string, check bool, aps ...[]T) (int, error) {
	n := packedOrder(len(aps[0]))
	for i, ap := range aps {
		if n < 0 || packedOrder(len(ap)) != n {
			return 0, erinfo(routine, -(i + 1), "")
		}
	}
	if check {
		for i, ap := range aps {
			if err := finiteSlice(routine, i+1, "AB"[i:i+1]+"P", ap); err != nil {
				return 0, err
			}
		}
	}
	return n, nil
}

// bandEigArgs checks the symmetric band storage AB (and BB; the bandwidths
// are Rows−1 and may differ).
func bandEigArgs[T Scalar](routine string, check bool, abs ...*Matrix[T]) (int, error) {
	for i, ab := range abs {
		if !stored(ab) || ab.Rows < 1 || ab.Cols != abs[0].Cols {
			return 0, erinfo(routine, -(i + 1), "")
		}
	}
	if check {
		for i, ab := range abs {
			if err := finiteMat(routine, i+1, "AB"[i:i+1]+"B", ab); err != nil {
				return 0, err
			}
		}
	}
	return abs[0].Cols, nil
}

// tridiagArgs checks the diagonal D and off-diagonal E of a real symmetric
// tridiagonal matrix.
func tridiagArgs(routine string, check bool, d, e []float64) (int, error) {
	n := len(d)
	if n > 0 && len(e) != n-1 {
		return 0, erinfo(routine, -2, "")
	}
	if check {
		return n, firstErr(finiteFloats(routine, 1, "D", d), finiteFloats(routine, 2, "E", e))
	}
	return n, nil
}
