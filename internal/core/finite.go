package core

// AllFinite reports whether every element of x is finite (no NaN, no ±Inf in
// either component for complex types). It is the kernel behind the library's
// opt-in input screening (la.WithCheck / LA90_CHECK_INPUTS).
//
// The scan multiplies each element by zero and accumulates: finite·0 == 0
// exactly, while Inf·0 and NaN·0 are NaN (and for complex types a non-finite
// component makes the product non-zero-or-NaN in that component), so the
// running sums stay 0 iff every element is finite. This compiles to straight
// multiply-add over all four scalar types with no per-element branches, and
// the four independent accumulators keep the loop limited by throughput
// rather than add latency.
func AllFinite[T Scalar](x []T) bool {
	var acc0, acc1, acc2, acc3 T
	var zero T
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		acc0 += x[i] * zero
		acc1 += x[i+1] * zero
		acc2 += x[i+2] * zero
		acc3 += x[i+3] * zero
	}
	for ; i < n; i++ {
		acc0 += x[i] * zero
	}
	acc0 += acc1 + acc2 + acc3
	return acc0 == zero
}

// IsFinite reports whether the single element x is finite.
func IsFinite[T Scalar](x T) bool {
	var zero T
	return x*zero == zero
}

// NaN returns a quiet NaN of element type T (NaN in both components for
// complex types). Used by the fault-injection test harness to poison buffers.
func NaN[T Scalar]() T {
	nan := EpsDouble
	nan = (nan - nan) / (nan - nan) // 0/0 without a constant-division compile error
	var z T
	switch any(z).(type) {
	case float32:
		return any(float32(nan)).(T)
	case float64:
		return any(nan).(T)
	case complex64:
		return any(complex(float32(nan), float32(nan))).(T)
	case complex128:
		return any(complex(nan, nan)).(T)
	}
	return z
}

// A Flaw is the clause of the stored-matrix rule (Stored) an argument breaks.
type Flaw int

// The clauses, in the order Stored checks them.
const (
	Sound     Flaw = iota // the rule holds
	NegDim                // a negative row or column count
	ShortLD               // a leading dimension below max(1, rows)
	ShortData             // fewer stored elements than the matrix spans
)

// Stored is the one well-formedness rule of a column-major matrix argument:
// rows, cols ≥ 0, ld ≥ max(1, rows) and, unless the matrix has no elements,
// length ≥ (cols−1)·ld + rows, the span from its first element to its last.
// Package la applies it to every *Matrix argument, behind a nil check, and
// package f77 to every explicit (rows, cols, A, LDA); it returns the first
// clause broken.
func Stored(rows, cols, ld, length int) Flaw {
	switch {
	case rows < 0 || cols < 0:
		return NegDim
	case ld < max(1, rows):
		return ShortLD
	case rows > 0 && cols > 0 && (length < rows || (length-rows)/ld < cols-1):
		return ShortData
	}
	return Sound
}
