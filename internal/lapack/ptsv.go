package lapack

import (
	"math"

	"repro/internal/core"
)

// Pttrf computes the L·D·Lᴴ factorization of a symmetric/Hermitian positive
// definite tridiagonal matrix (xPTTRF). d (length n) holds the real
// diagonal and e (length n-1) the sub-diagonal; on exit d holds the diagonal
// of D and e the sub-diagonal multipliers of unit L. Returns i > 0 if the
// leading minor of order i is not positive definite.
func Pttrf[T core.Scalar](n int, d []float64, e []T) int {
	for i := 0; i < n-1; i++ {
		if d[i] <= 0 || math.IsNaN(d[i]) {
			return i + 1
		}
		ei := e[i]
		e[i] = core.FromComplex[T](core.ToComplex(ei) / complex(d[i], 0))
		d[i+1] -= core.Re(e[i])*core.Re(ei) + core.Im(e[i])*core.Im(ei)
	}
	if n > 0 && d[n-1] <= 0 {
		return n
	}
	return 0
}

// Pttrs solves A·X = B using the L·D·Lᴴ factorization from Pttrf (xPTTRS).
func Pttrs[T core.Scalar](n, nrhs int, d []float64, e []T, b []T, ldb int) {
	if n == 0 {
		return
	}
	for j := 0; j < nrhs; j++ {
		col := b[j*ldb:]
		// Forward solve L·y = b.
		for i := 1; i < n; i++ {
			col[i] -= e[i-1] * col[i-1]
		}
		// Diagonal solve and back substitution Lᴴ·x = D⁻¹·y.
		col[n-1] = core.FromComplex[T](core.ToComplex(col[n-1]) / complex(d[n-1], 0))
		for i := n - 2; i >= 0; i-- {
			col[i] = core.FromComplex[T](core.ToComplex(col[i])/complex(d[i], 0)) - core.Conj(e[i])*col[i+1]
		}
	}
}

// Ptsv solves A·X = B for a positive definite tridiagonal matrix (the
// xPTSV driver). d and e are overwritten by the factorization.
func Ptsv[T core.Scalar](n, nrhs int, d []float64, e []T, b []T, ldb int) int {
	info := Pttrf(n, d, e)
	if info == 0 {
		Pttrs(n, nrhs, d, e, b, ldb)
	}
	return info
}

// ptmv computes y = alpha·A·x + beta·y for the Hermitian tridiagonal matrix
// with real diagonal d and sub-diagonal e.
func ptmv[T core.Scalar](n int, d []float64, e []T, alpha T, x []T, beta T, y []T) {
	for i := 0; i < n; i++ {
		s := core.FromFloat[T](d[i]) * x[i]
		if i > 0 {
			s += e[i-1] * x[i-1]
		}
		if i < n-1 {
			s += core.Conj(e[i]) * x[i+1]
		}
		if beta == 0 {
			y[i] = alpha * s
		} else {
			y[i] = alpha*s + beta*y[i]
		}
	}
}

// ptSystem describes the Hermitian positive definite tridiagonal matrix d/e
// to the expert pipeline, with its L·D·Lᴴ factorization in df/ef.
func ptSystem[T core.Scalar](n int, d []float64, e []T, df []float64, ef []T) *system[T] {
	var col [2]T
	return &system[T]{
		n: n, sym: true,
		cols: func(j int) ([]T, int) { // gathered lower triangle: d(j), e(j)
			if j == n-1 {
				return append(col[:0], core.FromFloat[T](d[j])), j
			}
			return append(col[:0], core.FromFloat[T](d[j]), e[j]), j
		},
		factor: func() int {
			copy(df[:n], d[:n])
			if n > 1 {
				copy(ef[:n-1], e[:n-1])
			}
			return Pttrf(n, df, ef)
		},
		solve: func(_ Trans, nrhs int, x []T, ldx int) { Pttrs(n, nrhs, df, ef, x, ldx) },
		mul:   func(_ Trans, alpha T, x []T, beta T, y []T) { ptmv(n, d, e, alpha, x, beta, y) },
	}
}

// Ptsvx is the expert driver for positive definite tridiagonal systems
// (xPTSVX); see Gesvx. There is no equilibration step.
func Ptsvx[T core.Scalar](fact Fact, n, nrhs int, d []float64, e []T, df []float64, ef []T, b []T, ldb int, x []T, ldx int) SvxResult {
	return svx(ptSystem(n, d, e, df, ef), fact, NoTrans, nrhs, b, ldb, x, ldx)
}
