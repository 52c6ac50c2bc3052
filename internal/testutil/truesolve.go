package testutil

import (
	"math"

	"repro/internal/core"
	"repro/internal/lapack"
)

// dd is a double-double number hi + lo, |lo| ≤ ulp(hi)/2: about 106 bits.
type dd struct{ hi, lo float64 }

// twoSum returns s = fl(a + b) and the rounding error e: a + b = s + e exactly.
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bb := s - a
	return s, (a - (s - bb)) + (b - bb)
}

// addProd returns x + a·b, the product exact by an FMA two-prod.
func (x dd) addProd(a, b float64) dd {
	p := a * b
	s, e := twoSum(x.hi, p)
	e += x.lo + math.FMA(a, b, -p)
	hi := s + e
	return dd{hi, e - (hi - s)}
}

// TrueSolve returns x* = hi + lo solving the n×n system A·X = B to about
// cond(A)·2⁻¹⁰⁶, the ground truth a forward error is measured against. It
// refines in double-double from Getrf's LU of the float64 system: each step
// solves with the LU for a correction from the residual B − A·x, summed in
// double-double, until it is below 2⁻¹⁰⁶ of x or stops shrinking. A complex
// system is embedded as the real one [Re −Im; Im Re] of order 2n, so one real
// kernel serves all four types; rows are first scaled by powers of two
// (exact), so the LU pivots on a balanced matrix. Singular LU: nils.
func TrueSolve[T core.Scalar](n, nrhs int, a []T, lda int, b []T, ldb int) (hi, lo []complex128) {
	m, cplx := n, core.IsComplex[T]()
	if cplx {
		m = 2 * n
	}
	// embed writes the n×k matrix x as the real m×k one [Re; Im], and with
	// square as [Re −Im; Im Re].
	embed := func(x []T, ldx, k int, square bool) []float64 {
		e := make([]float64, m*max(m, k))
		for j := 0; j < k; j++ {
			for i := 0; i < n; i++ {
				v := core.ToComplex(x[i+j*ldx])
				e[i+j*m] = real(v)
				if cplx {
					e[n+i+j*m] = imag(v)
				}
				if cplx && square {
					e[i+(n+j)*m], e[n+i+(n+j)*m] = -imag(v), real(v)
				}
			}
		}
		return e
	}
	ar, br := embed(a, lda, n, true), embed(b, ldb, nrhs, false)
	for i := 0; i < m; i++ {
		big := 0.0
		for j := 0; j < m; j++ {
			big = math.Max(big, math.Abs(ar[i+j*m]))
		}
		if big == 0 {
			return nil, nil
		}
		s := math.Ldexp(1, -math.Ilogb(big))
		for j := 0; j < m; j++ {
			ar[i+j*m] *= s
		}
		for j := 0; j < nrhs; j++ {
			br[i+j*m] *= s
		}
	}
	cfg := core.Default()
	lu, ipiv := append([]float64(nil), ar...), make([]int, m)
	if lapack.Getrf(cfg, m, m, lu, m, ipiv) != 0 {
		return nil, nil
	}
	hi, lo = make([]complex128, n*nrhs), make([]complex128, n*nrhs)
	x, d := make([]dd, m), make([]float64, m)
	for j := 0; j < nrhs; j++ {
		clear(x)
		copy(d, br[j*m:(j+1)*m])
		for step, last := 0, math.Inf(1); step < 100; step++ {
			lapack.Getrs(cfg, lapack.NoTrans, m, 1, lu, m, ipiv, d, m)
			dmax, xmax := 0.0, 0.0
			for i := range x {
				x[i] = x[i].addProd(d[i], 1)
				dmax, xmax = math.Max(dmax, math.Abs(d[i])), math.Max(xmax, math.Abs(x[i].hi))
			}
			if dmax <= 0x1p-106*xmax || dmax >= last {
				break
			}
			last = dmax
			for i := range d {
				r := dd{br[i+j*m], 0}
				for k := range x {
					r = r.addProd(-ar[i+k*m], x[k].hi).addProd(-ar[i+k*m], x[k].lo)
				}
				d[i] = r.hi + r.lo
			}
		}
		for i := 0; i < n; i++ {
			hi[i+j*n], lo[i+j*n] = complex(x[i].hi, 0), complex(x[i].lo, 0)
			if cplx {
				hi[i+j*n], lo[i+j*n] = complex(x[i].hi, x[n+i].hi), complex(x[i].lo, x[n+i].lo)
			}
		}
	}
	return hi, lo
}

// TrueError returns, per column j of the n×nrhs matrix X, the forward error
// ‖X(j) − x*(j)‖∞ / ‖X(j)‖∞ against x* = hi + lo from TrueSolve, in the
// |re| + |im| measure of the bound FERR (xyyRFS).
func TrueError[T core.Scalar](n, nrhs int, x []T, ldx int, hi, lo []complex128) []float64 {
	abs1 := func(v complex128) float64 { return math.Abs(real(v)) + math.Abs(imag(v)) }
	errs := make([]float64, nrhs)
	for j := range errs {
		num, den := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := core.ToComplex(x[i+j*ldx])
			num = math.Max(num, abs1((v-hi[i+j*n])-lo[i+j*n]))
			den = math.Max(den, abs1(v))
		}
		errs[j] = num / den
	}
	return errs
}
