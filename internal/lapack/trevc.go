package lapack

import (
	"math"
	"math/cmplx"

	"repro/internal/blas"
	"repro/internal/core"
)

// trevcNB is the number of eigenvectors one Gemm back-transforms.
const trevcNB = 64

// Trevc computes the right (left: uᴴ·T = λ·uᴴ) eigenvectors of a Schur
// matrix T — real quasi-triangular with its eigenvalues (wr, wi) from Hseqr,
// or complex triangular with wr = wi = nil — back-transformed by z (xTREVC3,
// howmny = 'B'; a nil z leaves the eigenvectors of T itself). On return v
// (n×n) holds them; for a real T in the real packing: a real eigenvalue's
// vector occupies one column, a complex conjugate pair (wr±i·wi at columns k,
// k+1) stores the real part in column k and the imaginary part in column k+1.
//
// It runs in the xTREVC3 shape: the eigenvectors of T are built trevcNB at a
// time as columns of a scratch block — in the arithmetic of T, the vector of
// a complex pair of a real T as a real and an imaginary column — and each
// block is back-transformed by one Gemm against the columns of z its rows
// reach, written straight into v.
func Trevc[E core.Scalar](cfg *core.Config, left bool, n int, t []E, ldt int, wr, wi []float64, z []E, ldz int, v []E, ldv int) {
	if n == 0 {
		return
	}
	const ulp = core.EpsDouble
	smlnum := core.SafeMin[float64]() * float64(n) / ulp
	s := trevcSolver[E]{left: left, n: n, t: t, ldt: ldt, bignum: (1 - ulp) / smlnum, cnorm: blas.GetScratch[float64](n)}
	defer blas.PutScratch(s.cnorm)
	// The 1-norms of the strictly upper columns of T bound every update of
	// the substitution (xTREVC's WORK), so the overflow guard never has to
	// look at the vector itself.
	for j := range s.cnorm {
		s.cnorm[j] = blas.Asum(j, t[j*ldt:], 1)
	}
	x := blas.GetScratch[E](n * min(n, trevcNB))
	defer blas.PutScratch(x)
	for c0 := 0; c0 < n; {
		c1 := min(n, c0+trevcNB)
		if c1 < n && wi != nil && wi[c1-1] > 0 {
			c1-- // keep the pair (c1−1, c1) in one block
		}
		clear(x[:n*(c1-c0)])
		for ki := c0; ki < c1; ki++ {
			s.x[0], s.np = x[(ki-c0)*n:][:n], 1
			lambda := core.ToComplex(t[ki+ki*ldt])
			if wi != nil {
				lambda = complex(wr[ki], math.Abs(wi[ki]))
				if wi[ki] != 0 {
					s.x[1], s.np = x[(ki+1-c0)*n:][:n], 2
				}
			}
			s.smin = max(ulp*(math.Abs(real(lambda))+math.Abs(imag(lambda))), smlnum)
			s.solve(ki, ki+s.np-1, lambda)
			ki += s.np - 1
		}
		// Right vectors of the block reach rows 0:c1, left ones rows c0:n.
		r0, r1 := 0, c1
		if left {
			r0, r1 = c0, n
		}
		if z == nil {
			Lacpy('A', n, c1-c0, x, n, v[c0*ldv:], ldv)
		} else {
			blas.Gemm(cfg, NoTrans, NoTrans, n, c1-c0, r1-r0, core.FromFloat[E](1), z[r0*ldz:], ldz,
				x[r0:], n, core.FromFloat[E](0), v[c0*ldv:], ldv)
		}
		c0 = c1
	}
}

// trevcSolver carries one triangular solve of trevc: T, the guard constants
// and the vector under construction — np planes of length n, one complex or
// real plane, or a real and an imaginary one for a complex pair of a real T.
type trevcSolver[E core.Scalar] struct {
	left         bool
	n, ldt, np   int
	t            []E
	cnorm        []float64
	bignum, smin float64
	x            [2][]E
}

func (s *trevcSolver[E]) at(j int) complex128 {
	if s.np == 2 {
		return complex(core.Re(s.x[0][j]), core.Re(s.x[1][j]))
	}
	return core.ToComplex(s.x[0][j])
}

func (s *trevcSolver[E]) set(j int, c complex128) {
	if s.np == 2 {
		s.x[0][j], s.x[1][j] = core.FromFloat[E](real(c)), core.FromFloat[E](imag(c))
	} else {
		s.x[0][j] = core.FromComplex[E](c)
	}
}

func (s *trevcSolver[E]) scale(lo, hi int, f float64) {
	for _, p := range s.x[:s.np] {
		blas.ScalReal(hi-lo, f, p[lo:], 1)
	}
}

// solve fills the planes with the eigenvector of lambda, whose diagonal block
// is rows k0..k1 of T. A right vector is the back-substitution
// (T − λ)·x = 0 upwards from the block, column-oriented: once a component is
// known, x[0:j] −= x[j]·T[0:j, j] on the axpy leaf. A left vector is the
// forward substitution yᴴ·(T − λ) = 0 downwards, one contiguous (conjugated)
// dot with column j of T per component.
func (s *trevcSolver[E]) solve(k0, k1 int, lambda complex128) {
	t, ldt := s.t, s.ldt
	if k0 == k1 {
		s.set(k0, 1)
	} else {
		// Standardized block [a b; c a], λ = a + i·√(−bc): the vectors
		// (1, iw/b) or (iw/c, 1), whichever is better scaled; −i and the
		// mirrored positions for the left vector.
		b, c := core.Re(t[k0+k1*ldt]), core.Re(t[k1+k0*ldt])
		w, q, unit := imag(lambda), c, k1
		if math.Abs(b) >= math.Abs(c) {
			q, unit = b, k0
		}
		if s.left {
			w, unit = -w, k0+k1-unit
		}
		s.set(unit, 1)
		s.set(k0+k1-unit, complex(0, w/q))
	}
	if s.left {
		vmax, vcrit := 1.0, s.bignum
		for j := k1 + 1; j < s.n; {
			b1 := j
			if j < s.n-1 && t[j+1+j*ldt] != 0 {
				b1 = j + 1
			}
			if max(s.cnorm[j], s.cnorm[b1]) > vcrit {
				s.scale(k0, j, 1/vmax)
				vmax, vcrit = 1, s.bignum
			}
			for c := j; c <= b1; c++ {
				for _, xp := range s.x[:s.np] {
					xp[c] = -blas.Dotc(j-k0, t[k0+c*ldt:], 1, xp[k0:], 1)
				}
			}
			if f := s.block(j, b1, lambda); f != 1 {
				s.scale(k0, j, f)
			}
			vmax = max(vmax, core.Abs1(s.at(j)), core.Abs1(s.at(b1)))
			vcrit = s.bignum / vmax
			j = b1 + 1
		}
		return
	}
	eliminate := func(b0, b1 int) {
		for j := b0; j <= b1; j++ {
			for _, xp := range s.x[:s.np] {
				blas.Axpy(b0, -xp[j], t[j*ldt:], 1, xp, 1)
			}
		}
	}
	eliminate(k0, k1)
	for j := k0 - 1; j >= 0; {
		b0 := j
		if j > 0 && t[j+(j-1)*ldt] != 0 {
			b0 = j - 1
		}
		if f := s.block(b0, j, lambda); f != 1 {
			s.scale(0, b0, f)
			s.scale(j+1, k1+1, f)
		}
		eliminate(b0, j)
		j = b0 - 1
	}
}

// block solves the 1×1 or 2×2 diagonal block b0..b1 of T − λ for the
// right-hand sides standing in the vector's components b0..b1 (xLALN2's
// role; the only complex arithmetic on a real T), and returns the factor
// ≤ 1 the rest of the vector must be scaled by: small divisors are moved out
// to smin, quotients are kept under bignum, and a right vector's new
// components are kept small enough for their columns of T (cnorm) to be
// subtracted without overflow. The left solve is the conjugate transpose's.
func (s *trevcSolver[E]) block(b0, b1 int, lambda complex128) float64 {
	t, ldt := s.t, s.ldt
	conj := func(c complex128) complex128 {
		if s.left {
			return cmplx.Conj(c)
		}
		return c
	}
	r := [2]complex128{s.at(b0), 0}
	var f float64
	if b0 == b1 {
		f = trevcDiv(&r, conj(core.ToComplex(t[b0+b0*ldt])-lambda), s.smin, s.bignum)
	} else {
		a11, a22 := conj(core.ToComplex(t[b0+b0*ldt])-lambda), conj(core.ToComplex(t[b1+b1*ldt])-lambda)
		a12, a21 := core.Re(t[b0+b1*ldt]), core.Re(t[b1+b0*ldt])
		if s.left {
			a12, a21 = a21, a12
		}
		// Cramer's rule on the block scaled to unit size, so that no product
		// can overflow: x = adj(A/‖A‖)·r / det(A/‖A‖) / ‖A‖.
		an := max(core.Abs1(a11), core.Abs1(a22), math.Abs(a12), math.Abs(a21))
		a11, a22 = complex(real(a11)/an, imag(a11)/an), complex(real(a22)/an, imag(a22)/an)
		a12, a21 = a12/an, a21/an
		r[1] = s.at(b1)
		r[0], r[1] = r[0]*a22-r[1]*complex(a12, 0), r[1]*a11-r[0]*complex(a21, 0)
		gmin := s.smin / an
		f = trevcDiv(&r, a11*a22-complex(a12*a21, 0), gmin*gmin, s.bignum)
		f *= trevcDiv(&r, complex(an, 0), 0, s.bignum)
	}
	if xn := max(core.Abs1(r[0]), core.Abs1(r[1])); !s.left && xn > 1 && max(s.cnorm[b0], s.cnorm[b1]) > s.bignum/xn {
		r[0], r[1], f = r[0]/complex(xn, 0), r[1]/complex(xn, 0), f/xn
	}
	s.set(b0, r[0])
	if b1 > b0 {
		s.set(b1, r[1])
	}
	return f
}

// trevcDiv divides r by d, moved out to magnitude smin (keeping its phase)
// when it is smaller, and returns the factor ≤ 1 that r was scaled by first
// so that the quotients stay under bignum.
func trevcDiv(r *[2]complex128, d complex128, smin, bignum float64) float64 {
	dn := core.Abs1(d)
	if dn < 2*smin {
		if a := cmplx.Abs(d); a == 0 {
			d = complex(smin, 0)
		} else if a < smin {
			d *= complex(smin/a, 0)
		}
		dn = core.Abs1(d)
	}
	f := 1.0
	if bn := max(core.Abs1(r[0]), core.Abs1(r[1])); dn < 1 && bn > bignum*dn {
		f = 1 / bn
	}
	r[0], r[1] = r[0]*complex(f, 0)/d, r[1]*complex(f, 0)/d
	return f
}
