package lapack

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/core"
)

// The scalar eigenvector routines the xTREVC3-shaped trevc replaced, kept
// verbatim as its oracle: complex arithmetic on real T, row-oriented
// substitution, a sweep of the vector per row as the growth guard, a scalar
// back-transform.

// trevcGuard returns a safe denominator: d if |d| >= smin, else smin with
// the phase of d (or smin itself when d == 0).
func trevcRefGuard(d complex128, smin float64) complex128 {
	if cmplx.Abs(d) >= smin {
		return d
	}
	if d == 0 {
		return complex(smin, 0)
	}
	return d * complex(smin/cmplx.Abs(d), 0)
}

// trevcRefRight computes the right eigenvectors of a real quasi-triangular
// Schur matrix T and back-transforms them by z (xTREVC side='R',
// howmny='B' semantics). The eigenvalues (wr, wi) must come from Hseqr on
// the same T. On return vr (n×n) holds the eigenvectors in the LAPACK
// packing: a real eigenvalue's vector occupies one column; a complex
// conjugate pair (wr±i·wi at columns ki, ki+1) stores the real part in
// column ki and the imaginary part in column ki+1.
//
// The back-substitution is performed in complex arithmetic rather than the
// reference's paired real solves; results agree to roundoff (see
// DESIGN.md).
func trevcRefRight(n int, t []float64, ldt int, wr, wi []float64, z []float64, ldz int, vr []float64, ldvr int) {
	if n == 0 {
		return
	}
	ulp := 0x1p-52
	smlnum := math.SmallestNonzeroFloat64 * 0x1p52 * float64(n) / ulp
	x := make([]complex128, n)
	for ki := n - 1; ki >= 0; ki-- {
		pair := wi[ki] != 0
		if pair && wi[ki] > 0 {
			// Handled when we reach the second member of the pair.
			continue
		}
		lambda := complex(wr[ki], wi[ki])
		if pair {
			lambda = complex(wr[ki], -wi[ki]) // use the +wi member
		}
		smin := math.Max(ulp*(math.Abs(wr[ki])+math.Abs(wi[ki])), smlnum)
		for i := range x {
			x[i] = 0
		}
		top := ki // highest index with nonzero component
		if !pair {
			x[ki] = 1
		} else {
			// Seed from the standardized 2×2 block at (ki-1, ki).
			b := t[ki-1+ki*ldt]
			c := t[ki+(ki-1)*ldt]
			wiP := wi[ki-1] // positive member
			if math.Abs(b) >= math.Abs(c) {
				x[ki-1] = 1
				x[ki] = complex(0, wiP/b)
			} else {
				// From c·v1 − i·wi·v2 = 0 with v2 = 1: v1 = i·wi/c.
				x[ki] = 1
				x[ki-1] = complex(0, wiP/c)
			}
		}
		lo := ki
		if pair {
			lo = ki - 1
		}
		// Back-substitution over rows lo-1 .. 0, respecting 2×2 blocks.
		for j := lo - 1; j >= 0; {
			// Determine whether row j is the bottom of a 2×2 block.
			if j > 0 && t[j+(j-1)*ldt] != 0 {
				// 2×2 block at (j-1, j): solve both components together.
				var r1, r2 complex128
				for k := j + 1; k <= top; k++ {
					r1 += complex(t[j-1+k*ldt], 0) * x[k]
					r2 += complex(t[j+k*ldt], 0) * x[k]
				}
				a11 := complex(t[j-1+(j-1)*ldt], 0) - lambda
				a12 := complex(t[j-1+j*ldt], 0)
				a21 := complex(t[j+(j-1)*ldt], 0)
				a22 := complex(t[j+j*ldt], 0) - lambda
				det := a11*a22 - a12*a21
				det = trevcRefGuard(det, smin*smin)
				x[j-1] = (-r1*a22 + r2*a12) / det
				x[j] = (-r2*a11 + r1*a21) / det
				j -= 2
			} else {
				var r complex128
				for k := j + 1; k <= top; k++ {
					r += complex(t[j+k*ldt], 0) * x[k]
				}
				den := trevcRefGuard(complex(t[j+j*ldt], 0)-lambda, smin)
				x[j] = -r / den
				j--
			}
			// Rescale if the solution is growing dangerously.
			maxx := 0.0
			for k := 0; k <= top; k++ {
				maxx = math.Max(maxx, cmplx.Abs(x[k]))
			}
			if maxx > 1/smlnum {
				s := complex(1/maxx, 0)
				for k := 0; k <= top; k++ {
					x[k] *= s
				}
			}
		}
		// Back-transform: v = Z·x over the first top+1 components.
		if !pair {
			for i := 0; i < n; i++ {
				s := 0.0
				for k := 0; k <= top; k++ {
					s += z[i+k*ldz] * real(x[k])
				}
				vr[i+ki*ldvr] = s
			}
		} else {
			for i := 0; i < n; i++ {
				var sr, si float64
				for k := 0; k <= top; k++ {
					sr += z[i+k*ldz] * real(x[k])
					si += z[i+k*ldz] * imag(x[k])
				}
				vr[i+(ki-1)*ldvr] = sr
				vr[i+ki*ldvr] = si
			}
		}
	}
}

// trevcRefLeft computes the left eigenvectors uᴴ·A = λ·uᴴ of a real
// quasi-triangular Schur matrix, back-transformed by z (xTREVC side='L'
// semantics, same packing as trevcRefRight).
func trevcRefLeft(n int, t []float64, ldt int, wr, wi []float64, z []float64, ldz int, vl []float64, ldvl int) {
	if n == 0 {
		return
	}
	ulp := 0x1p-52
	smlnum := math.SmallestNonzeroFloat64 * 0x1p52 * float64(n) / ulp
	y := make([]complex128, n)
	for ki := 0; ki < n; ki++ {
		pair := wi[ki] != 0
		if pair && wi[ki] < 0 {
			continue // handled with the first member
		}
		// Want u = Z·w with wᴴ·T = λ·wᴴ. For real T this is equivalent to
		// yᵀ·(T − λ̄·I) = 0 for y = conj(w), solved by forward substitution
		// over components ki..n-1. Use the pair member with wi > 0.
		lambda := complex(wr[ki], wi[ki])
		lb := cmplx.Conj(lambda)
		smin := math.Max(ulp*(math.Abs(wr[ki])+math.Abs(wi[ki])), smlnum)
		for i := range y {
			y[i] = 0
		}
		bot := ki
		if !pair {
			y[ki] = 1
		} else {
			// Standardized block B = [a b; c a] at (ki, ki+1), wi = √(−bc):
			// yᵀ(B − λ̄I) = 0 has solutions (1, −i·wi/c) and (−i·wi/b, 1);
			// pick the better-scaled one.
			b := t[ki+(ki+1)*ldt]
			c := t[ki+1+ki*ldt]
			wiP := wi[ki]
			if math.Abs(b) >= math.Abs(c) {
				y[ki] = complex(0, -wiP/b)
				y[ki+1] = 1
			} else {
				y[ki] = 1
				y[ki+1] = complex(0, -wiP/c)
			}
			bot = ki + 1
		}
		for j := bot + 1; j < n; {
			if j < n-1 && t[j+1+j*ldt] != 0 {
				// 2×2 block at (j, j+1): solve the row-vector system
				// (y_j, y_{j+1})·(B − λ̄I) = (−r1, −r2).
				var r1, r2 complex128
				for k := ki; k < j; k++ {
					r1 += complex(t[k+j*ldt], 0) * y[k]
					r2 += complex(t[k+(j+1)*ldt], 0) * y[k]
				}
				a11 := complex(t[j+j*ldt], 0) - lb
				a12 := complex(t[j+(j+1)*ldt], 0)
				a21 := complex(t[j+1+j*ldt], 0)
				a22 := complex(t[j+1+(j+1)*ldt], 0) - lb
				det := a11*a22 - a12*a21
				det = trevcRefGuard(det, smin*smin)
				y[j] = (-r1*a22 + r2*a21) / det
				y[j+1] = (-r2*a11 + r1*a12) / det
				j += 2
			} else {
				var r complex128
				for k := ki; k < j; k++ {
					r += complex(t[k+j*ldt], 0) * y[k]
				}
				den := trevcRefGuard(complex(t[j+j*ldt], 0)-lb, smin)
				y[j] = -r / den
				j++
			}
			maxy := 0.0
			for k := 0; k < n; k++ {
				maxy = math.Max(maxy, cmplx.Abs(y[k]))
			}
			if maxy > 1/smlnum {
				s := complex(1/maxy, 0)
				for k := 0; k < n; k++ {
					y[k] *= s
				}
			}
		}
		// Left eigenvector of A: with A = Z·T·Zᵀ, uᴴ·A = λ·uᴴ holds for
		// u = Z·y, since yᵀ(T − λ̄I) = 0 is equivalent to Tᵀ·y = λ̄·y.
		if !pair {
			for i := 0; i < n; i++ {
				s := 0.0
				for k := ki; k < n; k++ {
					s += z[i+k*ldz] * real(y[k])
				}
				vl[i+ki*ldvl] = s
			}
		} else {
			for i := 0; i < n; i++ {
				var sr, si float64
				for k := ki; k < n; k++ {
					sr += z[i+k*ldz] * real(y[k])
					si += z[i+k*ldz] * imag(y[k])
				}
				vl[i+ki*ldvl] = sr
				vl[i+(ki+1)*ldvl] = si
			}
		}
	}
}

// trevcRefRightC computes the right eigenvectors of a complex upper
// triangular Schur matrix T, back-transformed by z (xTREVC complex,
// side='R', howmny='B').
func trevcRefRightC(n int, t []complex128, ldt int, z []complex128, ldz int, vr []complex128, ldvr int) {
	if n == 0 {
		return
	}
	ulp := 0x1p-52
	smlnum := math.SmallestNonzeroFloat64 * 0x1p52 * float64(n) / ulp
	x := make([]complex128, n)
	for ki := n - 1; ki >= 0; ki-- {
		lambda := t[ki+ki*ldt]
		smin := math.Max(ulp*cmplx.Abs(lambda), smlnum)
		for i := range x {
			x[i] = 0
		}
		x[ki] = 1
		for j := ki - 1; j >= 0; j-- {
			var r complex128
			for k := j + 1; k <= ki; k++ {
				r += t[j+k*ldt] * x[k]
			}
			den := trevcRefGuard(t[j+j*ldt]-lambda, smin)
			x[j] = -r / den
			maxx := 0.0
			for k := j; k <= ki; k++ {
				maxx = math.Max(maxx, cmplx.Abs(x[k]))
			}
			if maxx > 1/smlnum {
				s := complex(1/maxx, 0)
				for k := j; k <= ki; k++ {
					x[k] *= s
				}
			}
		}
		for i := 0; i < n; i++ {
			var s complex128
			for k := 0; k <= ki; k++ {
				s += z[i+k*ldz] * x[k]
			}
			vr[i+ki*ldvr] = s
		}
	}
}

// trevcRefLeftC computes the left eigenvectors of a complex upper triangular
// Schur matrix, back-transformed by z (xTREVC complex, side='L').
func trevcRefLeftC(n int, t []complex128, ldt int, z []complex128, ldz int, vl []complex128, ldvl int) {
	if n == 0 {
		return
	}
	ulp := 0x1p-52
	smlnum := math.SmallestNonzeroFloat64 * 0x1p52 * float64(n) / ulp
	y := make([]complex128, n)
	for ki := 0; ki < n; ki++ {
		lambda := t[ki+ki*ldt]
		smin := math.Max(ulp*cmplx.Abs(lambda), smlnum)
		for i := range y {
			y[i] = 0
		}
		// wᴴ·T = λ·wᴴ ⇒ conj-linear forward substitution on w.
		y[ki] = 1
		for j := ki + 1; j < n; j++ {
			var r complex128
			for k := ki; k < j; k++ {
				r += cmplx.Conj(t[k+j*ldt]) * y[k]
			}
			den := trevcRefGuard(cmplx.Conj(t[j+j*ldt]-lambda), smin)
			y[j] = -r / den
			maxy := 0.0
			for k := ki; k <= j; k++ {
				maxy = math.Max(maxy, cmplx.Abs(y[k]))
			}
			if maxy > 1/smlnum {
				s := complex(1/maxy, 0)
				for k := ki; k <= j; k++ {
					y[k] *= s
				}
			}
		}
		for i := 0; i < n; i++ {
			var s complex128
			for k := ki; k < n; k++ {
				s += z[i+k*ldz] * y[k]
			}
			vl[i+ki*ldvl] = s
		}
	}
}

// quasiTri builds an n×n real quasi-triangular matrix in Schur form with
// standardized 2×2 blocks ([a b; c a], bc < 0) starting at the given rows,
// and its eigenvalues. grade ≠ 0 scales the diagonal by 2^−grade and what is
// above it by 2^grade (b and c of a block against each other, which keeps
// √(−bc)): with grade = 400 every step of a substitution multiplies the
// solution by 2^800.
func quasiTri(n int, blocks []int, grade int, seed int) (t, wr, wi []float64) {
	rng := NewRng([4]int{n, seed, 11, 1})
	t = make([]float64, n*n)
	wr, wi = make([]float64, n), make([]float64, n)
	up, down := math.Ldexp(1, grade), math.Ldexp(1, -grade)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			t[i+j*n] = up * rng.Uniform11()
		}
		t[j+j*n] = down * (float64(j+1) + 0.25*rng.Uniform11())
		wr[j] = t[j+j*n]
	}
	for _, k := range blocks {
		b, c := up*(0.5+rng.Uniform()), -down*(0.5+rng.Uniform())
		t[k+1+(k+1)*n] = t[k+k*n]
		t[k+(k+1)*n], t[k+1+k*n] = b, c
		wr[k+1] = wr[k]
		wi[k], wi[k+1] = math.Sqrt(-b*c), -math.Sqrt(-b*c)
	}
	return t, wr, wi
}

// unitCols scales the eigenvectors in the columns of v (real packing when wi
// is non-nil) to unit 2-norm, so that two routines' results can be compared.
func unitCols[E core.Scalar](n int, wi []float64, v []E) {
	for j := 0; j < n; j++ {
		cols := 1
		if wi != nil && wi[j] != 0 {
			cols = 2
		}
		scale, ssq := 0.0, 1.0
		for _, x := range v[j*n : (j+cols)*n] {
			lassq(core.Re(x), &scale, &ssq)
			lassq(core.Im(x), &scale, &ssq)
		}
		for i := range v[j*n : (j+cols)*n] {
			v[j*n+i] = core.FromComplex[E](core.ToComplex(v[j*n+i]) / complex(scale, 0) / complex(math.Sqrt(ssq), 0))
		}
		j += cols - 1
	}
}

// trevcResidual returns max over eigenpairs of ‖T·x − λ·x‖ / (n·ε·‖T‖·‖x‖)
// for right vectors of the triangle itself (xᴴ·T − λ·xᴴ for left ones), in
// complex arithmetic with entries pre-scaled by 1/‖T‖_max.
func trevcResidual[E core.Scalar](left bool, n int, t []E, wr, wi []float64, v []E) float64 {
	tmax := Lange(MaxAbs, n, n, t, n)
	tn := Lange(OneNorm, n, n, t, n) / tmax
	worst := 0.0
	for j := 0; j < n; j++ {
		x := make([]complex128, n)
		lambda := core.ToComplex(t[j+j*n])
		cols := 1
		if wi != nil {
			lambda = complex(wr[j], wi[j])
			if wi[j] != 0 {
				cols = 2
			}
		}
		for i := range x {
			x[i] = core.ToComplex(v[i+j*n])
			if cols == 2 {
				x[i] = complex(core.Re(v[i+j*n]), core.Re(v[i+(j+1)*n]))
			}
		}
		lambda /= complex(tmax, 0)
		rn, xn := 0.0, 0.0
		for i := 0; i < n; i++ {
			var r complex128
			for k := 0; k < n; k++ {
				if left {
					r += cmplx.Conj(x[k]) * core.ToComplex(t[k+i*n]) / complex(tmax, 0)
				} else {
					r += core.ToComplex(t[i+k*n]) / complex(tmax, 0) * x[k]
				}
			}
			if left {
				r -= lambda * cmplx.Conj(x[i])
			} else {
				r -= lambda * x[i]
			}
			rn += cmplx.Abs(r)
			xn += cmplx.Abs(x[i])
		}
		worst = math.Max(worst, rn/(float64(n)*core.EpsDouble*tn*xn))
		j += cols - 1
	}
	return worst
}

// TestTrevcAgainstReference: on quasi-triangular T with 2×2 blocks first,
// last and adjacent, the new routines reproduce the scalar reference (after
// normalisation) and satisfy the eigenvector equation, with and without a
// back-transform.
func TestTrevcAgainstReference(t *testing.T) {
	cfg := core.Default()
	for _, n := range []int{1, 2, 3, 31, 64, 193} {
		var blocks []int
		switch {
		case n == 2:
			blocks = []int{0}
		case n == 3:
			blocks = []int{1}
		case n > 3:
			blocks = []int{0, 2, 4, n/2 | 1, n - 2} // first, adjacent, middle, last
			if n > 70 {
				blocks = append(blocks, 63) // straddles the trevcNB block boundary
			}
		}
		tm, wr, wi := quasiTri(n, blocks, 0, 3)
		z := make([]float64, n*n)
		Larnv(2, NewRng([4]int{n, 5, 5, 5}), n*n, z)
		tau := make([]float64, n)
		Geqrf(cfg, n, n, z, n, tau)
		Orgqr(cfg, n, n, n, z, n, tau)
		for _, left := range []bool{false, true} {
			for _, withZ := range []bool{true, false} {
				name := fmt.Sprintf("n=%d/left=%v/z=%v", n, left, withZ)
				got, want := make([]float64, n*n), make([]float64, n*n)
				zz := z
				if !withZ {
					zz = nil
				}
				ident := make([]float64, n*n)
				Laset('A', n, n, 0.0, 1.0, ident, n)
				zr := z
				if !withZ {
					zr = ident
				}
				if left {
					Trevc(cfg, true, n, tm, n, wr, wi, zz, n, got, n)
					trevcRefLeft(n, tm, n, wr, wi, zr, n, want, n)
				} else {
					Trevc(cfg, false, n, tm, n, wr, wi, zz, n, got, n)
					trevcRefRight(n, tm, n, wr, wi, zr, n, want, n)
				}
				if !withZ {
					if r := trevcResidual(left, n, tm, wr, wi, got); r > 10 {
						t.Errorf("%s: residual ratio %.3g", name, r)
					}
				}
				unitCols(n, wi, got)
				unitCols(n, wi, want)
				// Growth: the vectors of a triangle with clustered diagonal are
				// themselves ill-conditioned; the reference is no closer to the
				// exact vector than this.
				if d := maxDiff(got, want); d > 1e4*float64(n)*core.EpsDouble {
					t.Errorf("%s: differs from the reference by %.3g", name, d)
				}
			}
		}
	}
}

func TestTrevcComplexAgainstReference(t *testing.T) {
	cfg := core.Default()
	for _, n := range []int{1, 2, 3, 31, 64, 193} {
		rng := NewRng([4]int{n, 8, 1, 3})
		tm, z := make([]complex128, n*n), make([]complex128, n*n)
		Larnv(2, rng, n*n, tm)
		Larnv(2, rng, n*n, z)
		for j := 0; j < n; j++ {
			clear(tm[j+1+j*n : (j+1)*n])
			tm[j+j*n] += complex(float64(j), 0)
		}
		ident := make([]complex128, n*n)
		Laset('A', n, n, complex128(0), complex128(1), ident, n)
		for _, left := range []bool{false, true} {
			for _, withZ := range []bool{true, false} {
				name := fmt.Sprintf("n=%d/left=%v/z=%v", n, left, withZ)
				got, want := make([]complex128, n*n), make([]complex128, n*n)
				zz, zr := z, z
				if !withZ {
					zz, zr = nil, ident
				}
				if left {
					Trevc(cfg, true, n, tm, n, nil, nil, zz, n, got, n)
					trevcRefLeftC(n, tm, n, zr, n, want, n)
				} else {
					Trevc(cfg, false, n, tm, n, nil, nil, zz, n, got, n)
					trevcRefRightC(n, tm, n, zr, n, want, n)
				}
				if !withZ {
					if r := trevcResidual(left, n, tm, nil, nil, got); r > 10 {
						t.Errorf("%s: residual ratio %.3g", name, r)
					}
				}
				unitCols[complex128](n, nil, got)
				unitCols[complex128](n, nil, want)
				if d := maxDiff(got, want); d > 1e4*float64(n)*core.EpsDouble {
					t.Errorf("%s: differs from the reference by %.3g", name, d)
				}
			}
		}
	}
}

// TestTrevcRepeatedEigenvalue: a defective triangle divides by zero at the
// repeated diagonal entry; the smin guard keeps the vectors finite and
// they still satisfy the eigenvector equation.
func TestTrevcRepeatedEigenvalue(t *testing.T) {
	cfg := core.Default()
	const n = 6
	tm, wr, wi := quasiTri(n, nil, 0, 7)
	tm[3+3*n], wr[3] = tm[1+1*n], wr[1]
	tm[5+5*n], wr[5] = tm[1+1*n], wr[1]
	for _, left := range []bool{false, true} {
		got, want := make([]float64, n*n), make([]float64, n*n)
		ident := make([]float64, n*n)
		Laset('A', n, n, 0.0, 1.0, ident, n)
		if left {
			Trevc(cfg, true, n, tm, n, wr, wi, nil, n, got, n)
			trevcRefLeft(n, tm, n, wr, wi, ident, n, want, n)
		} else {
			Trevc(cfg, false, n, tm, n, wr, wi, nil, n, got, n)
			trevcRefRight(n, tm, n, wr, wi, ident, n, want, n)
		}
		if !core.AllFinite(got) {
			t.Fatalf("left=%v: non-finite eigenvector", left)
		}
		if r := trevcResidual(left, n, tm, wr, wi, got); r > 10 {
			t.Errorf("left=%v: residual ratio %.3g", left, r)
		}
		unitCols(n, wi, got)
		unitCols(n, wi, want)
		if d := maxDiff(got, want); d > 100*n*core.EpsDouble {
			t.Errorf("left=%v: differs from the reference by %.3g", left, d)
		}
	}
}

// TestTrevcGraded: on a triangle graded by 2^±400 — diagonal against upper
// part — the solution grows (or shrinks) by 2^800 per step, past the
// floating-point range within two, so with the large part above the diagonal
// the growth guard must rescale (a vector is then no longer led by its unit
// seed), and either way the result must stay finite and satisfy the
// eigenvector equation.
func TestTrevcGraded(t *testing.T) {
	cfg := core.Default()
	for _, grade := range []int{400, -400} {
		for _, n := range []int{31, 193} {
			tm, wr, wi := quasiTri(n, []int{0, 7, n - 2}, grade, 9)
			for _, left := range []bool{false, true} {
				name := fmt.Sprintf("grade=%d/n=%d/left=%v", grade, n, left)
				got := make([]float64, n*n)
				if left {
					Trevc(cfg, true, n, tm, n, wr, wi, nil, n, got, n)
				} else {
					Trevc(cfg, false, n, tm, n, wr, wi, nil, n, got, n)
				}
				if !core.AllFinite(got) {
					t.Fatalf("%s: non-finite eigenvector", name)
				}
				if r := trevcResidual(left, n, tm, wr, wi, got); r > 10 {
					t.Errorf("%s: residual ratio %.3g", name, r)
				}
				// A real eigenvalue whose vector crosses most of the matrix.
				ki := n - 3
				if left {
					ki = 2
				}
				if fired := got[ki+ki*n] != 1; fired != (grade > 0) {
					t.Errorf("%s: growth guard fired = %v", name, fired)
				}
			}
		}
	}
}
