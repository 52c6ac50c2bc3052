package lapack

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
)

// Gebal balances a general matrix (xGEBAL). job selects 'N' (none), 'P'
// (permute only), 'S' (scale only) or 'B' (both). On return ilo/ihi bound
// the subdiagonal-relevant part (0-based, inclusive) and scale records the
// permutations and scalings for Gebak.
func Gebal[T core.Scalar](job byte, n int, a []T, lda int, scale []float64) (ilo, ihi int) {
	for i := 0; i < n; i++ {
		scale[i] = 1
	}
	k, l := 0, n-1
	if n == 0 {
		return 0, -1
	}
	if job == 'N' {
		return 0, n - 1
	}
	swap := func(j, m int) {
		// Swap rows and columns j and m, recording m in scale.
		scale[j] = float64(m)
		if j != m {
			blas.Swap(l+1, a[j*lda:], 1, a[m*lda:], 1)
			blas.Swap(n-k, a[j+k*lda:], lda, a[m+k*lda:], lda)
		}
	}
	if job == 'P' || job == 'B' {
		// Push rows with zero off-diagonal elements to the bottom…
		for changed := true; changed && l > k; {
			changed = false
			for j := l; j >= k; j-- {
				zero := true
				for i := 0; i <= l; i++ {
					if i != j && a[j+i*lda] != 0 {
						zero = false
						break
					}
				}
				if zero {
					swap(j, l)
					if l == k {
						return k, l
					}
					l--
					changed = true
					break
				}
			}
		}
		// …and columns with zero off-diagonals to the left.
		for changed := true; changed && k < l; {
			changed = false
			for j := k; j <= l; j++ {
				zero := true
				for i := k; i <= l; i++ {
					if i != j && a[i+j*lda] != 0 {
						zero = false
						break
					}
				}
				if zero {
					swap(j, k)
					if k == l {
						return k, l
					}
					k++
					changed = true
					break
				}
			}
		}
	}
	if job == 'S' || job == 'B' {
		// Iterative row/column norm equalization with powers of 2.
		const (
			sclfac = 2.0
			factor = 0.95
		)
		sfmin1 := core.SafeMin[T]() / core.Eps[T]()
		sfmax1 := 1 / sfmin1
		for conv := false; !conv; {
			conv = true
			for i := k; i <= l; i++ {
				c, r := 0.0, 0.0
				for j := k; j <= l; j++ {
					if j == i {
						continue
					}
					c += core.Abs1(a[j+i*lda])
					r += core.Abs1(a[i+j*lda])
				}
				if c == 0 || r == 0 {
					continue
				}
				g := r / sclfac
				f := 1.0
				s := c + r
				for c < g {
					if f >= sfmax1 || c >= sfmax1 || g <= sfmin1 {
						break
					}
					f *= sclfac
					c *= sclfac
					g /= sclfac
				}
				g = c / sclfac
				for g >= r {
					if f <= sfmin1 || r >= sfmax1 {
						break
					}
					f /= sclfac
					c /= sclfac
					g /= sclfac
					r *= sclfac
				}
				if c+r >= factor*s {
					continue
				}
				if f == 1 {
					continue
				}
				conv = false
				scale[i] *= f
				fc := core.FromFloat[T](f)
				inv := core.FromFloat[T](1 / f)
				blas.Scal(n-k, inv, a[i+k*lda:], lda)
				blas.Scal(l+1, fc, a[i*lda:], 1)
			}
		}
	}
	return k, l
}

// Gebak back-transforms eigenvectors computed for a balanced matrix
// (xGEBAK). v is n×m with the eigenvectors as columns; side 'R' for right
// eigenvectors, 'L' for left.
func Gebak[T core.Scalar](job, side byte, n, ilo, ihi int, scale []float64, m int, v []T, ldv int) {
	if n == 0 || m == 0 || job == 'N' {
		return
	}
	if job == 'S' || job == 'B' {
		for i := ilo; i <= ihi; i++ {
			s := scale[i]
			if side == 'L' {
				s = 1 / s
			}
			blas.Scal(m, core.FromFloat[T](s), v[i:], ldv)
		}
	}
	if job == 'P' || job == 'B' {
		// Undo the permutations in reverse order.
		for ii := 0; ii < n; ii++ {
			i := ii
			if i >= ilo && i <= ihi {
				continue
			}
			if i < ilo {
				i = ilo - ii - 1
			}
			if i < 0 || i >= n {
				continue
			}
			k := int(scale[i])
			if k == i {
				continue
			}
			blas.Swap(m, v[i:], ldv, v[k:], ldv)
		}
	}
}

// Gehd2 reduces a general matrix to upper Hessenberg form by a unitary
// similarity transformation Qᴴ·A·Q = H (xGEHD2). Only rows/columns
// ilo..ihi (0-based, inclusive) are reduced. The reflectors are stored
// below the first subdiagonal and in tau (length n-1).
func Gehd2[T core.Scalar](cfg *core.Config, n, ilo, ihi int, a []T, lda int, tau []T) {
	work := make([]T, n)
	for i := ilo; i < ihi; i++ {
		// Annihilate A(i+2:ihi, i).
		alpha := a[i+1+i*lda]
		tau[i] = Larfg(ihi-i, &alpha, a[min(i+2, n-1)+i*lda:], 1)
		a[i+1+i*lda] = core.FromFloat[T](1)
		// Apply H(i) from the right to A(0:ihi+1, i+1:ihi+1)…
		Larf(cfg, Right, ihi+1, ihi-i, a[i+1+i*lda:], 1, tau[i], a[(i+1)*lda:], lda, work)
		// …and from the left to A(i+1:ihi+1, i+1:n).
		Larf(cfg, Left, ihi-i, n-i-1, a[i+1+i*lda:], 1, core.Conj(tau[i]), a[i+1+(i+1)*lda:], lda, work)
		a[i+1+i*lda] = alpha
	}
}

// Lahr2 reduces the nb columns of a starting at column 0 (rows k..n-1
// active, rows 0..k-1 above the reduction) to Hessenberg form, returning
// the block reflector factor T (nb×nb upper triangular) and Y = A·V·T
// (n×nb) so the blocked Gehrd can apply the whole panel with GEMM
// (xLAHR2). a points at the panel's first column inside the full matrix;
// its trailing columns (beyond nb) are read for the Y computation. The
// last column of t is used as scratch, as in LAPACK.
func Lahr2[T core.Scalar](cfg *core.Config, n, k, nb int, a []T, lda int, tau []T, t []T, ldt int, y []T, ldy int) {
	if n <= 1 {
		return
	}
	one := core.FromFloat[T](1)
	zero := core.FromFloat[T](0)
	var ei T
	for i := 0; i < nb; i++ {
		if i > 0 {
			// Update column i: b := b − Y·Vᴴ(row k+i-1) …
			lacgv(i, a[k+i-1:], lda)
			blas.Gemv(cfg, NoTrans, n-k, i, -one, y[k:], ldy, a[k+i-1:], lda,
				one, a[k+i*lda:], 1)
			lacgv(i, a[k+i-1:], lda)
			// …then b := (I − V·Tᴴ·Vᴴ)·b, using t's last column as scratch.
			w := t[(nb-1)*ldt:]
			blas.Copy(i, a[k+i*lda:], 1, w, 1)
			blas.Trmv(Lower, ConjTrans, Unit, i, a[k:], lda, w, 1)
			blas.Gemv(cfg, ConjTrans, n-k-i, i, one, a[k+i:], lda, a[k+i+i*lda:], 1, one, w, 1)
			blas.Trmv(Upper, ConjTrans, NonUnit, i, t, ldt, w, 1)
			blas.Gemv(cfg, NoTrans, n-k-i, i, -one, a[k+i:], lda, w, 1, one, a[k+i+i*lda:], 1)
			blas.Trmv(Lower, NoTrans, Unit, i, a[k:], lda, w, 1)
			blas.Axpy(i, -one, w, 1, a[k+i*lda:], 1)
			a[k+i-1+(i-1)*lda] = ei
		}
		// Reflector H(i) annihilating A(k+i+1:n, i).
		alpha := a[k+i+i*lda]
		tau[i] = Larfg(n-k-i, &alpha, a[min(k+i+1, n-1)+i*lda:], 1)
		ei = alpha
		a[k+i+i*lda] = one
		// Y(k:n, i) = A(k:n, i+1:)·v − Y·(Vᴴ·v), scaled by tau.
		blas.Gemv(cfg, NoTrans, n-k, n-k-i, one, a[k+(i+1)*lda:], lda, a[k+i+i*lda:], 1,
			zero, y[k+i*ldy:], 1)
		blas.Gemv(cfg, ConjTrans, n-k-i, i, one, a[k+i:], lda, a[k+i+i*lda:], 1,
			zero, t[i*ldt:], 1)
		blas.Gemv(cfg, NoTrans, n-k, i, -one, y[k:], ldy, t[i*ldt:], 1, one, y[k+i*ldy:], 1)
		blas.Scal(n-k, tau[i], y[k+i*ldy:], 1)
		// T(0:i, i) from the Vᴴ·v products already sitting in t's column i.
		blas.Scal(i, -tau[i], t[i*ldt:], 1)
		blas.Trmv(Upper, NoTrans, NonUnit, i, t, ldt, t[i*ldt:], 1)
		t[i+i*ldt] = tau[i]
	}
	a[k+nb-1+(nb-1)*lda] = ei
	// Y(0:k, :) = A(0:k, 1:)·V·T for the rows above the reduction.
	for j := 0; j < nb; j++ {
		copy(y[j*ldy:j*ldy+k], a[(j+1)*lda:(j+1)*lda+k])
	}
	blas.Trmm(Right, Lower, NoTrans, Unit, k, nb, one, a[k:], lda, y, ldy)
	if n > k+nb {
		blas.Gemm(cfg, NoTrans, NoTrans, k, nb, n-k-nb, one, a[(nb+1)*lda:], lda,
			a[k+nb:], lda, one, y, ldy)
	}
	blas.Trmm(Right, Upper, NoTrans, NonUnit, k, nb, one, t, ldt, y, ldy)
}

// Gehrd reduces a matrix to upper Hessenberg form (xGEHRD). When the active
// block ihi−ilo+1 exceeds the Ilaenv crossover the reduction is blocked:
// Lahr2 builds an nb-reflector panel with its block factor T and Y = A·V·T,
// then the trailing matrix is updated Larfb-style with GEMM on the packed
// Level-3 engine — one GEMM applying the panel from the right, a Trmm+Axpy
// sweep for the rows above ilo, and a blocked Larfb from the left. Below
// the crossover the unblocked Gehd2 runs directly. The floating-point
// schedule is worker-count independent.
func Gehrd[T core.Scalar](cfg *core.Config, n, ilo, ihi int, a []T, lda int, tau []T) {
	for i := 0; i < ilo; i++ {
		if i < len(tau) {
			tau[i] = 0
		}
	}
	for i := ihi; i < n-1; i++ {
		tau[i] = 0
	}
	nb := Ilaenv(1, "GEHRD", n, ilo, ihi, -1)
	nx := max(nb, Ilaenv(3, "GEHRD", n, ilo, ihi, -1))
	nh := ihi - ilo + 1
	if nh <= nx {
		Gehd2(cfg, n, ilo, ihi, a, lda, tau)
		return
	}
	one := core.FromFloat[T](1)
	ldy := n
	y := blas.GetScratch[T](ldy * nb)
	defer blas.PutScratch(y)
	work := blas.GetScratch[T](n * nb)
	defer blas.PutScratch(work)
	t := make([]T, nb*nb)
	var i int
	for i = ilo; i < ihi-nx; i += nb {
		ib := min(nb, ihi-i)
		// Reduce columns i:i+ib, accumulating V, T and Y = A·V·T.
		Lahr2(cfg, ihi+1, i+1, ib, a[i*lda:], lda, tau[i:], t, nb, y, ldy)
		// Apply the panel from the right to A(0:ihi+1, i+ib:ihi+1):
		// A −= Y·Vᴴ, with the subdiagonal head of the last reflector
		// temporarily set to one.
		ei := a[i+ib+(i+ib-1)*lda]
		a[i+ib+(i+ib-1)*lda] = one
		blas.Gemm(cfg, NoTrans, ConjTrans, ihi+1, ihi-i-ib+1, ib, -one,
			y, ldy, a[i+ib+i*lda:], lda, one, a[(i+ib)*lda:], lda)
		a[i+ib+(i+ib-1)*lda] = ei
		// Right-apply to the rows above the panel, columns i+1:i+ib.
		blas.Trmm(Right, Lower, ConjTrans, Unit, i+1, ib-1, one,
			a[i+1+i*lda:], lda, y, ldy)
		for j := 0; j < ib-1; j++ {
			blas.Axpy(i+1, -one, y[j*ldy:], 1, a[(i+j+1)*lda:], 1)
		}
		// Left-apply Hᴴ to the trailing columns.
		Larfb(cfg, ConjTrans, ihi-i, n-i-ib, ib, a[i+1+i*lda:], lda, t, nb,
			a[i+1+(i+ib)*lda:], lda, work)
	}
	Gehd2(cfg, n, i, ihi, a, lda, tau)
}

// Orghr generates the unitary matrix Q from a Hessenberg reduction
// (xORGHR/xUNGHR), overwriting a.
func Orghr[T core.Scalar](cfg *core.Config, n, ilo, ihi int, a []T, lda int, tau []T) {
	// Shift the reflectors one column to the right and generate in the
	// ilo+1..ihi block; everything outside is the identity.
	for j := ihi; j > ilo; j-- {
		for i := 0; i <= j; i++ {
			a[i+j*lda] = 0
		}
		for i := j + 1; i <= ihi; i++ {
			a[i+j*lda] = a[i+(j-1)*lda]
		}
		for i := ihi + 1; i < n; i++ {
			a[i+j*lda] = 0
		}
	}
	for j := 0; j <= ilo; j++ {
		for i := 0; i < n; i++ {
			a[i+j*lda] = 0
		}
		a[j+j*lda] = core.FromFloat[T](1)
	}
	for j := ihi + 1; j < n; j++ {
		for i := 0; i < n; i++ {
			a[i+j*lda] = 0
		}
		a[j+j*lda] = core.FromFloat[T](1)
	}
	if nh := ihi - ilo; nh > 0 {
		orgqr(cfg, nh, nh, nh, a[ilo+1+(ilo+1)*lda:], lda, tau[ilo:], nil)
	}
}

// Lanv2 computes the Schur factorization of a real 2×2 matrix
// [a b; c d], standardizing it so that on return either c = 0 (two real
// eigenvalues) or a = d and sign(b) = -sign(c) (a complex conjugate pair)
// (xLANV2). The eigenvalues are (rt1r, rt1i) and (rt2r, rt2i); (cs, sn) is
// the Givens rotation realizing the transformation.
func Lanv2(a, b, c, d float64) (aa, bb, cc, dd, rt1r, rt1i, rt2r, rt2i, cs, sn float64) {
	const multpl = 4.0
	eps := core.EpsDouble
	switch {
	case c == 0:
		cs, sn = 1, 0
	case b == 0:
		// Swap rows and columns.
		cs, sn = 0, 1
		a, b, c, d = d, -c, 0, a
	case (a-d) == 0 && core.Sign(1, b) != core.Sign(1, c):
		cs, sn = 1, 0
	default:
		temp := a - d
		p := 0.5 * temp
		bcmax := math.Max(math.Abs(b), math.Abs(c))
		bcmis := math.Min(math.Abs(b), math.Abs(c)) * core.Sign(1, b) * core.Sign(1, c)
		scale := math.Max(math.Abs(p), bcmax)
		z := (p/scale)*p + (bcmax/scale)*bcmis
		if z >= multpl*eps {
			// Real eigenvalues: compute a (the shifted eigenvalue), d and
			// the rotation.
			z = p + core.Sign(math.Sqrt(scale)*math.Sqrt(z), p)
			a = d + z
			d -= (bcmax / z) * bcmis
			tau := math.Hypot(c, z)
			cs = z / tau
			sn = c / tau
			b -= c
			c = 0
		} else {
			// Complex or almost-equal real eigenvalues.
			sigma := b + c
			tau := math.Hypot(sigma, temp)
			cs = math.Sqrt(0.5 * (1 + math.Abs(sigma)/tau))
			sn = -(p / (tau * cs)) * core.Sign(1, sigma)
			// [aa bb; cc dd] = [a b; c d]·[cs -sn; sn cs]
			aa := a*cs + b*sn
			bb := -a*sn + b*cs
			cc := c*cs + d*sn
			dd := -c*sn + d*cs
			// [a b; c d] = [cs sn; -sn cs]·[aa bb; cc dd]
			a = aa*cs + cc*sn
			b = bb*cs + dd*sn
			c = -aa*sn + cc*cs
			d = -bb*sn + dd*cs
			temp = 0.5 * (a + d)
			a = temp
			d = temp
			if c != 0 {
				if b != 0 {
					if core.Sign(1, b) == core.Sign(1, c) {
						// Real eigenvalues: reduce to upper triangular form.
						sab := core.Sign(math.Sqrt(math.Abs(b)), b)
						sac := core.Sign(math.Sqrt(math.Abs(c)), c)
						p = sab * sac
						tau = 1 / math.Sqrt(math.Abs(b+c))
						a = temp + p
						d = temp - p
						b -= c
						c = 0
						cs1 := sab * tau
						sn1 := sac * tau
						cs, sn = cs*cs1-sn*sn1, cs*sn1+sn*cs1
					}
				} else {
					b, c = -c, 0
					cs, sn = -sn, cs
				}
			}
		}
	}
	rt1r, rt2r = a, d
	if c == 0 {
		rt1i, rt2i = 0, 0
	} else {
		rt1i = math.Sqrt(math.Abs(b)) * math.Sqrt(math.Abs(c))
		rt2i = -rt1i
	}
	return a, b, c, d, rt1r, rt1i, rt2r, rt2i, cs, sn
}
