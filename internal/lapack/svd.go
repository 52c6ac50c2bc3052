package lapack

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
)

// Gebd2 reduces an m×n matrix with m >= n to upper bidiagonal form by
// unitary transformations Qᴴ·A·P = B (xGEBD2, tall case). d (n) and e
// (n-1) receive the real diagonal and super-diagonal; tauq/taup the column
// and row reflector scalars. Only the m >= n path is implemented; Gesdd
// handles wide matrices by conjugate transposition (see DESIGN.md).
func Gebd2[T core.Scalar](cfg *core.Config, m, n int, a []T, lda int, d, e []float64, tauq, taup []T) {
	if m < n {
		panic("lapack: Gebd2 requires m >= n")
	}
	one := core.FromFloat[T](1)
	work := make([]T, max(m, n))
	for i := 0; i < n; i++ {
		// Column reflector annihilating A(i+1:m, i).
		alpha := a[i+i*lda]
		tauq[i] = Larfg(m-i, &alpha, a[min(i+1, m-1)+i*lda:], 1)
		d[i] = core.Re(alpha)
		a[i+i*lda] = one
		if i < n-1 {
			Larf(cfg, Left, m-i, n-i-1, a[i+i*lda:], 1, core.Conj(tauq[i]), a[i+(i+1)*lda:], lda, work)
		}
		a[i+i*lda] = core.FromFloat[T](d[i])
		if i < n-1 {
			// Row reflector annihilating A(i, i+2:n).
			lacgv(n-i-1, a[i+(i+1)*lda:], lda)
			alpha = a[i+(i+1)*lda]
			taup[i] = Larfg(n-i-1, &alpha, a[i+min(i+2, n-1)*lda:], lda)
			e[i] = core.Re(alpha)
			a[i+(i+1)*lda] = one
			Larf(cfg, Right, m-i-1, n-i-1, a[i+(i+1)*lda:], lda, taup[i], a[i+1+(i+1)*lda:], lda, work)
			// Conjugate back so the stored row follows the LQ convention
			// expected by Orgbr('P')/Orglq.
			lacgv(n-i-1, a[i+(i+1)*lda:], lda)
			a[i+(i+1)*lda] = core.FromFloat[T](e[i])
		} else if i < n {
			taup[i] = 0
		}
	}
}

// Labrd reduces the first nb rows and columns of an m×n matrix (m >= n) to
// upper bidiagonal form and returns the matrices X (m×nb) and Y (n×nb)
// needed to apply the transformation to the unreduced trailing block as
// A := A − V·Yᴴ − X·Uᴴ (xLABRD, tall case). Storage conventions match
// Gebd2: d/e real, row reflectors conjugated back to the LQ convention.
// The diagonal and superdiagonal entries inside the panel are left holding
// reflector heads; the blocked Gebrd restores them after the trailing
// update, exactly as in LAPACK.
func Labrd[T core.Scalar](cfg *core.Config, m, n, nb int, a []T, lda int, d, e []float64, tauq, taup []T, x []T, ldx int, y []T, ldy int) {
	if m < n {
		panic("lapack: Labrd requires m >= n")
	}
	one := core.FromFloat[T](1)
	zero := core.FromFloat[T](0)
	for i := 0; i < nb; i++ {
		// Update A(i:m, i) with the previous reflectors.
		lacgv(i, y[i:], ldy)
		blas.Gemv(cfg, NoTrans, m-i, i, -one, a[i:], lda, y[i:], ldy, one, a[i+i*lda:], 1)
		lacgv(i, y[i:], ldy)
		blas.Gemv(cfg, NoTrans, m-i, i, -one, x[i:], ldx, a[i*lda:], 1, one, a[i+i*lda:], 1)
		// Column reflector Q(i) annihilating A(i+1:m, i).
		alpha := a[i+i*lda]
		tauq[i] = Larfg(m-i, &alpha, a[min(i+1, m-1)+i*lda:], 1)
		d[i] = core.Re(alpha)
		if i >= n-1 {
			taup[i] = 0
			continue
		}
		a[i+i*lda] = one
		// Y(i+1:n, i), with Y(0:i, i) as the temporary.
		blas.Gemv(cfg, ConjTrans, m-i, n-i-1, one, a[i+(i+1)*lda:], lda, a[i+i*lda:], 1,
			zero, y[i+1+i*ldy:], 1)
		blas.Gemv(cfg, ConjTrans, m-i, i, one, a[i:], lda, a[i+i*lda:], 1, zero, y[i*ldy:], 1)
		blas.Gemv(cfg, NoTrans, n-i-1, i, -one, y[i+1:], ldy, y[i*ldy:], 1, one, y[i+1+i*ldy:], 1)
		blas.Gemv(cfg, ConjTrans, m-i, i, one, x[i:], ldx, a[i+i*lda:], 1, zero, y[i*ldy:], 1)
		blas.Gemv(cfg, ConjTrans, i, n-i-1, -one, a[(i+1)*lda:], lda, y[i*ldy:], 1,
			one, y[i+1+i*ldy:], 1)
		blas.Scal(n-i-1, tauq[i], y[i+1+i*ldy:], 1)
		// Update row A(i, i+1:n); the row works in conjugated form until the
		// final conjugate-back, matching Gebd2.
		lacgv(n-i-1, a[i+(i+1)*lda:], lda)
		lacgv(i+1, a[i:], lda)
		blas.Gemv(cfg, NoTrans, n-i-1, i+1, -one, y[i+1:], ldy, a[i:], lda, one, a[i+(i+1)*lda:], lda)
		lacgv(i+1, a[i:], lda)
		lacgv(i, x[i:], ldx)
		blas.Gemv(cfg, ConjTrans, i, n-i-1, -one, a[(i+1)*lda:], lda, x[i:], ldx,
			one, a[i+(i+1)*lda:], lda)
		lacgv(i, x[i:], ldx)
		// Row reflector P(i) annihilating A(i, i+2:n).
		alpha = a[i+(i+1)*lda]
		taup[i] = Larfg(n-i-1, &alpha, a[i+min(i+2, n-1)*lda:], lda)
		e[i] = core.Re(alpha)
		a[i+(i+1)*lda] = one
		// X(i+1:m, i), with X(0:i+1, i) as the temporary.
		blas.Gemv(cfg, NoTrans, m-i-1, n-i-1, one, a[i+1+(i+1)*lda:], lda,
			a[i+(i+1)*lda:], lda, zero, x[i+1+i*ldx:], 1)
		blas.Gemv(cfg, ConjTrans, n-i-1, i+1, one, y[i+1:], ldy, a[i+(i+1)*lda:], lda,
			zero, x[i*ldx:], 1)
		blas.Gemv(cfg, NoTrans, m-i-1, i+1, -one, a[i+1:], lda, x[i*ldx:], 1,
			one, x[i+1+i*ldx:], 1)
		blas.Gemv(cfg, NoTrans, i, n-i-1, one, a[(i+1)*lda:], lda, a[i+(i+1)*lda:], lda,
			zero, x[i*ldx:], 1)
		blas.Gemv(cfg, NoTrans, m-i-1, i, -one, x[i+1:], ldx, x[i*ldx:], 1,
			one, x[i+1+i*ldx:], 1)
		blas.Scal(m-i-1, taup[i], x[i+1+i*ldx:], 1)
		lacgv(n-i-1, a[i+(i+1)*lda:], lda)
	}
}

// Gebrd reduces a tall matrix to bidiagonal form (xGEBRD). Above the
// Ilaenv crossover the reduction is blocked: Labrd reduces an nb-column
// panel accumulating the update matrices X and Y, and the trailing block
// takes the two-sided update A := A − V·Yᴴ − X·Uᴴ as two GEMM calls on the
// packed Level-3 engine. Below the crossover (or when m < n, which only
// Gebd2's panic path handles) the unblocked Gebd2 runs directly. The
// floating-point schedule is worker-count independent.
func Gebrd[T core.Scalar](cfg *core.Config, m, n int, a []T, lda int, d, e []float64, tauq, taup []T) {
	nb := Ilaenv(1, "GEBRD", m, n, -1, -1)
	nx := max(nb, Ilaenv(3, "GEBRD", m, n, -1, -1))
	if m < n || n <= nx {
		Gebd2(cfg, m, n, a, lda, d, e, tauq, taup)
		return
	}
	one := core.FromFloat[T](1)
	ldx, ldy := m, n
	x := blas.GetScratch[T](ldx * nb)
	defer blas.PutScratch(x)
	y := blas.GetScratch[T](ldy * nb)
	defer blas.PutScratch(y)
	var i int
	for i = 0; i < n-nx; i += nb {
		Labrd(cfg, m-i, n-i, nb, a[i+i*lda:], lda, d[i:], e[i:], tauq[i:], taup[i:],
			x, ldx, y, ldy)
		// Trailing update A(i+nb:m, i+nb:n) −= V·Yᴴ + X·Uᴴ, where V/U are the
		// panel's column/row reflectors still stored in A.
		blas.Gemm(cfg, NoTrans, ConjTrans, m-i-nb, n-i-nb, nb, -one,
			a[i+nb+i*lda:], lda, y[nb:], ldy, one, a[i+nb+(i+nb)*lda:], lda)
		blas.Gemm(cfg, NoTrans, NoTrans, m-i-nb, n-i-nb, nb, -one,
			x[nb:], ldx, a[i+(i+nb)*lda:], lda, one, a[i+nb+(i+nb)*lda:], lda)
		// Put the bidiagonal entries back over the reflector heads.
		for j := i; j < i+nb; j++ {
			a[j+j*lda] = core.FromFloat[T](d[j])
			a[j+(j+1)*lda] = core.FromFloat[T](e[j])
		}
	}
	Gebd2(cfg, m-i, n-i, a[i+i*lda:], lda, d[i:], e[i:], tauq[i:], taup[i:])
}

// Orgbr generates the unitary matrices determined by Gebrd (xORGBR/xUNGBR,
// tall case): vect 'Q' overwrites a (m×ncols) with the first ncols columns
// of Q; vect 'P' overwrites a (n×n) with Pᴴ. k is the number of reflectors
// (n for 'Q', the bidiagonal order for 'P').
func Orgbr[T core.Scalar](cfg *core.Config, vect byte, m, n, k int, a []T, lda int, tau []T) {
	if vect == 'Q' {
		Orgqr(cfg, m, n, k, a, lda, tau)
		return
	}
	// Pᴴ = diag(1, G(0)·…)ᴴ from the row reflectors in the rows of a above
	// the superdiagonal (conjugated, as Gelq2 leaves them): row i is column
	// i+1 of a QR-stored set of order n whose reflector 0 is a dummy, so
	// orgqr generates P on blocks that start on multiples of the block size,
	// and the conjugate transpose goes back into a.
	work := blas.GetScratch[T](n*n + n)
	defer blas.PutScratch(work)
	b, taub := work[:n*n], work[n*n:]
	kk := min(k, n-1)
	taub[0] = 0
	copy(taub[1:], tau[:kk])
	clear(b[1:n])
	blas.ConjTransposeTo(kk, n, a, lda, b[n:], n)
	orgqr(cfg, n, n, kk+1, b, n, taub, nil)
	blas.ConjTransposeTo(n, n, b, n, a, lda)
}

// Bdsqr computes the singular value decomposition of an n×n real upper
// bidiagonal matrix B = Q·Σ·Pᵀ by the Golub–Reinsch implicit-shift QR
// algorithm (xBDSQR semantics; see DESIGN.md for the algorithmic
// substitution). d (n) holds the diagonal and e (n-1) the super-diagonal;
// on success d holds the singular values in descending order. The
// accumulated left rotations are applied to the nru×n matrix u and the
// right rotations to the n×ncvt matrix vt (either may be nil). Returns the
// number of unconverged superdiagonals (0 on success).
func Bdsqr[T core.Scalar](cfg *core.Config, n int, d, e []float64, vt []T, ldvt, ncvt int, u []T, ldu, nru int) int {
	if n == 0 {
		return 0
	}
	const maxit = 60
	eps := core.EpsDouble
	// se is the NR-style shifted super-diagonal: se[i] couples d[i-1], d[i].
	se := blas.GetScratch[float64](n)
	defer blas.PutScratch(se)
	se[0] = 0
	for i := 1; i < n; i++ {
		se[i] = e[i-1]
	}
	anorm := 0.0
	for i := 0; i < n; i++ {
		anorm = math.Max(anorm, math.Abs(d[i])+math.Abs(se[i]))
	}
	rotU := func(c, s float64, j, i int) {
		if u == nil {
			return
		}
		cT, sT := core.FromFloat[T](c), core.FromFloat[T](s)
		for r := 0; r < nru; r++ {
			y, z := u[r+j*ldu], u[r+i*ldu]
			u[r+j*ldu] = y*cT + z*sT
			u[r+i*ldu] = z*cT - y*sT
		}
	}
	rotVT := func(c, s float64, j, i int) {
		if vt == nil {
			return
		}
		cT, sT := core.FromFloat[T](c), core.FromFloat[T](s)
		for col := 0; col < ncvt; col++ {
			x, z := vt[j+col*ldvt], vt[i+col*ldvt]
			vt[j+col*ldvt] = x*cT + z*sT
			vt[i+col*ldvt] = z*cT - x*sT
		}
	}
	info := 0
	for k := n - 1; k >= 0; k-- {
		converged := false
		for its := 0; its < maxit; its++ {
			// Cancellation checkpoint: once per implicit-QR sweep.
			cfg.Checkpoint()
			// Test for splitting.
			var l int
			flag := true
			for l = k; l >= 0; l-- {
				if l == 0 || math.Abs(se[l]) <= eps*anorm {
					flag = false
					se[l] = 0
					break
				}
				if math.Abs(d[l-1]) <= eps*anorm {
					break
				}
			}
			if flag {
				// Cancellation: d[l-1] negligible; chase se[l] away.
				c, s := 0.0, 1.0
				for i := l; i <= k; i++ {
					f := s * se[i]
					se[i] = c * se[i]
					if math.Abs(f) <= eps*anorm {
						break
					}
					g := d[i]
					h := math.Hypot(f, g)
					d[i] = h
					// Divide rather than multiply by 1/h: when h is
					// subnormal the reciprocal overflows to Inf and
					// 0·Inf poisons the rotation with NaN.
					c = g / h
					s = -f / h
					rotU(c, s, l-1, i)
				}
			}
			z := d[k]
			if l == k {
				// Converged; force non-negative singular value.
				if z < 0 {
					d[k] = -z
					if vt != nil {
						for col := 0; col < ncvt; col++ {
							vt[k+col*ldvt] = -vt[k+col*ldvt]
						}
					}
				}
				converged = true
				break
			}
			// Wilkinson-style shift from the bottom 2×2 minor.
			x := d[l]
			nm := k - 1
			y := d[nm]
			g := se[nm]
			h := se[k]
			f := ((y-z)*(y+z) + (g-h)*(g+h)) / (2 * h * y)
			g = math.Hypot(f, 1)
			f = ((x-z)*(x+z) + h*(y/(f+core.Sign(g, f))-h)) / x
			// QR sweep.
			c, s := 1.0, 1.0
			for j := l; j <= nm; j++ {
				i := j + 1
				g = se[i]
				y = d[i]
				h = s * g
				g = c * g
				zz := math.Hypot(f, h)
				se[j] = zz
				c = f / zz
				s = h / zz
				f = x*c + g*s
				g = -x*s + g*c
				h = y * s
				y = y * c
				rotVT(c, s, j, i)
				zz = math.Hypot(f, h)
				d[j] = zz
				if zz != 0 {
					// Same subnormal-safe division as above.
					c = f / zz
					s = h / zz
				}
				f = c*g + s*y
				x = -s*g + c*y
				rotU(c, s, j, i)
			}
			se[l] = 0
			se[k] = f
			d[k] = x
		}
		if !converged {
			info++
		}
	}
	// Sort singular values into descending order.
	for i := 0; i < n-1; i++ {
		kmax := i
		for j := i + 1; j < n; j++ {
			if d[j] > d[kmax] {
				kmax = j
			}
		}
		if kmax != i {
			d[i], d[kmax] = d[kmax], d[i]
			if u != nil {
				blas.Swap(nru, u[i*ldu:], 1, u[kmax*ldu:], 1)
			}
			if vt != nil {
				blas.Swap(ncvt, vt[i:], ldvt, vt[kmax:], ldvt)
			}
		}
	}
	// Copy the working super-diagonal back for failure diagnostics.
	for i := 1; i < n; i++ {
		e[i-1] = se[i]
	}
	return info
}

// SVDJob selects how much of U or Vᴴ Gesdd computes.
type SVDJob byte

// SVDJob values, matching LAPACK's JOBU/JOBVT characters.
const (
	SVDAll  SVDJob = 'A' // all m (or n) columns/rows
	SVDSome SVDJob = 'S' // the leading min(m,n) columns/rows
	SVDNone SVDJob = 'N' // not computed
)
