package lapack

import (
	"math"
	"slices"

	"repro/internal/blas"
	"repro/internal/core"
)

// Sytd2 reduces a symmetric (Hermitian, for complex element types) matrix
// to real symmetric tridiagonal form by a unitary similarity
// transformation Qᴴ·A·Q = T (xSYTD2/xHETD2). d and e receive the diagonal
// and off-diagonal of T; tau the reflector scalars. The reflectors are
// stored in the triangle of a opposite the diagonal as in LAPACK.
func Sytd2[T core.Scalar](uplo Uplo, n int, a []T, lda int, d, e []float64, tau []T) {
	if n == 0 {
		return
	}
	one := core.FromFloat[T](1)
	zero := core.FromFloat[T](0)
	half := core.FromFloat[T](0.5)
	w := make([]T, n)
	if uplo == Upper {
		a[n-1+(n-1)*lda] = core.FromFloat[T](core.Re(a[n-1+(n-1)*lda]))
		for i := n - 2; i >= 0; i-- {
			// Generate H(i) to annihilate A(0:i-1, i+1).
			alpha := a[i+(i+1)*lda]
			taui := Larfg(i+1, &alpha, a[(i+1)*lda:], 1)
			e[i] = core.Re(alpha)
			if taui != 0 {
				a[i+(i+1)*lda] = one
				// w = τ·A(0:i, 0:i)·v
				blas.Hemv(Upper, i+1, taui, a, lda, a[(i+1)*lda:], 1, zero, w, 1)
				// w -= ½·τ·(wᴴ·v)·v
				alpha = -half * taui * blas.Dotc(i+1, w, 1, a[(i+1)*lda:], 1)
				blas.Axpy(i+1, alpha, a[(i+1)*lda:], 1, w, 1)
				// A -= v·wᴴ + w·vᴴ
				blas.Her2(Upper, i+1, -one, a[(i+1)*lda:], 1, w, 1, a, lda)
			} else {
				a[i+i*lda] = core.FromFloat[T](core.Re(a[i+i*lda]))
			}
			a[i+(i+1)*lda] = core.FromFloat[T](e[i])
			d[i+1] = core.Re(a[i+1+(i+1)*lda])
			tau[i] = taui
		}
		d[0] = core.Re(a[0])
		return
	}
	a[0] = core.FromFloat[T](core.Re(a[0]))
	for i := 0; i < n-1; i++ {
		alpha := a[i+1+i*lda]
		taui := Larfg(n-i-1, &alpha, a[min(i+2, n-1)+i*lda:], 1)
		e[i] = core.Re(alpha)
		if taui != 0 {
			a[i+1+i*lda] = one
			blas.Hemv(Lower, n-i-1, taui, a[i+1+(i+1)*lda:], lda, a[i+1+i*lda:], 1, zero, w, 1)
			alpha = -half * taui * blas.Dotc(n-i-1, w, 1, a[i+1+i*lda:], 1)
			blas.Axpy(n-i-1, alpha, a[i+1+i*lda:], 1, w, 1)
			blas.Her2(Lower, n-i-1, -one, a[i+1+i*lda:], 1, w, 1, a[i+1+(i+1)*lda:], lda)
		} else {
			a[i+1+(i+1)*lda] = core.FromFloat[T](core.Re(a[i+1+(i+1)*lda]))
		}
		a[i+1+i*lda] = core.FromFloat[T](e[i])
		d[i] = core.Re(a[i+i*lda])
		tau[i] = taui
	}
	d[n-1] = core.Re(a[n-1+(n-1)*lda])
}

// Latrd reduces nb rows and columns of a symmetric/Hermitian n×n matrix to
// tridiagonal form by a unitary similarity transformation and returns the
// matrix W needed to update the unreduced part (xLATRD/the Hermitian
// variant). With uplo == Upper the last nb columns are reduced (W columns
// iw = i-(n-nb) correspond to matrix columns i); with Lower the first nb.
// The trailing update A := A − V·Wᴴ − W·Vᴴ is NOT applied here — the
// blocked Sytrd issues it as one rank-2k update through the Level-3 engine.
// e, tau index as in Sytd2; w is n×nb with leading dimension ldw.
func Latrd[T core.Scalar](cfg *core.Config, uplo Uplo, n, nb int, a []T, lda int, e []float64, tau []T, w []T, ldw int) {
	if n <= 0 {
		return
	}
	one := core.FromFloat[T](1)
	zero := core.FromFloat[T](0)
	half := core.FromFloat[T](0.5)
	if uplo == Upper {
		// Reduce the last nb columns of the leading n×n block.
		for c := n - 1; c >= n-nb && c >= 0; c-- {
			iw := c - (n - nb)
			if c < n-1 {
				// A(0:c+1, c) -= A(0:c+1, c+1:n)·conj(W(c, iw+1:nb))
				//              + W(0:c+1, iw+1:nb)·conj(A(c, c+1:n)).
				a[c+c*lda] = core.FromFloat[T](core.Re(a[c+c*lda]))
				lacgv(n-1-c, w[c+(iw+1)*ldw:], ldw)
				blas.Gemv(cfg, NoTrans, c+1, n-1-c, -one, a[(c+1)*lda:], lda,
					w[c+(iw+1)*ldw:], ldw, one, a[c*lda:], 1)
				lacgv(n-1-c, w[c+(iw+1)*ldw:], ldw)
				lacgv(n-1-c, a[c+(c+1)*lda:], lda)
				blas.Gemv(cfg, NoTrans, c+1, n-1-c, -one, w[(iw+1)*ldw:], ldw,
					a[c+(c+1)*lda:], lda, one, a[c*lda:], 1)
				lacgv(n-1-c, a[c+(c+1)*lda:], lda)
				a[c+c*lda] = core.FromFloat[T](core.Re(a[c+c*lda]))
			}
			if c > 0 {
				// Generate H(c-1) to annihilate A(0:c-1, c).
				alpha := a[c-1+c*lda]
				tau[c-1] = Larfg(c, &alpha, a[c*lda:], 1)
				e[c-1] = core.Re(alpha)
				a[c-1+c*lda] = one
				// W(0:c, iw) = τ·(A·v − V·(Wᴴv) − W·(Vᴴv) − ½τ(wᴴv)v).
				blas.Hemv(Upper, c, one, a, lda, a[c*lda:], 1, zero, w[iw*ldw:], 1)
				if c < n-1 {
					blas.Gemv(cfg, ConjTrans, c, n-1-c, one, w[(iw+1)*ldw:], ldw,
						a[c*lda:], 1, zero, w[c+1+iw*ldw:], 1)
					blas.Gemv(cfg, NoTrans, c, n-1-c, -one, a[(c+1)*lda:], lda,
						w[c+1+iw*ldw:], 1, one, w[iw*ldw:], 1)
					blas.Gemv(cfg, ConjTrans, c, n-1-c, one, a[(c+1)*lda:], lda,
						a[c*lda:], 1, zero, w[c+1+iw*ldw:], 1)
					blas.Gemv(cfg, NoTrans, c, n-1-c, -one, w[(iw+1)*ldw:], ldw,
						w[c+1+iw*ldw:], 1, one, w[iw*ldw:], 1)
				}
				blas.Scal(c, tau[c-1], w[iw*ldw:], 1)
				alpha = -half * tau[c-1] * blas.Dotc(c, w[iw*ldw:], 1, a[c*lda:], 1)
				blas.Axpy(c, alpha, a[c*lda:], 1, w[iw*ldw:], 1)
			}
		}
		return
	}
	// Lower: reduce the first nb columns.
	for i := 0; i < nb; i++ {
		// A(i:n, i) -= A(i:n, 0:i)·conj(W(i, 0:i)) + W(i:n, 0:i)·conj(A(i, 0:i)).
		a[i+i*lda] = core.FromFloat[T](core.Re(a[i+i*lda]))
		lacgv(i, w[i:], ldw)
		blas.Gemv(cfg, NoTrans, n-i, i, -one, a[i:], lda, w[i:], ldw, one, a[i+i*lda:], 1)
		lacgv(i, w[i:], ldw)
		lacgv(i, a[i:], lda)
		blas.Gemv(cfg, NoTrans, n-i, i, -one, w[i:], ldw, a[i:], lda, one, a[i+i*lda:], 1)
		lacgv(i, a[i:], lda)
		a[i+i*lda] = core.FromFloat[T](core.Re(a[i+i*lda]))
		if i < n-1 {
			// Generate H(i) to annihilate A(i+2:n, i).
			alpha := a[i+1+i*lda]
			tau[i] = Larfg(n-i-1, &alpha, a[min(i+2, n-1)+i*lda:], 1)
			e[i] = core.Re(alpha)
			a[i+1+i*lda] = one
			// W(i+1:n, i), with W(0:i, i) as the temporary for Wᴴv and Vᴴv.
			blas.Hemv(Lower, n-i-1, one, a[i+1+(i+1)*lda:], lda, a[i+1+i*lda:], 1,
				zero, w[i+1+i*ldw:], 1)
			if i > 0 {
				blas.Gemv(cfg, ConjTrans, n-i-1, i, one, w[i+1:], ldw, a[i+1+i*lda:], 1,
					zero, w[i*ldw:], 1)
				blas.Gemv(cfg, NoTrans, n-i-1, i, -one, a[i+1:], lda, w[i*ldw:], 1,
					one, w[i+1+i*ldw:], 1)
				blas.Gemv(cfg, ConjTrans, n-i-1, i, one, a[i+1:], lda, a[i+1+i*lda:], 1,
					zero, w[i*ldw:], 1)
				blas.Gemv(cfg, NoTrans, n-i-1, i, -one, w[i+1:], ldw, w[i*ldw:], 1,
					one, w[i+1+i*ldw:], 1)
			}
			blas.Scal(n-i-1, tau[i], w[i+1+i*ldw:], 1)
			alpha = -half * tau[i] * blas.Dotc(n-i-1, w[i+1+i*ldw:], 1, a[i+1+i*lda:], 1)
			blas.Axpy(n-i-1, alpha, a[i+1+i*lda:], 1, w[i+1+i*ldw:], 1)
		}
	}
}

// Sytrd reduces a symmetric/Hermitian matrix to tridiagonal form
// (xSYTRD/xHETRD). Above the Ilaenv crossover the reduction is blocked:
// Latrd reduces an nb-column panel accumulating the update matrix W, and
// the unreduced part takes a single Hermitian rank-2k update
// A := A − V·Wᴴ − W·Vᴴ through the packed Level-3 engine, so roughly half
// the flops run at GEMM speed. Below the crossover the unblocked Sytd2 is
// used directly. Both paths produce the LAPACK storage convention, and the
// floating-point schedule is independent of the worker count (the Level-3
// engine is deterministic), so threaded runs are bit-identical to serial
// ones.
func Sytrd[T core.Scalar](cfg *core.Config, uplo Uplo, n int, a []T, lda int, d, e []float64, tau []T) {
	nb := Ilaenv(1, "SYTRD", n, -1, -1, -1)
	nx := max(nb, Ilaenv(3, "SYTRD", n, -1, -1, -1))
	if n <= nx {
		Sytd2(uplo, n, a, lda, d, e, tau)
		return
	}
	one := core.FromFloat[T](1)
	ldw := n
	w := blas.GetScratch[T](ldw * nb)
	defer blas.PutScratch(w)
	if uplo == Upper {
		// Peel nb-column panels off the high end; columns 0:kk stay for the
		// unblocked finish (kk > 0 because n > nx >= nb).
		kk := n - ((n-nx+nb-1)/nb)*nb
		for i1 := n - nb; i1 >= kk; i1 -= nb {
			cfg.Checkpoint() // once per panel
			Latrd(cfg, Upper, i1+nb, nb, a, lda, e, tau, w, ldw)
			blas.Her2k(cfg, Upper, NoTrans, i1, nb, -one, a[i1*lda:], lda, w, ldw, 1, a, lda)
			// Restore the superdiagonal overwritten by the reflectors and
			// record the diagonal of the reduced columns.
			for j := i1; j < i1+nb; j++ {
				a[j-1+j*lda] = core.FromFloat[T](e[j-1])
				d[j] = core.Re(a[j+j*lda])
			}
		}
		Sytd2(Upper, kk, a, lda, d, e, tau)
		return
	}
	var i1 int
	for i1 = 0; i1 < n-nx; i1 += nb {
		cfg.Checkpoint() // once per panel
		Latrd(cfg, Lower, n-i1, nb, a[i1+i1*lda:], lda, e[i1:], tau[i1:], w, ldw)
		blas.Her2k(cfg, Lower, NoTrans, n-i1-nb, nb, -one, a[i1+nb+i1*lda:], lda,
			w[nb:], ldw, 1, a[i1+nb+(i1+nb)*lda:], lda)
		for j := i1; j < i1+nb; j++ {
			a[j+1+j*lda] = core.FromFloat[T](e[j])
			d[j] = core.Re(a[j+j*lda])
		}
	}
	Sytd2(Lower, n-i1, a[i1+i1*lda:], lda, d[i1:], e[i1:], tau[i1:])
}

// tridiagQR hands out, in pooled scratch the caller releases, the n
// reflectors of Sytrd's Q as a QR-stored set of order n — b (n×n, leading
// dimension n; only the part below the diagonal is written, which is all the
// blocked QR routines read) and its tau — so that Orgtr and Ormtr are orgqr
// and ormqr on shapes whose blocks all start on multiples of the block size.
// Reflector 0 is a dummy (tau 0): Lower's Q is diag(1, H(0)·…·H(n−2)) with
// H(i) in a(i+2:n, i), i.e. column i+1 of the set. Upper's is
// diag(H(n−2)·…·H(0), 1) with H(i) in a(0:i, i+1); with J the reversal of
// 0..n−1, J·H(i)·J is the forward reflector n−1−i, so J·Q·J has Lower's form
// and the callers reverse what they apply Q to, or what orgqr generated.
func tridiagQR[T core.Scalar](uplo Uplo, n int, a []T, lda int, tau []T) (b, taub []T) {
	work := blas.GetScratch[T](n*n + n)
	b, taub = work[:n*n], work[n*n:]
	taub[0] = 0
	for c := 1; c < n; c++ {
		col := b[c*n:]
		if uplo == Lower {
			copy(col[c+1:n], a[c+1+(c-1)*lda:])
			taub[c] = tau[c-1]
			continue
		}
		src := a[(n-c)*lda:]
		for r := c + 1; r < n; r++ {
			col[r] = src[n-1-r]
		}
		taub[c] = tau[n-1-c]
	}
	clear(b[1:n])
	return b, taub
}

// Orgtr generates the unitary matrix Q from the reduction computed by
// Sytrd (xORGTR/xUNGTR), overwriting a with the n×n Q.
func Orgtr[T core.Scalar](cfg *core.Config, uplo Uplo, n int, a []T, lda int, tau []T) {
	if n == 0 {
		return
	}
	b, taub := tridiagQR(uplo, n, a, lda, tau)
	defer blas.PutScratch(b)
	orgqr(cfg, n, n, n, b, n, taub, nil)
	if uplo == Lower {
		Lacpy('A', n, n, b, n, a, lda)
		return
	}
	for j := 0; j < n; j++ {
		col := a[j*lda : j*lda+n]
		copy(col, b[(n-1-j)*n:])
		slices.Reverse(col)
	}
}

// Ormtr multiplies C by the unitary Q from Sytrd or its conjugate
// transpose (xORMTR/xUNMTR). Only side == Left is needed by this library's
// drivers and implemented.
func Ormtr[T core.Scalar](cfg *core.Config, uplo Uplo, trans Trans, m, n int, a []T, lda int, tau []T, c []T, ldc int) {
	if m <= 1 {
		return
	}
	b, taub := tridiagQR(uplo, m, a, lda, tau)
	defer blas.PutScratch(b)
	flipRows := func() {
		for j := 0; uplo == Upper && j < n; j++ {
			slices.Reverse(c[j*ldc : j*ldc+m])
		}
	}
	flipRows()
	ormqr(cfg, Left, trans, m, n, m, b, m, taub, c, ldc, nil)
	flipRows()
}

// Syev computes all eigenvalues and, optionally, eigenvectors of a
// symmetric (Hermitian for complex element types) matrix: the one body of
// the xSYEV/xHEEV and xSYEVD/xHEEVD drivers. If jobz is true, a is
// overwritten with the orthonormal eigenvectors; w receives the eigenvalues
// in ascending order. After the reduction the vectors come, up to order
// syevCrossover, from the QL/QR iteration on the formed Q (Orgtr, Steqr) and,
// above it, from divide & conquer on T with Q applied to them (Stevd, Ormtr).
// Returns the tridiagonal solver's failure count (0 on success).
func Syev[T core.Scalar](cfg *core.Config, jobz bool, uplo Uplo, n int, a []T, lda int, w []float64) int {
	if n == 0 {
		return 0
	}
	// Scale the matrix into the tridiagonal iteration's safe range when its
	// norm is extreme (the xSYEV anrm guard): squares of the entries appear
	// in the QL/QR shifts, so entries beyond sqrt(overflow) — or below
	// sqrt(safmin), where the shifts denormalize — are pre-scaled by Lascl
	// and the eigenvalues scaled back afterwards.
	smlnum := core.SafeMin[T]() / core.Eps[T]()
	rmin, rmax := math.Sqrt(smlnum), math.Sqrt(1/smlnum)
	anrm := Lansy(MaxAbs, uplo, n, a, lda)
	sigma := 1.0
	if anrm > 0 && anrm < rmin {
		sigma = rmin / anrm
	} else if anrm > rmax {
		sigma = rmax / anrm
	}
	if sigma != 1 {
		mt := MatUpper
		if uplo == Lower {
			mt = MatLower
		}
		Lascl(mt, 1, sigma, n, n, a, lda)
	}
	e, tau := blas.GetScratch[float64](n), blas.GetScratch[T](n)
	defer blas.PutScratch(e)
	defer blas.PutScratch(tau)
	Sytrd(cfg, uplo, n, a, lda, w, e, tau)
	var info int
	switch {
	case !jobz:
		info = Sterf(cfg, n, w, e)
	case n <= syevCrossover:
		Orgtr(cfg, uplo, n, a, lda, tau)
		info = Steqr(cfg, n, w, e, a, lda)
	default:
		z := blas.GetScratch[T](n * n)
		defer blas.PutScratch(z)
		if info = Stevd(cfg, n, w, e, z, n); info == 0 {
			Ormtr(cfg, uplo, NoTrans, n, n, a, lda, tau, z, n)
			Lacpy('A', n, n, z, n, a, lda)
		}
	}
	if sigma != 1 {
		for i := range w {
			w[i] /= sigma
		}
	}
	return info
}

// Syevd is the divide & conquer driver name for Syev (xSYEVD/xHEEVD).
func Syevd[T core.Scalar](cfg *core.Config, jobz bool, uplo Uplo, n int, a []T, lda int, w []float64) int {
	return Syev(cfg, jobz, uplo, n, a, lda, w)
}

// Stev computes all eigenvalues and, optionally, eigenvectors of a real
// symmetric tridiagonal matrix: the one body of the xSTEV and xSTEVD drivers.
// If z is non-nil it is overwritten with the eigenvectors (ldz stride), by the
// QL/QR iteration on the identity up to order syevCrossover and by the divide
// & conquer tree (Stevd) above it. Both solvers scale T into their safe range
// themselves — Steqr each block as xSTEQR, Stevd all of T as xSTEDC — which
// is the xSTEV tnrm guard, with or without vectors.
func Stev[T core.Scalar](cfg *core.Config, n int, d, e []float64, z []T, ldz int) int {
	switch {
	case z == nil:
		return Sterf(cfg, n, d, e)
	case n <= syevCrossover:
		Laset('A', n, n, core.FromFloat[T](0), core.FromFloat[T](1), z, ldz)
		return Steqr(cfg, n, d, e, z, ldz)
	}
	return Stevd(cfg, n, d, e, z, ldz)
}
