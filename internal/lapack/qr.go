package lapack

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
)

// Larfg generates an elementary Householder reflector H = I − τ·v·vᴴ such
// that Hᴴ·[alpha; x] = [beta; 0] with beta real (xLARFG). n is the order of
// the reflector (alpha plus n−1 elements of x). On return alpha holds beta
// and x holds the tail of v (v₀ = 1 implicitly).
func Larfg[T core.Scalar](n int, alpha *T, x []T, incX int) T {
	var tau T
	if n <= 0 {
		return tau
	}
	// Note n == 1 is not a quick return for complex element types: a
	// reflector may still be needed to rotate a complex alpha onto the
	// real axis (beta is always real).
	xnorm := blas.Nrm2(n-1, x, incX)
	alphr, alphi := core.Re(*alpha), core.Im(*alpha)
	if xnorm == 0 && alphi == 0 {
		return tau
	}
	beta := -core.Sign(Lapy3(alphr, alphi, xnorm), alphr)
	safmin := core.SafeMin[T]() / core.Eps[T]()
	knt := 0
	for math.Abs(beta) < safmin && knt < 20 {
		// Rescale to avoid harmful underflow.
		knt++
		blas.ScalReal(n-1, 1/safmin, x, incX)
		beta /= safmin
		alphr /= safmin
		alphi /= safmin
		xnorm = blas.Nrm2(n-1, x, incX)
		beta = -core.Sign(Lapy3(alphr, alphi, xnorm), alphr)
	}
	if core.IsComplex[T]() {
		tau = core.FromComplex[T](complex((beta-alphr)/beta, -alphi/beta))
	} else {
		tau = core.FromFloat[T]((beta - alphr) / beta)
	}
	scale := core.Div(core.FromFloat[T](1), core.FromComplex[T](complex(alphr-beta, alphi)))
	blas.Scal(n-1, scale, x, incX)
	for k := 0; k < knt; k++ {
		beta *= safmin
	}
	*alpha = core.FromFloat[T](beta)
	return tau
}

// Larf applies the elementary reflector H = I − τ·v·vᴴ to an m×n matrix C
// from the given side (xLARF). work must have length n (Left) or m (Right).
func Larf[T core.Scalar](cfg *core.Config, side Side, m, n int, v []T, incV int, tau T, c []T, ldc int, work []T) {
	if tau == 0 {
		return
	}
	one := core.FromFloat[T](1)
	zero := core.FromFloat[T](0)
	if side == Left {
		// w = Cᴴ·v; C -= τ·v·wᴴ.
		blas.Gemv(cfg, ConjTrans, m, n, one, c, ldc, v, incV, zero, work, 1)
		blas.Gerc(m, n, -tau, v, incV, work, 1, c, ldc)
		return
	}
	// w = C·v; C -= τ·w·vᴴ.
	blas.Gemv(cfg, NoTrans, m, n, one, c, ldc, v, incV, zero, work, 1)
	blas.Gerc(m, n, -tau, work, 1, v, incV, c, ldc)
}

// Geqr2 computes the unblocked QR factorization A = Q·R (xGEQR2). tau must
// have length min(m, n); work length at least n.
func Geqr2[T core.Scalar](cfg *core.Config, m, n int, a []T, lda int, tau []T, work []T) {
	for i := 0; i < min(m, n); i++ {
		tau[i] = Larfg(m-i, &a[i+i*lda], a[min(i+1, m-1)+i*lda:], 1)
		if i < n-1 {
			aii := a[i+i*lda]
			a[i+i*lda] = core.FromFloat[T](1)
			Larf(cfg, Left, m-i, n-i-1, a[i+i*lda:], 1, core.Conj(tau[i]), a[i+(i+1)*lda:], lda, work)
			a[i+i*lda] = aii
		}
	}
}

// Geqrf computes the QR factorization of an m×n matrix (xGEQRF), using
// blocked Level-3 updates above the ILAENV crossover.
func Geqrf[T core.Scalar](cfg *core.Config, m, n int, a []T, lda int, tau []T) {
	geqrfT(cfg, m, n, a, lda, tau).release()
}

// geqrfT is Geqrf for drivers that go on to use Q: it returns the block
// reflector triangles of the blocked path (nil when the unblocked one ran)
// for ormqr/orgqr. The caller releases the stack when done.
func geqrfT[T core.Scalar](cfg *core.Config, m, n int, a []T, lda int, tau []T) *blockT[T] {
	nb := Ilaenv(1, "GEQRF", m, n, -1, -1)
	if min(m, n) > Ilaenv(3, "GEQRF", m, n, -1, -1) {
		return geqrfBlocked(cfg, m, n, a, lda, tau, nb)
	}
	work := blas.GetScratch[T](max(1, n))
	defer blas.PutScratch(work)
	Geqr2(cfg, m, n, a, lda, tau, work)
	return nil
}

// Org2r generates the first k columns of the unitary matrix Q from the
// reflectors returned by Geqr2 (xORG2R/xUNG2R). a is m×n with n <= m.
func Org2r[T core.Scalar](cfg *core.Config, m, n, k int, a []T, lda int, tau []T) {
	if n <= 0 {
		return
	}
	work := blas.GetScratch[T](n)
	defer blas.PutScratch(work)
	// Columns k..n-1 start as unit vectors.
	for j := k; j < n; j++ {
		for i := 0; i < m; i++ {
			a[i+j*lda] = 0
		}
		a[j+j*lda] = core.FromFloat[T](1)
	}
	for i := k - 1; i >= 0; i-- {
		if i < n-1 {
			a[i+i*lda] = core.FromFloat[T](1)
			Larf(cfg, Left, m-i, n-i-1, a[i+i*lda:], 1, tau[i], a[i+(i+1)*lda:], lda, work)
		}
		if i < m-1 {
			blas.Scal(m-i-1, -tau[i], a[i+1+i*lda:], 1)
		}
		a[i+i*lda] = core.FromFloat[T](1) - tau[i]
		for j := 0; j < i; j++ {
			a[j+i*lda] = 0
		}
	}
}

// Orgqr generates the first k columns of Q from a QR factorization
// (xORGQR/xUNGQR), applying block reflectors when k exceeds the ILAENV
// crossover.
func Orgqr[T core.Scalar](cfg *core.Config, m, n, k int, a []T, lda int, tau []T) {
	orgqr(cfg, m, n, k, a, lda, tau, nil)
}

// orgqr is Orgqr with the optional T stack of the geqrfT call that produced
// a and tau (all k = min(m, n) reflectors of it).
func orgqr[T core.Scalar](cfg *core.Config, m, n, k int, a []T, lda int, tau []T, ts *blockT[T]) {
	if ts != nil {
		orgqrBlocked(cfg, m, n, k, a, lda, tau, ts)
		return
	}
	nb := Ilaenv(1, "ORGQR", m, n, k, -1)
	if k > Ilaenv(3, "ORGQR", m, n, k, -1) {
		orgqrBlocked(cfg, m, n, k, a, lda, tau, &blockT[T]{nb: nb})
		return
	}
	Org2r(cfg, m, n, k, a, lda, tau)
}

// Ormqr multiplies C by Q or Qᴴ from a QR factorization (xORMQR/xUNMQR):
// C := op(Q)·C (Left) or C·op(Q) (Right), where a holds the k reflectors in
// its first k columns. trans must be NoTrans or ConjTrans (use ConjTrans
// for Qᵀ in real arithmetic).
func Ormqr[T core.Scalar](cfg *core.Config, side Side, trans Trans, m, n, k int, a []T, lda int, tau []T, c []T, ldc int) {
	ormqr(cfg, side, trans, m, n, k, a, lda, tau, c, ldc, nil)
}

// ormqr is Ormqr with the optional T stack of the geqrfT call that produced
// a and tau.
func ormqr[T core.Scalar](cfg *core.Config, side Side, trans Trans, m, n, k int, a []T, lda int, tau []T, c []T, ldc int, ts *blockT[T]) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	if ts != nil {
		ormqrBlocked(cfg, side, trans, m, n, k, a, lda, tau, c, ldc, ts)
		return
	}
	nb := Ilaenv(1, "ORMQR", m, n, k, -1)
	if k > Ilaenv(3, "ORMQR", m, n, k, -1) {
		ormqrBlocked(cfg, side, trans, m, n, k, a, lda, tau, c, ldc, &blockT[T]{nb: nb})
		return
	}
	wlen := n
	if side == Right {
		wlen = m
	}
	work := blas.GetScratch[T](wlen)
	defer blas.PutScratch(work)
	notran := trans == NoTrans
	forward := (side == Left) != notran
	start, end, step := k-1, -1, -1
	if forward {
		start, end, step = 0, k, 1
	}
	for i := start; i != end; i += step {
		taui := tau[i]
		if !notran {
			taui = core.Conj(taui)
		}
		aii := a[i+i*lda]
		a[i+i*lda] = core.FromFloat[T](1)
		if side == Left {
			Larf(cfg, Left, m-i, n, a[i+i*lda:], 1, taui, c[i:], ldc, work)
		} else {
			Larf(cfg, Right, m, n-i, a[i+i*lda:], 1, taui, c[i*ldc:], ldc, work)
		}
		a[i+i*lda] = aii
	}
}

// Gelq2 computes the unblocked LQ factorization A = L·Q (xGELQ2). tau must
// have length min(m, n); work length at least m.
func Gelq2[T core.Scalar](cfg *core.Config, m, n int, a []T, lda int, tau []T, work []T) {
	for i := 0; i < min(m, n); i++ {
		lacgv(n-i, a[i+i*lda:], lda)
		tau[i] = Larfg(n-i, &a[i+i*lda], a[i+min(i+1, n-1)*lda:], lda)
		if i < m-1 {
			aii := a[i+i*lda]
			a[i+i*lda] = core.FromFloat[T](1)
			Larf(cfg, Right, m-i-1, n-i, a[i+i*lda:], lda, tau[i], a[i+1+i*lda:], lda, work)
			a[i+i*lda] = aii
		}
		lacgv(n-i, a[i+i*lda:], lda)
	}
}

// Gelqf computes the LQ factorization of an m×n matrix (xGELQF), using
// blocked Level-3 updates above the ILAENV crossover.
func Gelqf[T core.Scalar](cfg *core.Config, m, n int, a []T, lda int, tau []T) {
	nb := Ilaenv(1, "GELQF", m, n, -1, -1)
	if min(m, n) > Ilaenv(3, "GELQF", m, n, -1, -1) {
		gelqfBlocked(cfg, m, n, a, lda, tau, nb)
		return
	}
	work := blas.GetScratch[T](max(1, m))
	defer blas.PutScratch(work)
	Gelq2(cfg, m, n, a, lda, tau, work)
}

// Orglq generates the first m rows of Q from an LQ factorization
// (xORGLQ/xUNGLQ), a m×n with m <= n and the k reflectors in its first k
// rows. The rows hold the conjugated vectors of reflectors whose product
// H(k)ᴴ…H(1)ᴴ is the conjugate transpose of the QR product of the same
// vectors and tau, so Q is generated columnwise by orgqr from aᴴ and
// transposed back.
func Orglq[T core.Scalar](cfg *core.Config, m, n, k int, a []T, lda int, tau []T) {
	if m <= 0 {
		return
	}
	b := blas.GetScratch[T](n * m)
	defer blas.PutScratch(b)
	blas.ConjTransposeTo(k, n, a, lda, b, n)
	orgqr(cfg, n, m, k, b, n, tau, nil)
	blas.ConjTransposeTo(n, m, b, n, a, lda)
}

// Ormlq multiplies C by Q or Qᴴ from an LQ factorization (xORMLQ/xUNMLQ).
// trans must be NoTrans or ConjTrans.
func Ormlq[T core.Scalar](cfg *core.Config, side Side, trans Trans, m, n, k int, a []T, lda int, tau []T, c []T, ldc int) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	wlen := n
	if side == Right {
		wlen = m
	}
	work := blas.GetScratch[T](wlen)
	defer blas.PutScratch(work)
	notran := trans == NoTrans
	// For LQ, Q = H(k)ᴴ…H(1)ᴴ with reflectors stored in rows. Application
	// order is the mirror of Ormqr.
	forward := (side == Left) == notran
	start, end, step := k-1, -1, -1
	if forward {
		start, end, step = 0, k, 1
	}
	vbuf := blas.GetScratch[T](max(m, n))
	defer blas.PutScratch(vbuf)
	v := vbuf[:0]
	for i := start; i != end; i += step {
		var taui T
		if notran {
			taui = core.Conj(tau[i])
		} else {
			taui = tau[i]
		}
		// Row i of A holds vᴴ (conjugated, from Gelq2): reconstruct v.
		var l int
		if side == Left {
			l = m - i
		} else {
			l = n - i
		}
		v = v[:0]
		v = append(v, core.FromFloat[T](1))
		for j := 1; j < l; j++ {
			v = append(v, core.Conj(a[i+(i+j)*lda]))
		}
		if side == Left {
			Larf(cfg, Left, m-i, n, v, 1, taui, c[i:], ldc, work)
		} else {
			Larf(cfg, Right, m, n-i, v, 1, taui, c[i*ldc:], ldc, work)
		}
	}
}
