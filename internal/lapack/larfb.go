package lapack

import (
	"repro/internal/blas"
	"repro/internal/core"
)

// Larft forms the triangular factor T of a block reflector
// H = I − V·T·Vᴴ from k forward, columnwise-stored elementary reflectors
// (xLARFT with direct='F', storev='C'). v is n×k with the reflectors in
// its columns (unit diagonal implicit); t is k×k upper triangular output.
//
// Above a small size threshold the Gram matrix VᴴV — the only O(n·k²) part
// of the computation — is built with a single rank-n Herk on a cleaned copy
// of V (explicit unit diagonal, zeroed upper triangle), so the T build runs
// on the packed Level-3 engine instead of k strided Gemv sweeps.
func Larft[T core.Scalar](cfg *core.Config, n, k int, v []T, ldv int, tau []T, t []T, ldt int) {
	if n >= 64 && k >= 8 {
		larftGemm(cfg, n, k, v, ldv, tau, t, ldt)
		return
	}
	larft2(cfg, n, k, v, ldv, tau, t, ldt)
}

// larft2 is the Level-2 Larft: one Gemv and one Trmv per reflector. It is
// the leaf of the recursive QR panel (geqrt3).
func larft2[T core.Scalar](cfg *core.Config, n, k int, v []T, ldv int, tau []T, t []T, ldt int) {
	for i := 0; i < k; i++ {
		if tau[i] == 0 {
			for j := 0; j <= i; j++ {
				t[j+i*ldt] = 0
			}
			continue
		}
		vii := v[i+i*ldv]
		v[i+i*ldv] = core.FromFloat[T](1)
		// t(0:i, i) = −tau(i) · V(i:n, 0:i)ᴴ · V(i:n, i)
		blas.Gemv(cfg, ConjTrans, n-i, i, -tau[i], v[i:], ldv, v[i+i*ldv:], 1,
			core.FromFloat[T](0), t[i*ldt:], 1)
		v[i+i*ldv] = vii
		// t(0:i, i) = T(0:i, 0:i) · t(0:i, i)
		blas.Trmv(Upper, NoTrans, NonUnit, i, t, ldt, t[i*ldt:], 1)
		t[i+i*ldt] = tau[i]
	}
}

// larftGemm is the Level-3 path of Larft: s = VᴴV once via Herk, then the
// usual triangular recurrence t(0:i,i) = T·(−tau_i·s(0:i,i)) per column.
// The strict upper triangle of s(j,i), j < i, equals V(i:n,j)ᴴ·V(i:n,i)
// exactly because the cleaned copy has an explicit unit diagonal and zeros
// above it. Both scratch arrays are pooled and uninitialized: of vc only
// the rows above the diagonal need clearing, and Herk with beta = 0 writes
// every entry of s that is read.
func larftGemm[T core.Scalar](cfg *core.Config, n, k int, v []T, ldv int, tau []T, t []T, ldt int) {
	vc := blas.GetScratch[T](n * k)
	defer blas.PutScratch(vc)
	for j := 0; j < k; j++ {
		col := vc[j*n : j*n+n]
		clear(col[:j])
		col[j] = core.FromFloat[T](1)
		copy(col[j+1:], v[j+1+j*ldv:j*ldv+n])
	}
	s := blas.GetScratch[T](k * k)
	defer blas.PutScratch(s)
	blas.Herk(cfg, Upper, ConjTrans, k, n, 1, vc, n, 0, s, k)
	for i := 0; i < k; i++ {
		if tau[i] == 0 {
			for j := 0; j <= i; j++ {
				t[j+i*ldt] = 0
			}
			continue
		}
		for j := 0; j < i; j++ {
			t[j+i*ldt] = -tau[i] * s[j+i*k]
		}
		blas.Trmv(Upper, NoTrans, NonUnit, i, t, ldt, t[i*ldt:], 1)
		t[i+i*ldt] = tau[i]
	}
}

// Larfb applies a block reflector H or Hᴴ from the left to an m×n matrix C
// (xLARFB with side='L', direct='F', storev='C'). v is m×k, t is the k×k
// factor from Larft; work must have length at least n*k.
func Larfb[T core.Scalar](cfg *core.Config, trans Trans, m, n, k int, v []T, ldv int, t []T, ldt int, c []T, ldc int, work []T) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	one := core.FromFloat[T](1)
	ldw := max(1, n)
	w := work[:ldw*k]
	// W := C1ᴴ (n×k), where C1 = C(0:k, :).
	blas.ConjTransposeTo(k, n, c, ldc, w, ldw)
	// W := W · V1 (V1 unit lower triangular k×k).
	blas.Trmm(Right, Lower, NoTrans, Unit, n, k, one, v, ldv, w, ldw)
	if m > k {
		// W += C2ᴴ · V2.
		blas.Gemm(cfg, ConjTrans, NoTrans, n, k, m-k, one, c[k:], ldc, v[k:], ldv, one, w, ldw)
	}
	// W := W · Tᴴ (apply H) or W · T (apply Hᴴ).
	tt := ConjTrans
	if trans != NoTrans {
		tt = NoTrans
	}
	blas.Trmm(Right, Upper, tt, NonUnit, n, k, one, t, ldt, w, ldw)
	// C2 −= V2 · Wᴴ.
	if m > k {
		blas.Gemm(cfg, NoTrans, ConjTrans, m-k, n, k, -one, v[k:], ldv, w, ldw, one, c[k:], ldc)
	}
	// W := W · V1ᴴ.
	blas.Trmm(Right, Lower, ConjTrans, Unit, n, k, one, v, ldv, w, ldw)
	// C1 −= Wᴴ.
	cplx := core.IsComplex[T]()
	for j := 0; j < n; j++ {
		for i := 0; i < k; i++ {
			v := w[j+i*ldw]
			if cplx {
				v = core.Conj(v)
			}
			c[i+j*ldc] -= v
		}
	}
}

// larfbRight applies a block reflector H or Hᴴ from the right to an m×n
// matrix C (xLARFB with side='R', direct='F', storev='C'): C := C·H (trans
// = NoTrans) or C·Hᴴ. v is n×k columnwise, t is the k×k factor from Larft;
// work must have length at least m*k.
func larfbRight[T core.Scalar](cfg *core.Config, trans Trans, m, n, k int, v []T, ldv int, t []T, ldt int, c []T, ldc int, work []T) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	one := core.FromFloat[T](1)
	ldw := max(1, m)
	w := work[:ldw*k]
	// W := C1 (m×k), where C1 = C(:, 0:k).
	for j := 0; j < k; j++ {
		copy(w[j*ldw:j*ldw+m], c[j*ldc:j*ldc+m])
	}
	// W := W · V1 (V1 unit lower triangular k×k).
	blas.Trmm(Right, Lower, NoTrans, Unit, m, k, one, v, ldv, w, ldw)
	if n > k {
		// W += C2 · V2.
		blas.Gemm(cfg, NoTrans, NoTrans, m, k, n-k, one, c[k*ldc:], ldc, v[k:], ldv, one, w, ldw)
	}
	// W := W · T (apply H) or W · Tᴴ (apply Hᴴ).
	tt := NoTrans
	if trans != NoTrans {
		tt = ConjTrans
	}
	blas.Trmm(Right, Upper, tt, NonUnit, m, k, one, t, ldt, w, ldw)
	// C2 −= W · V2ᴴ.
	if n > k {
		blas.Gemm(cfg, NoTrans, ConjTrans, m, n-k, k, -one, w, ldw, v[k:], ldv, one, c[k*ldc:], ldc)
	}
	// W := W · V1ᴴ.
	blas.Trmm(Right, Lower, ConjTrans, Unit, m, k, one, v, ldv, w, ldw)
	// C1 −= W.
	for j := 0; j < k; j++ {
		for i := 0; i < m; i++ {
			c[i+j*ldc] -= w[i+j*ldw]
		}
	}
}

// blockT is the stack of compact-WY triangles a blocked QR factorization
// leaves behind: the factor T of the block reflector that starts at column i
// (a multiple of nb) is the upper triangle at t[i*nb:], leading dimension nb.
// Drivers that go on to apply or generate Q hand it to ormqr/orgqr, whose
// blocked loops then skip their own Larft pass over V. A stack with nil t
// carries only the block size: every triangle is built on demand.
type blockT[T core.Scalar] struct {
	nb int
	t  []T
}

// block returns the triangle of the block reflector made of columns
// i:i+ib of a factored form: the stack's own, or — with nothing handed over —
// Larft's, built into scratch from the block's rows×ib reflectors v and
// their tau.
func (b *blockT[T]) block(cfg *core.Config, i, ib, rows int, v []T, ldv int, tau []T, scratch []T) []T {
	if b.t != nil {
		return b.t[i*b.nb:]
	}
	Larft(cfg, rows, ib, v, ldv, tau, scratch, b.nb)
	return scratch
}

// release returns the stack's storage to the scratch pool; nil is a no-op.
func (b *blockT[T]) release() {
	if b != nil {
		blas.PutScratch(b.t)
	}
}

// geqrfBlocked is the Level-3 QR factorization (xGEQRF): each panel is
// factored by the recursive compact-WY geqrt3, which leaves the panel's T in
// its slot of the returned stack (pooled; the caller releases it), and the
// trailing matrix is updated with that block reflector.
func geqrfBlocked[T core.Scalar](cfg *core.Config, m, n int, a []T, lda int, tau []T, nb int) *blockT[T] {
	mn := min(m, n)
	ts := &blockT[T]{nb: nb, t: blas.GetScratch[T](nb * mn)}
	work := blas.GetScratch[T](max(1, n) * nb)
	defer blas.PutScratch(work)
	for j := 0; j < mn; j += nb {
		jb := min(nb, mn-j)
		cfg.Checkpoint() // once per panel
		t := ts.t[j*nb:]
		geqrt3(cfg, m-j, jb, a[j+j*lda:], lda, tau[j:j+jb], t, nb, work)
		if j+jb < n {
			Larfb(cfg, ConjTrans, m-j, n-j-jb, jb, a[j+j*lda:], lda, t, nb,
				a[j+(j+jb)*lda:], lda, work)
		}
	}
	return ts
}

// geqrt3 computes the QR factorization of an m×n panel (m ≥ n) together
// with the triangular factor T of its block reflector, recursively
// (Elmroth–Gustavson; xGEQRT3): factor the left half, apply its block
// reflector to the right half, factor the right half below the left's R, and
// fill in T12 = −T11·(V1ᴴ·V2)·T22. At qrLeafWidth columns, and on panels
// shorter than qrRecurseMinRows, Geqr2 and the Level-2 Larft finish. All
// O(m·n²) work above the leaves runs in Gemm, and T costs no second pass over
// V. tau receives the scalar factors (the diagonal of T); t is n×n upper
// triangular, its lower triangle is not referenced; work must hold n²/4
// elements and at least n.
func geqrt3[T core.Scalar](cfg *core.Config, m, n int, a []T, lda int, tau []T, t []T, ldt int, work []T) {
	if n <= qrLeafWidth || m < qrRecurseMinRows {
		Geqr2(cfg, m, n, a, lda, tau, work)
		larft2(cfg, m, n, a, lda, tau, t, ldt)
		return
	}
	one := core.FromFloat[T](1)
	n1 := n / 2
	n2 := n - n1
	a12, a22 := a[n1*lda:], a[n1+n1*lda:]
	t12, t22 := t[n1*ldt:], t[n1+n1*ldt:]
	geqrt3(cfg, m, n1, a, lda, tau[:n1], t, ldt, work)
	Larfb(cfg, ConjTrans, m, n2, n1, a, lda, t, ldt, a12, lda, work)
	geqrt3(cfg, m-n1, n2, a22, lda, tau[n1:], t22, ldt, work)
	// T12 := V1ᴴ·V2 over the rows the two halves share: rows n1:n of V1
	// against the unit lower triangle of V2, then everything below row n.
	blas.ConjTransposeTo(n2, n1, a[n1:], lda, t12, ldt)
	blas.Trmm(Right, Lower, NoTrans, Unit, n1, n2, one, a22, lda, t12, ldt)
	if m > n {
		blas.Gemm(cfg, ConjTrans, NoTrans, n1, n2, m-n, one, a[n:], lda, a12[n:], lda, one, t12, ldt)
	}
	// T12 := −T11·T12·T22.
	blas.Trmm(Left, Upper, NoTrans, NonUnit, n1, n2, -one, t, ldt, t12, ldt)
	blas.Trmm(Right, Upper, NoTrans, NonUnit, n1, n2, one, t22, ldt, t12, ldt)
}

// gelqfBlocked is the Level-3 LQ factorization (xGELQF). Gelq2 stores row i
// of the panel as conj(v_i), so each panel's reflectors are materialized
// into a columnwise scratch V (unit diagonal explicit, conjugated tail);
// the trailing rows then take C := C·(I − V·T·Vᴴ) through the columnwise
// Larft and the right-side Larfb — no rowwise variants needed.
func gelqfBlocked[T core.Scalar](cfg *core.Config, m, n int, a []T, lda int, tau []T, nb int) {
	mn := min(m, n)
	work := blas.GetScratch[T](max(1, m) * nb)
	defer blas.PutScratch(work)
	tmat := blas.GetScratch[T](nb * nb)
	defer blas.PutScratch(tmat)
	vbuf := blas.GetScratch[T](max(1, n) * nb)
	defer blas.PutScratch(vbuf)
	for j := 0; j < mn; j += nb {
		jb := min(nb, mn-j)
		Gelq2(cfg, jb, n-j, a[j+j*lda:], lda, tau[j:j+jb], work)
		if j+jb < m {
			nv := n - j
			for i := 0; i < jb; i++ {
				col := vbuf[i*nv : i*nv+nv]
				for l := 0; l < i; l++ {
					col[l] = 0
				}
				col[i] = core.FromFloat[T](1)
				for l := i + 1; l < nv; l++ {
					col[l] = core.Conj(a[j+i+(j+l)*lda])
				}
			}
			Larft(cfg, nv, jb, vbuf, nv, tau[j:j+jb], tmat, nb)
			larfbRight(cfg, NoTrans, m-j-jb, nv, jb, vbuf, nv, tmat, nb,
				a[j+jb+j*lda:], lda, work)
		}
	}
}

// orgqrBlocked generates the explicit Q factor from Geqrf output using block
// reflectors (xORGQR/xUNGQR), back-to-front: the block reflector is applied
// to the columns to its right by one Larfb and to its own columns — where it
// meets [I; 0] — in closed form, [I; 0] − V·W with W = T·V1ᴴ upper triangular
// (V1 the unit lower triangle on top of V), three small Trmm instead of a
// Level-2 Org2r. The block triangles are ts's: handed over by the
// factorization, or built by Larft.
func orgqrBlocked[T core.Scalar](cfg *core.Config, m, n, k int, a []T, lda int, tau []T, ts *blockT[T]) {
	nb := ts.nb
	one := core.FromFloat[T](1)
	// Columns k:n see no reflector of their own: unit vectors.
	for j := k; j < n; j++ {
		clear(a[j*lda : j*lda+m])
		a[j+j*lda] = one
	}
	tmat := blas.GetScratch[T](nb * nb)
	defer blas.PutScratch(tmat)
	work := blas.GetScratch[T](max(1, n) * nb)
	defer blas.PutScratch(work)
	for i := ((k - 1) / nb) * nb; i >= 0; i -= nb {
		ib := min(nb, k-i)
		v := a[i+i*lda:]
		t := ts.block(cfg, i, ib, m-i, v, lda, tau[i:i+ib], tmat)
		if i+ib < n {
			Larfb(cfg, NoTrans, m-i, n-i-ib, ib, v, lda, t, nb, a[i+(i+ib)*lda:], lda, work)
		}
		w := work[:ib*ib]
		for j := 0; j < ib; j++ {
			copy(w[j*ib:], t[j*nb:j*nb+j+1])
			clear(w[j*ib+j+1 : (j+1)*ib])
		}
		blas.Trmm(Right, Lower, ConjTrans, Unit, ib, ib, one, v, lda, w, ib)
		blas.Trmm(Right, Upper, NoTrans, NonUnit, m-i-ib, ib, -one, w, ib, v[ib:], lda)
		blas.Trmm(Left, Lower, NoTrans, Unit, ib, ib, -one, v, lda, w, ib)
		for j := 0; j < ib; j++ {
			clear(a[(i+j)*lda : (i+j)*lda+i])
			copy(v[j*lda:], w[j*ib:(j+1)*ib])
			v[j+j*lda] += one
		}
	}
}

// ormqrBlocked applies Q or Qᴴ from Geqrf output to C using block
// reflectors (xORMQR/xUNMQR). The block triangles are ts's: handed over by
// the factorization, or built by Larft.
func ormqrBlocked[T core.Scalar](cfg *core.Config, side Side, trans Trans, m, n, k int, a []T, lda int, tau []T, c []T, ldc int, ts *blockT[T]) {
	nb := ts.nb
	notran := trans == NoTrans
	// Block order: same reflector ordering as the unblocked Ormqr loop.
	forward := (side == Left) != notran
	nq, nw := m, n // order of Q, rows of the Larfb workspace
	if side == Right {
		nq, nw = n, m
	}
	tmat := blas.GetScratch[T](nb * nb)
	defer blas.PutScratch(tmat)
	work := blas.GetScratch[T](max(1, nw) * nb)
	defer blas.PutScratch(work)
	step := func(i int) {
		ib := min(nb, k-i)
		t := ts.block(cfg, i, ib, nq-i, a[i+i*lda:], lda, tau[i:i+ib], tmat)
		if side == Left {
			Larfb(cfg, trans, m-i, n, ib, a[i+i*lda:], lda, t, nb, c[i:], ldc, work)
		} else {
			larfbRight(cfg, trans, m, n-i, ib, a[i+i*lda:], lda, t, nb, c[i*ldc:], ldc, work)
		}
	}
	if forward {
		for i := 0; i < k; i += nb {
			step(i)
		}
	} else {
		for i := ((k - 1) / nb) * nb; i >= 0; i -= nb {
			step(i)
		}
	}
}
