package blas

import "repro/internal/core"

// Gemv computes y = alpha*op(A)*x + beta*y where op is selected by trans and
// A is an m×n column-major matrix.
func Gemv[T core.Scalar](cfg *core.Config, trans Trans, m, n int, alpha T, a []T, lda int, x []T, incX int, beta T, y []T, incY int) {
	if m == 0 || n == 0 {
		return
	}
	checkLD(m, lda)
	checkInc(incX)
	checkInc(incY)
	lenY := m
	if trans != NoTrans {
		lenY = n
		trans = realTrans[T](trans)
	}
	if beta != core.FromFloat[T](1) {
		if beta == 0 {
			for i, iy := 0, 0; i < lenY; i, iy = i+1, iy+incY {
				y[iy] = 0
			}
		} else {
			for i, iy := 0, 0; i < lenY; i, iy = i+1, iy+incY {
				y[iy] *= beta
			}
		}
	}
	if alpha == 0 {
		return
	}
	// The vectorizable operand is y for NoTrans (column axpys; x is only
	// read one scalar per column) and x for the transposed forms (column
	// dots; y is written one scalar per column). The dedicated loops run on
	// it at unit stride, one axpy or dot leaf of the kernel-table row per
	// column, while the scalar-side vector may be a strided matrix
	// row, as in the Latrd/Labrd panel sweeps. When the vector-shaped
	// operand is itself strided (Labrd's row updates, where y is a row of
	// A), it is gathered into pooled scratch for the sweep and, for y,
	// scattered back: O(m) copies against the O(m·n) sweep.
	//
	// Large sweeps additionally fan out over the worker pool, partitioned
	// by output elements (y rows for NoTrans, y columns for the transposed
	// forms): every output element is produced by exactly one worker with
	// the same per-element evaluation order as the serial loop, so threaded
	// runs stay bit-identical, and worker panics are contained by
	// parallelRange exactly as in the Level-3 engine.
	cfg = core.Cfg(cfg)
	k := kernelFor[T]()
	workers := cfg.Threads
	if workers > 1 && m*n < gemvParallelMinVol {
		workers = 1
	}
	if trans == NoTrans {
		yu := y
		if incY != 1 {
			yu = getScratch[T](m)
			for i, iy := 0, 0; i < m; i, iy = i+1, iy+incY {
				yu[i] = y[iy]
			}
		}
		if workers > 1 {
			parallelRange(m, workers, func(lo, hi int) {
				gemvNUnit(k, hi-lo, n, alpha, a[lo:], lda, x, incX, yu[lo:])
			})
		} else {
			gemvNUnit(k, m, n, alpha, a, lda, x, incX, yu)
		}
		if incY != 1 {
			for i, iy := 0, 0; i < m; i, iy = i+1, iy+incY {
				y[iy] = yu[i]
			}
			putScratch(yu)
		}
		return
	}
	xu := x
	if incX != 1 {
		xu = getScratch[T](m)
		for i, ix := 0, 0; i < m; i, ix = i+1, ix+incX {
			xu[i] = x[ix]
		}
	}
	if workers > 1 {
		parallelRange(n, workers, func(lo, hi int) {
			gemvTUnit(k, m, hi-lo, alpha, a[lo*lda:], lda, xu, y[lo*incY:], incY, trans == ConjTrans)
		})
	} else {
		gemvTUnit(k, m, n, alpha, a, lda, xu, y, incY, trans == ConjTrans)
	}
	if incX != 1 {
		putScratch(xu)
	}
}

// gemvNUnit is the unit-stride y += alpha·A·x column sweep: one axpy leaf per
// column.
func gemvNUnit[T core.Scalar](k *kernel[T], m, n int, alpha T, a []T, lda int, x []T, incX int, y []T) {
	for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
		if t := alpha * x[jx]; t != 0 {
			k.axpy(t, a[j*lda:j*lda+m], y)
		}
	}
}

// gemvTUnit is the unit-stride y += alpha·op(A)ᵀ·x sweep (op conjugates when
// conj is set): one dot leaf per column.
func gemvTUnit[T core.Scalar](k *kernel[T], m, n int, alpha T, a []T, lda int, x, y []T, incY int, conj bool) {
	for j, jy := 0, 0; j < n; j, jy = j+1, jy+incY {
		y[jy] += alpha * k.dot(a[j*lda:j*lda+m], x, conj)
	}
}

// Ger computes the rank-one update A += alpha*x*yᵀ (unconjugated; the
// reference xGER / xGERU).
func Ger[T core.Scalar](m, n int, alpha T, x []T, incX int, y []T, incY int, a []T, lda int) {
	ger(m, n, alpha, x, incX, y, incY, a, lda, false)
}

// Gerc computes the conjugated rank-one update A += alpha*x*yᴴ. For real
// element types that is Ger.
func Gerc[T core.Scalar](m, n int, alpha T, x []T, incX int, y []T, incY int, a []T, lda int) {
	ger(m, n, alpha, x, incX, y, incY, a, lda, core.IsComplex[T]())
}

func ger[T core.Scalar](m, n int, alpha T, x []T, incX int, y []T, incY int, a []T, lda int, conj bool) {
	if m == 0 || n == 0 || alpha == 0 {
		return
	}
	checkLD(m, lda)
	checkInc(incX)
	checkInc(incY)
	k := kernelFor[T]()
	for j, jy := 0, 0; j < n; j, jy = j+1, jy+incY {
		t := y[jy]
		if conj {
			t = core.Conj(t)
		}
		if t = alpha * t; t == 0 {
			continue
		}
		// The axpy into each column only needs x unit-stride; y supplies one
		// scalar multiplier per column at whatever stride (the factorization
		// leaves call this with y a row of A, incY = lda).
		if incX == 1 {
			k.axpy(t, x[:m], a[j*lda:])
		} else {
			axpyFrom(t, x, incX, a[j*lda:j*lda+m])
		}
	}
}

// triCols locates the stored columns of a triangular, symmetric or Hermitian
// matrix of order n in one of the three reference layouts: dense (leading
// dimension ld), packed (ld = 0) or band with k off-diagonals (leading
// dimension ld, k ≥ 0; dense and packed have k = −1).
type triCols[T core.Scalar] struct {
	a        []T
	uplo     Uplo
	n, ld, k int
}

func denseTri[T core.Scalar](uplo Uplo, n int, a []T, lda int) *triCols[T] {
	if n > 0 {
		checkLD(n, lda)
	}
	return &triCols[T]{a, uplo, n, lda, -1}
}

// span locates the stored part of column j: elements a[p : p+n], rows
// lo … lo+n−1, ending on the diagonal element for Upper and starting on it
// for Lower.
func (t *triCols[T]) span(j int) (p, n, lo int) {
	p, n = j*t.ld, j+1 // dense Upper
	switch upper := t.uplo == Upper; {
	case t.k >= 0 && upper:
		lo = max(0, j-t.k)
		p, n = p+t.k+lo-j, j-lo+1
	case t.k >= 0:
		lo, n = j, min(t.n-1, j+t.k)-j+1
	case t.ld == 0 && upper:
		p = j * (j + 1) / 2
	case t.ld == 0:
		lo, p, n = j, j*(2*t.n-j+1)/2, t.n-j
	case !upper:
		lo, p, n = j, p+j, t.n-j
	}
	return p, n, lo
}

func (t *triCols[T]) col(j int) (seg []T, lo int) {
	p, n, lo := t.span(j)
	return t.a[p : p+n], lo
}

// TriCol returns the stored part of column j of the uplo triangle of an
// order-n matrix in dense (ld > 0, k < 0), packed (ld = 0) or band (k ≥ 0
// off-diagonals) storage, and the row index of its first element.
func TriCol[T core.Scalar](uplo Uplo, n int, a []T, ld, k, j int) (seg []T, lo int) {
	t := triCols[T]{a, uplo, n, ld, k}
	return t.col(j)
}

// offDiag splits column j into its off-diagonal part, starting at row lo,
// and the diagonal element.
func (t *triCols[T]) offDiag(j int) (off []T, lo int, d T) {
	p, n, lo := t.span(j)
	if t.uplo == Upper {
		return t.a[p : p+n-1], lo, t.a[p+n-1]
	}
	return t.a[p+1 : p+n], lo + 1, t.a[p]
}

// from is x[i·inc:], empty when an empty column puts that past the end.
func from[T any](x []T, i, inc int) []T { return x[min(i*inc, len(x)):] }

// Symv computes y = alpha*A*x + beta*y where A is an n×n symmetric matrix of
// which only the uplo triangle is referenced.
func Symv[T core.Scalar](uplo Uplo, n int, alpha T, a []T, lda int, x []T, incX int, beta T, y []T, incY int) {
	symHemv(denseTri(uplo, n, a, lda), alpha, x, incX, beta, y, incY, false)
}

// Hemv computes y = alpha*A*x + beta*y where A is an n×n Hermitian matrix of
// which only the uplo triangle is referenced; the imaginary parts of the
// diagonal are assumed zero.
func Hemv[T core.Scalar](uplo Uplo, n int, alpha T, a []T, lda int, x []T, incX int, beta T, y []T, incY int) {
	symHemv(denseTri(uplo, n, a, lda), alpha, x, incX, beta, y, incY, core.IsComplex[T]())
}

// symHemv is the symmetric/Hermitian matrix–vector product over any layout:
// each stored column is visited exactly once, contributing both the axpy
// y += t1·col and the reflected dot Σ op(col_i)·x_i.
func symHemv[T core.Scalar](cols *triCols[T], alpha T, x []T, incX int, beta T, y []T, incY int, conj bool) {
	n := cols.n
	if n == 0 {
		return
	}
	checkInc(incX)
	checkInc(incY)
	for i, iy := 0, 0; i < n; i, iy = i+1, iy+incY {
		if beta == 0 {
			y[iy] = 0
		} else {
			y[iy] *= beta
		}
	}
	if alpha == 0 {
		return
	}
	if dense := cols.ld > 0 && cols.k < 0; dense && incX == 1 && incY == 1 {
		symHemvUnit(kernelFor[T](), cols.uplo, n, alpha, cols.a, cols.ld, x, y, conj)
		return
	}
	for j, jx, jy := 0, 0, 0; j < n; j, jx, jy = j+1, jx+incX, jy+incY {
		off, lo, d := cols.offDiag(j)
		if conj {
			d = realPart(d)
		}
		t1 := alpha * x[jx]
		t2 := axpyDotInc(t1, off, from(x, lo, incX), incX, from(y, lo, incY), incY, conj)
		y[jy] = symHemvDiag(cols.uplo, y[jy], alpha, t1, t2, d)
	}
}

// symHemvUnit is the dense unit-stride sweep, one axpyDot leaf of the kernel
// row per column: on float64 the fused kernel that streams the column through
// the core a single time for both halves — the dominant flop sink of the
// Latrd tridiagonal panels, which is why it does not pay the layout lookup of
// the loop above per column.
func symHemvUnit[T core.Scalar](k *kernel[T], uplo Uplo, n int, alpha T, a []T, lda int, x, y []T, conj bool) {
	for j := 0; j < n; j++ {
		col := a[j*lda : j*lda+n]
		t1, d := alpha*x[j], col[j]
		if conj {
			d = realPart(d)
		}
		var t2 T
		if uplo == Upper {
			if j > 0 {
				t2 = k.axpyDot(t1, col[:j], x, y, conj)
			}
		} else if j+1 < n {
			t2 = k.axpyDot(t1, col[j+1:], x[j+1:], y[j+1:], conj)
		}
		y[j] = symHemvDiag(uplo, y[j], alpha, t1, t2, d)
	}
}

// symHemvDiag finishes column j: y_j + t1·d + alpha·t2, d the diagonal
// element. Upper adds the sum of the two terms, Lower one after the other —
// each triangle's rounding since the first version.
func symHemvDiag[T core.Scalar](uplo Uplo, yj, alpha, t1, t2, d T) T {
	if uplo == Upper {
		return yj + (t1*d + alpha*t2)
	}
	return yj + t1*d + alpha*t2
}

// realPart is v with its imaginary part dropped: how the Hermitian routines
// read and keep a diagonal element.
func realPart[T core.Scalar](v T) T { return core.FromFloat[T](core.Re(v)) }

// Syr computes the symmetric rank-one update A += alpha*x*xᵀ on the uplo
// triangle of A.
func Syr[T core.Scalar](uplo Uplo, n int, alpha T, x []T, incX int, a []T, lda int) {
	syrHer(denseTri(uplo, n, a, lda), alpha, x, incX, false)
}

// Her computes the Hermitian rank-one update A += alpha*x*xᴴ with real
// alpha on the uplo triangle of A.
func Her[T core.Scalar](uplo Uplo, n int, alpha float64, x []T, incX int, a []T, lda int) {
	syrHer(denseTri(uplo, n, a, lda), core.FromFloat[T](alpha), x, incX, true)
}

// syrHer is the rank-one update of the stored triangle over a dense or packed
// layout: A += alpha·x·xᵀ, or alpha·x·xᴴ with the diagonal kept real when
// herm is set. (Only the symmetric form skips a zero multiplier.)
func syrHer[T core.Scalar](cols *triCols[T], alpha T, x []T, incX int, herm bool) {
	if cols.n == 0 || alpha == 0 {
		return
	}
	checkInc(incX)
	conj := herm && core.IsComplex[T]()
	for j, jx := 0, 0; j < cols.n; j, jx = j+1, jx+incX {
		t := x[jx]
		if conj {
			t = core.Conj(t)
		}
		if t = alpha * t; t == 0 && !herm {
			continue
		}
		seg, lo := cols.col(j)
		axpyFrom(t, from(x, lo, incX), incX, seg)
		if conj {
			cols.realDiag(seg)
		}
	}
}

// realDiag drops the imaginary part of the diagonal element of the stored
// column seg.
func (t *triCols[T]) realDiag(seg []T) {
	d := &seg[0]
	if t.uplo == Upper {
		d = &seg[len(seg)-1]
	}
	*d = realPart(*d)
}

// Syr2 computes the symmetric rank-two update A += alpha*x*yᵀ + alpha*y*xᵀ
// on the uplo triangle of A.
func Syr2[T core.Scalar](uplo Uplo, n int, alpha T, x []T, incX int, y []T, incY int, a []T, lda int) {
	syr2Her2(denseTri(uplo, n, a, lda), alpha, x, incX, y, incY, false)
}

// Her2 computes the Hermitian rank-two update
// A += alpha*x*yᴴ + conj(alpha)*y*xᴴ on the uplo triangle of A.
func Her2[T core.Scalar](uplo Uplo, n int, alpha T, x []T, incX int, y []T, incY int, a []T, lda int) {
	syr2Her2(denseTri(uplo, n, a, lda), alpha, x, incX, y, incY, core.IsComplex[T]())
}

// syr2Her2 is the rank-two update of the stored triangle over a dense or
// packed layout; conj selects the Hermitian form, whose diagonal stays real.
func syr2Her2[T core.Scalar](cols *triCols[T], alpha T, x []T, incX int, y []T, incY int, conj bool) {
	if cols.n == 0 || alpha == 0 {
		return
	}
	checkInc(incX)
	checkInc(incY)
	for j, jx, jy := 0, 0, 0; j < cols.n; j, jx, jy = j+1, jx+incX, jy+incY {
		t1, t2 := alpha*y[jy], alpha*x[jx]
		if conj {
			t1, t2 = alpha*core.Conj(y[jy]), core.Conj(alpha)*core.Conj(x[jx])
		}
		seg, lo := cols.col(j)
		for i, ix, iy := 0, lo*incX, lo*incY; i < len(seg); i, ix, iy = i+1, ix+incX, iy+incY {
			seg[i] += x[ix]*t1 + y[iy]*t2
		}
		if conj {
			cols.realDiag(seg)
		}
	}
}

// Trmv computes x = op(A)*x where A is an n×n triangular matrix.
func Trmv[T core.Scalar](uplo Uplo, trans Trans, diag Diag, n int, a []T, lda int, x []T, incX int) {
	checkInc(incX)
	cols := denseTri(uplo, n, a, lda)
	conj := realTrans[T](trans) == ConjTrans
	// An upper triangular op(A) is swept top-down, a lower one bottom-up, so
	// every x_j is consumed before it is overwritten.
	j, step := 0, 1
	if (uplo == Upper) != (trans == NoTrans) {
		j, step = n-1, -1
	}
	for ; j >= 0 && j < n; j += step {
		off, lo, d := cols.offDiag(j)
		xj := &x[j*incX]
		if trans == NoTrans {
			if *xj != 0 {
				axpyInc(*xj, off, from(x, lo, incX), incX, false)
				if diag == NonUnit {
					*xj *= d
				}
			}
			continue
		}
		t := *xj
		if diag == NonUnit {
			if conj {
				d = core.Conj(d)
			}
			t = d * t
		}
		// The column's dot runs away from the diagonal.
		*xj = dotAcc(t, off, from(x, lo, incX), incX, conj, uplo == Upper, false)
	}
}

// Trsv solves op(A)*x = b where A is an n×n triangular matrix and b is
// passed in and overwritten by x.
func Trsv[T core.Scalar](uplo Uplo, trans Trans, diag Diag, n int, a []T, lda int, x []T, incX int) {
	triSolve(denseTri(uplo, n, a, lda), kernelFor[T](), trans, diag, x, incX)
}

// triSolve is the triangular solve op(A)·x = b over any layout, b passed in
// x. Without transposition each elimination step is an axpy down (up) the
// stored column — for the dense layout at unit stride the axpy leaf of its
// row k (k is nil for the layouts that stay on the strided loop) — and with
// it a dot, folded into b_j term by term towards the diagonal.
func triSolve[T core.Scalar](cols *triCols[T], k *kernel[T], trans Trans, diag Diag, x []T, incX int) {
	checkInc(incX)
	n := cols.n
	conj := realTrans[T](trans) == ConjTrans
	j, step := 0, 1
	if (cols.uplo == Upper) == (trans == NoTrans) {
		j, step = n-1, -1
	}
	for ; j >= 0 && j < n; j += step {
		off, lo, d := cols.offDiag(j)
		xj := &x[j*incX]
		switch {
		case trans != NoTrans:
			t := dotAcc(*xj, off, from(x, lo, incX), incX, conj, cols.uplo == Lower, true)
			if diag == NonUnit {
				if conj {
					d = core.Conj(d)
				}
				t = core.Div(t, d)
			}
			*xj = t
		case *xj != 0:
			if diag == NonUnit {
				*xj = core.Div(*xj, d)
			}
			if k == nil || incX != 1 {
				axpyInc(*xj, off, from(x, lo, incX), incX, true)
			} else if t := -*xj; t != 0 && len(off) > 0 {
				k.axpy(t, off, x[lo:])
			}
		}
	}
}
