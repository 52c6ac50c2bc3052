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
	// it at unit stride — no generic index arithmetic in the hot path,
	// bounds checks hoisted by slicing, and the float64 FMA kernels when the
	// CPU has them — while the scalar-side vector may be a strided matrix
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
	workers := cfg.Threads
	if workers > 1 && m*n < cfg.GemvParallelMinVol {
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
				gemvNUnit(hi-lo, n, alpha, a[lo:], lda, x, incX, yu[lo:])
			})
		} else {
			gemvNUnit(m, n, alpha, a, lda, x, incX, yu)
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
			gemvTUnit(m, hi-lo, alpha, a[lo*lda:], lda, xu, y[lo*incY:], incY, trans == ConjTrans)
		})
	} else {
		gemvTUnit(m, n, alpha, a, lda, xu, y, incY, trans == ConjTrans)
	}
	if incX != 1 {
		putScratch(xu)
	}
}

// gemvNUnit is the unit-stride y += alpha·A·x column sweep. Each column is
// one fused axpy; float64 dispatches to the AVX2+FMA kernel.
func gemvNUnit[T core.Scalar](m, n int, alpha T, a []T, lda int, x []T, incX int, y []T) {
	if ys, ok := any(y).([]float64); ok && asmF64() {
		xs := any(x).([]float64)
		as := any(a).([]float64)
		al := any(alpha).(float64)
		for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
			if t := al * xs[jx]; t != 0 {
				daxpyFma(int64(m), t, &as[j*lda], &ys[0])
			}
		}
		return
	}
	if ys, ok := any(y).([]float32); ok && asmF32() {
		xs := any(x).([]float32)
		as := any(a).([]float32)
		al := any(alpha).(float32)
		for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
			if t := al * xs[jx]; t != 0 {
				saxpyFma(int64(m), t, &as[j*lda], &ys[0])
			}
		}
		return
	}
	yy := y[:m]
	for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
		t := alpha * x[jx]
		if t == 0 {
			continue
		}
		col := a[j*lda : j*lda+m]
		for i := range yy {
			yy[i] += t * col[i]
		}
	}
}

// gemvTUnit is the unit-stride y += alpha·op(A)ᵀ·x sweep (op conjugates when
// conj is set). Each column is one dot product; float64 dispatches to the
// AVX2+FMA kernel (conjugation is the identity for reals).
func gemvTUnit[T core.Scalar](m, n int, alpha T, a []T, lda int, x, y []T, incY int, conj bool) {
	if ys, ok := any(y).([]float64); ok && asmF64() {
		xs := any(x).([]float64)
		as := any(a).([]float64)
		al := any(alpha).(float64)
		for j, jy := 0, 0; j < n; j, jy = j+1, jy+incY {
			ys[jy] += al * ddotFma(int64(m), &as[j*lda], &xs[0])
		}
		return
	}
	if ys, ok := any(y).([]float32); ok && asmF32() {
		xs := any(x).([]float32)
		as := any(a).([]float32)
		al := any(alpha).(float32)
		for j, jy := 0, 0; j < n; j, jy = j+1, jy+incY {
			ys[jy] += al * sdotFma(int64(m), &as[j*lda], &xs[0])
		}
		return
	}
	xx := x[:m]
	for j, jy := 0, 0; j < n; j, jy = j+1, jy+incY {
		col := a[j*lda : j*lda+m]
		var sum T
		if conj {
			for i, xv := range xx {
				sum += core.Conj(col[i]) * xv
			}
		} else {
			for i, xv := range xx {
				sum += col[i] * xv
			}
		}
		y[jy] += alpha * sum
	}
}

// Ger computes the rank-one update A += alpha*x*yᵀ (unconjugated; the
// reference xGER / xGERU).
func Ger[T core.Scalar](m, n int, alpha T, x []T, incX int, y []T, incY int, a []T, lda int) {
	if m == 0 || n == 0 || alpha == 0 {
		return
	}
	checkLD(m, lda)
	checkInc(incX)
	checkInc(incY)
	if incX == 1 {
		// The axpy into each column only needs x unit-stride; y supplies one
		// scalar multiplier per column at whatever stride (the factorization
		// leaves call this with y a row of A, incY = lda).
		if as, ok := any(a).([]float64); ok && asmF64() {
			xs := any(x).([]float64)
			ys := any(y).([]float64)
			al := any(alpha).(float64)
			for j, jy := 0, 0; j < n; j, jy = j+1, jy+incY {
				if t := al * ys[jy]; t != 0 {
					daxpyFma(int64(m), t, &xs[0], &as[j*lda])
				}
			}
			return
		}
		if as, ok := any(a).([]float32); ok && asmF32() {
			xs := any(x).([]float32)
			ys := any(y).([]float32)
			al := any(alpha).(float32)
			for j, jy := 0, 0; j < n; j, jy = j+1, jy+incY {
				if t := al * ys[jy]; t != 0 {
					saxpyFma(int64(m), t, &xs[0], &as[j*lda])
				}
			}
			return
		}
	}
	if incX == 1 && incY == 1 {
		xx := x[:m]
		for j := 0; j < n; j++ {
			t := alpha * y[j]
			if t == 0 {
				continue
			}
			col := a[j*lda : j*lda+m]
			for i := range col {
				col[i] += xx[i] * t
			}
		}
		return
	}
	for j, jy := 0, 0; j < n; j, jy = j+1, jy+incY {
		t := alpha * y[jy]
		if t == 0 {
			continue
		}
		col := a[j*lda:]
		for i, ix := 0, 0; i < m; i, ix = i+1, ix+incX {
			col[i] += x[ix] * t
		}
	}
}

// Gerc computes the conjugated rank-one update A += alpha*x*yᴴ. For real
// element types that is Ger, vector kernels included.
func Gerc[T core.Scalar](m, n int, alpha T, x []T, incX int, y []T, incY int, a []T, lda int) {
	if core.IsComplex[T]() {
		gercComplex(m, n, alpha, x, incX, y, incY, a, lda)
		return
	}
	Ger(m, n, alpha, x, incX, y, incY, a, lda)
}

func gercComplex[T core.Scalar](m, n int, alpha T, x []T, incX int, y []T, incY int, a []T, lda int) {
	if m == 0 || n == 0 || alpha == 0 {
		return
	}
	checkLD(m, lda)
	checkInc(incX)
	checkInc(incY)
	for j, jy := 0, 0; j < n; j, jy = j+1, jy+incY {
		t := alpha * core.Conj(y[jy])
		if t == 0 {
			continue
		}
		col := a[j*lda:]
		for i, ix := 0, 0; i < m; i, ix = i+1, ix+incX {
			col[i] += x[ix] * t
		}
	}
}

// Symv computes y = alpha*A*x + beta*y where A is an n×n symmetric matrix of
// which only the uplo triangle is referenced.
func Symv[T core.Scalar](uplo Uplo, n int, alpha T, a []T, lda int, x []T, incX int, beta T, y []T, incY int) {
	symHemv(uplo, n, alpha, a, lda, x, incX, beta, y, incY, false)
}

// Hemv computes y = alpha*A*x + beta*y where A is an n×n Hermitian matrix of
// which only the uplo triangle is referenced; the imaginary parts of the
// diagonal are assumed zero.
func Hemv[T core.Scalar](uplo Uplo, n int, alpha T, a []T, lda int, x []T, incX int, beta T, y []T, incY int) {
	symHemv(uplo, n, alpha, a, lda, x, incX, beta, y, incY, true)
}

func symHemv[T core.Scalar](uplo Uplo, n int, alpha T, a []T, lda int, x []T, incX int, beta T, y []T, incY int, conj bool) {
	if n == 0 {
		return
	}
	checkLD(n, lda)
	checkInc(incX)
	checkInc(incY)
	cj := func(v T) T {
		if conj {
			return core.Conj(v)
		}
		return v
	}
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
	if incX == 1 && incY == 1 {
		symHemvUnit(uplo, n, alpha, a, lda, x, y, conj)
		return
	}
	for j, jx, jy := 0, 0, 0; j < n; j, jx, jy = j+1, jx+incX, jy+incY {
		t1 := alpha * x[jx]
		var t2 T
		col := a[j*lda:]
		if uplo == Upper {
			for i, ix, iy := 0, 0, 0; i < j; i, ix, iy = i+1, ix+incX, iy+incY {
				y[iy] += t1 * col[i]
				t2 += cj(col[i]) * x[ix]
			}
			d := col[j]
			if conj {
				d = core.FromFloat[T](core.Re(d))
			}
			y[jy] += t1*d + alpha*t2
		} else {
			d := col[j]
			if conj {
				d = core.FromFloat[T](core.Re(d))
			}
			y[jy] += t1 * d
			for i, ix, iy := j+1, (j+1)*incX, (j+1)*incY; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
				y[iy] += t1 * col[i]
				t2 += cj(col[i]) * x[ix]
			}
			y[jy] += alpha * t2
		}
	}
}

// symHemvUnit is the unit-stride symmetric/Hermitian matrix–vector sweep:
// each stored column A(lo:hi, j) is visited exactly once, contributing both
// the axpy y += t1·col and the reflected dot Σ conj(col_i)·x_i. float64
// runs the fused AVX2+FMA kernel, which streams the column through the core
// a single time for both halves — this is the dominant flop sink of the
// Latrd tridiagonal panels.
func symHemvUnit[T core.Scalar](uplo Uplo, n int, alpha T, a []T, lda int, x, y []T, conj bool) {
	if ys, ok := any(y).([]float64); ok && asmF64() {
		xs := any(x).([]float64)
		as := any(a).([]float64)
		al := any(alpha).(float64)
		if uplo == Upper {
			for j := 0; j < n; j++ {
				t1 := al * xs[j]
				col := as[j*lda:]
				dot := 0.0
				if j > 0 {
					dot = daxpyDotFma(int64(j), t1, &col[0], &xs[0], &ys[0])
				}
				ys[j] += t1*col[j] + al*dot
			}
		} else {
			for j := 0; j < n; j++ {
				t1 := al * xs[j]
				col := as[j*lda:]
				ys[j] += t1 * col[j]
				if r := n - j - 1; r > 0 {
					dot := daxpyDotFma(int64(r), t1, &col[j+1], &xs[j+1], &ys[j+1])
					ys[j] += al * dot
				}
			}
		}
		return
	}
	cj := func(v T) T {
		if conj {
			return core.Conj(v)
		}
		return v
	}
	for j := 0; j < n; j++ {
		t1 := alpha * x[j]
		var t2 T
		col := a[j*lda:]
		if uplo == Upper {
			for i := 0; i < j; i++ {
				y[i] += t1 * col[i]
				t2 += cj(col[i]) * x[i]
			}
			d := col[j]
			if conj {
				d = core.FromFloat[T](core.Re(d))
			}
			y[j] += t1*d + alpha*t2
		} else {
			d := col[j]
			if conj {
				d = core.FromFloat[T](core.Re(d))
			}
			y[j] += t1 * d
			for i := j + 1; i < n; i++ {
				y[i] += t1 * col[i]
				t2 += cj(col[i]) * x[i]
			}
			y[j] += alpha * t2
		}
	}
}

// Syr computes the symmetric rank-one update A += alpha*x*xᵀ on the uplo
// triangle of A.
func Syr[T core.Scalar](uplo Uplo, n int, alpha T, x []T, incX int, a []T, lda int) {
	if n == 0 || alpha == 0 {
		return
	}
	checkLD(n, lda)
	checkInc(incX)
	for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
		t := alpha * x[jx]
		if t == 0 {
			continue
		}
		col := a[j*lda:]
		if uplo == Upper {
			for i, ix := 0, 0; i <= j; i, ix = i+1, ix+incX {
				col[i] += x[ix] * t
			}
		} else {
			for i, ix := j, jx; i < n; i, ix = i+1, ix+incX {
				col[i] += x[ix] * t
			}
		}
	}
}

// Her computes the Hermitian rank-one update A += alpha*x*xᴴ with real
// alpha on the uplo triangle of A.
func Her[T core.Scalar](uplo Uplo, n int, alpha float64, x []T, incX int, a []T, lda int) {
	if n == 0 || alpha == 0 {
		return
	}
	checkLD(n, lda)
	checkInc(incX)
	al := core.FromFloat[T](alpha)
	for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
		t := al * core.Conj(x[jx])
		col := a[j*lda:]
		if uplo == Upper {
			for i, ix := 0, 0; i < j; i, ix = i+1, ix+incX {
				col[i] += x[ix] * t
			}
			col[j] = core.FromFloat[T](core.Re(col[j]) + core.Re(x[jx]*t))
		} else {
			col[j] = core.FromFloat[T](core.Re(col[j]) + core.Re(x[jx]*t))
			for i, ix := j+1, jx+incX; i < n; i, ix = i+1, ix+incX {
				col[i] += x[ix] * t
			}
		}
	}
}

// Syr2 computes the symmetric rank-two update A += alpha*x*yᵀ + alpha*y*xᵀ
// on the uplo triangle of A.
func Syr2[T core.Scalar](uplo Uplo, n int, alpha T, x []T, incX int, y []T, incY int, a []T, lda int) {
	if n == 0 || alpha == 0 {
		return
	}
	checkLD(n, lda)
	checkInc(incX)
	checkInc(incY)
	for j, jx, jy := 0, 0, 0; j < n; j, jx, jy = j+1, jx+incX, jy+incY {
		t1 := alpha * y[jy]
		t2 := alpha * x[jx]
		col := a[j*lda:]
		lo, hi := 0, j+1
		if uplo == Lower {
			lo, hi = j, n
		}
		for i, ix, iy := lo, lo*incX, lo*incY; i < hi; i, ix, iy = i+1, ix+incX, iy+incY {
			col[i] += x[ix]*t1 + y[iy]*t2
		}
	}
}

// Her2 computes the Hermitian rank-two update
// A += alpha*x*yᴴ + conj(alpha)*y*xᴴ on the uplo triangle of A.
func Her2[T core.Scalar](uplo Uplo, n int, alpha T, x []T, incX int, y []T, incY int, a []T, lda int) {
	if n == 0 || alpha == 0 {
		return
	}
	checkLD(n, lda)
	checkInc(incX)
	checkInc(incY)
	for j, jx, jy := 0, 0, 0; j < n; j, jx, jy = j+1, jx+incX, jy+incY {
		t1 := alpha * core.Conj(y[jy])
		t2 := core.Conj(alpha) * core.Conj(x[jx])
		col := a[j*lda:]
		if uplo == Upper {
			for i, ix, iy := 0, 0, 0; i < j; i, ix, iy = i+1, ix+incX, iy+incY {
				col[i] += x[ix]*t1 + y[iy]*t2
			}
			col[j] = core.FromFloat[T](core.Re(col[j]) + core.Re(x[jx]*t1+y[jy]*t2))
		} else {
			col[j] = core.FromFloat[T](core.Re(col[j]) + core.Re(x[jx]*t1+y[jy]*t2))
			for i, ix, iy := j+1, jx+incX, jy+incY; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
				col[i] += x[ix]*t1 + y[iy]*t2
			}
		}
	}
}

// Trmv computes x = op(A)*x where A is an n×n triangular matrix.
func Trmv[T core.Scalar](uplo Uplo, trans Trans, diag Diag, n int, a []T, lda int, x []T, incX int) {
	if n == 0 {
		return
	}
	checkLD(n, lda)
	checkInc(incX)
	nonUnit := diag == NonUnit
	switch {
	case trans == NoTrans && uplo == Upper:
		for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
			if x[jx] == 0 {
				continue
			}
			t := x[jx]
			col := a[j*lda:]
			for i, ix := 0, 0; i < j; i, ix = i+1, ix+incX {
				x[ix] += t * col[i]
			}
			if nonUnit {
				x[jx] *= col[j]
			}
		}
	case trans == NoTrans && uplo == Lower:
		for j, jx := n-1, (n-1)*incX; j >= 0; j, jx = j-1, jx-incX {
			if x[jx] == 0 {
				continue
			}
			t := x[jx]
			col := a[j*lda:]
			for i, ix := n-1, (n-1)*incX; i > j; i, ix = i-1, ix-incX {
				x[ix] += t * col[i]
			}
			if nonUnit {
				x[jx] *= col[j]
			}
		}
	case uplo == Upper: // Trans or ConjTrans
		for j, jx := n-1, (n-1)*incX; j >= 0; j, jx = j-1, jx-incX {
			col := a[j*lda:]
			var t T
			if trans == ConjTrans {
				if nonUnit {
					t = core.Conj(col[j]) * x[jx]
				} else {
					t = x[jx]
				}
				for i, ix := j-1, jx-incX; i >= 0; i, ix = i-1, ix-incX {
					t += core.Conj(col[i]) * x[ix]
				}
			} else {
				if nonUnit {
					t = col[j] * x[jx]
				} else {
					t = x[jx]
				}
				for i, ix := j-1, jx-incX; i >= 0; i, ix = i-1, ix-incX {
					t += col[i] * x[ix]
				}
			}
			x[jx] = t
		}
	default: // Trans/ConjTrans, Lower
		for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
			col := a[j*lda:]
			var t T
			if trans == ConjTrans {
				if nonUnit {
					t = core.Conj(col[j]) * x[jx]
				} else {
					t = x[jx]
				}
				for i, ix := j+1, jx+incX; i < n; i, ix = i+1, ix+incX {
					t += core.Conj(col[i]) * x[ix]
				}
			} else {
				if nonUnit {
					t = col[j] * x[jx]
				} else {
					t = x[jx]
				}
				for i, ix := j+1, jx+incX; i < n; i, ix = i+1, ix+incX {
					t += col[i] * x[ix]
				}
			}
			x[jx] = t
		}
	}
}

// Trsv solves op(A)*x = b where A is an n×n triangular matrix and b is
// passed in and overwritten by x.
func Trsv[T core.Scalar](uplo Uplo, trans Trans, diag Diag, n int, a []T, lda int, x []T, incX int) {
	if n == 0 {
		return
	}
	checkLD(n, lda)
	checkInc(incX)
	nonUnit := diag == NonUnit
	switch {
	case trans == NoTrans && uplo == Upper:
		if incX == 1 {
			// Contiguous x: the trailing update of each elimination step is
			// a unit-stride axpy, which Axpy routes to the FMA kernels.
			for j := n - 1; j >= 0; j-- {
				col := a[j*lda:]
				if x[j] != 0 {
					if nonUnit {
						x[j] = core.Div(x[j], col[j])
					}
					Axpy(j, -x[j], col, 1, x, 1)
				}
			}
			return
		}
		for j, jx := n-1, (n-1)*incX; j >= 0; j, jx = j-1, jx-incX {
			col := a[j*lda:]
			if x[jx] != 0 {
				if nonUnit {
					x[jx] = core.Div(x[jx], col[j])
				}
				t := x[jx]
				for i, ix := j-1, jx-incX; i >= 0; i, ix = i-1, ix-incX {
					x[ix] -= t * col[i]
				}
			}
		}
	case trans == NoTrans && uplo == Lower:
		if incX == 1 {
			for j := 0; j < n; j++ {
				col := a[j*lda:]
				if x[j] != 0 {
					if nonUnit {
						x[j] = core.Div(x[j], col[j])
					}
					Axpy(n-j-1, -x[j], col[j+1:], 1, x[j+1:], 1)
				}
			}
			return
		}
		for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
			col := a[j*lda:]
			if x[jx] != 0 {
				if nonUnit {
					x[jx] = core.Div(x[jx], col[j])
				}
				t := x[jx]
				for i, ix := j+1, jx+incX; i < n; i, ix = i+1, ix+incX {
					x[ix] -= t * col[i]
				}
			}
		}
	case uplo == Upper: // Trans/ConjTrans
		for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
			col := a[j*lda:]
			t := x[jx]
			if trans == ConjTrans {
				for i, ix := 0, 0; i < j; i, ix = i+1, ix+incX {
					t -= core.Conj(col[i]) * x[ix]
				}
				if nonUnit {
					t = core.Div(t, core.Conj(col[j]))
				}
			} else {
				for i, ix := 0, 0; i < j; i, ix = i+1, ix+incX {
					t -= col[i] * x[ix]
				}
				if nonUnit {
					t = core.Div(t, col[j])
				}
			}
			x[jx] = t
		}
	default: // Trans/ConjTrans, Lower
		for j, jx := n-1, (n-1)*incX; j >= 0; j, jx = j-1, jx-incX {
			col := a[j*lda:]
			t := x[jx]
			if trans == ConjTrans {
				for i, ix := n-1, (n-1)*incX; i > j; i, ix = i-1, ix-incX {
					t -= core.Conj(col[i]) * x[ix]
				}
				if nonUnit {
					t = core.Div(t, core.Conj(col[j]))
				}
			} else {
				for i, ix := n-1, (n-1)*incX; i > j; i, ix = i-1, ix-incX {
					t -= col[i] * x[ix]
				}
				if nonUnit {
					t = core.Div(t, col[j])
				}
			}
			x[jx] = t
		}
	}
}
