package blas

// Fused substitution steps for the small-matrix LU path. Both are thin
// dispatchers over single assembly kernels so a whole panel column or block
// update costs one call; the portable bodies keep the semantics (not the
// rounding: the kernels use fused multiply-adds) on builds without the
// vector kernels.

// LUPanelF64 performs the fused LU panel step for pivot column col of rows
// elements: col *= inv, then each of the w following panel columns
// (spaced lda apart, the first starting at rest) absorbs the rank-1 update
// rest[c·lda+1 : c·lda+1+rows] -= rest[c·lda] · col. The multiplier of each
// column is the element directly above its update range, which is exactly
// the U row entry the panel factorization just produced. Because the first
// updated column is the next elimination step's pivot column, the return
// value is the index (within that column's rows elements) of its first
// maximal |v| — the next pivot — or -1 when w == 0.
func LUPanelF64(rows, w int, inv float64, col, rest []float64, lda int) int {
	if rows <= 0 {
		return -1
	}
	if asmF64() {
		r := &placeholderF64
		if w > 0 {
			r = &rest[0]
		}
		return int(dluPanelF64(int64(rows), int64(w), inv, &col[0], r, int64(lda)))
	}
	col = col[:rows]
	for i := range col {
		col[i] *= inv
	}
	for c := 0; c < w; c++ {
		t := rest[c*lda]
		dst := rest[c*lda+1 : c*lda+1+rows]
		for i, v := range col {
			dst[i] -= t * v
		}
	}
	if w == 0 {
		return -1
	}
	return iamaxFloat(rest[1 : 1+rows])
}

// placeholderF64 stands in for the rest pointer when w == 0 and the caller's
// slice may be empty; the kernel never dereferences it.
var placeholderF64 float64

// TrsmLLU8F64 solves the unit-lower triangular system L·X = B in place for
// an 8×8 L against as many leading groups of four columns of B as the
// vector kernel covers, returning how many columns it handled (a multiple
// of four; 0 without the vector kernels). l is L staged column-major
// 8-wide with zeros at and above the diagonal, so each elimination step is
// a pair of full-register fused multiply-adds per column. The caller
// finishes the remaining columns.
func TrsmLLU8F64(cols int, l *[56]float64, b []float64, ldb int) int {
	if !asmF64() {
		return 0
	}
	g := cols >> 2
	if g == 0 {
		return 0
	}
	dtrsmLLU8x4F64(int64(g), &l[0], &b[0], int64(ldb))
	return g << 2
}

// GemvSub8F64 folds eight scaled source columns into y:
// y[0:n] -= Σ_q t[q]·b_q[0:n], the eight columns of b spaced ldb apart.
// It is the block update of the small-matrix forward/back substitution
// (getrsSmallF64). On the asm route it is the kernel table's float64
// gemvSub8 leaf; its portable loop — one axpy per column, zero multipliers
// skipped — is not the table's portable gemvSub8 (an eight-term sum per
// element, under trsmBase's right side): the two round differently and each
// caller's portable-route bits are pinned by TestLevel12Golden (GemvSub8F64,
// Trsm), so they stay two loops.
func GemvSub8F64(n int, t, b []float64, ldb int, y []float64) {
	if n <= 0 {
		return
	}
	if asmF64() {
		dgemvSub8(int64(n), &t[0], &b[0], int64(ldb), &y[0])
		return
	}
	y = y[:n]
	for q := 0; q < 8; q++ {
		tv := t[q]
		if tv == 0 {
			continue
		}
		col := b[q*ldb : q*ldb+n]
		for i, v := range col {
			y[i] -= tv * v
		}
	}
}
