package blas

import "repro/internal/core"

// Pack-free small-matrix GEMM, the BLASFEO-style regime below the packed
// engine's crossover. The packed engine (gemm.go) amortizes its two copy
// passes over many micro-tile visits; below ~64×64 each packed element is
// reused only a handful of times and the copies dominate, which is exactly
// the per-item shape of a batched workload. Here the micro-kernel runs
// directly on the caller's strided column-major operands: A tile columns are
// contiguous vector loads (stride lda between k steps), B elements are
// strided broadcasts, C is touched once per tile in the epilogue. No scratch
// buffers, no Fork — the path allocates nothing and never leaves the calling
// goroutine, so batch drivers can run thousands of these per second per
// worker with zero steady-state garbage.
//
// Gemm takes the path for NoTrans/NoTrans products with every dimension within
// SmallOK's crossover. The float64 rows of the kernel table ride an AVX2
// strip kernel, or its Go twin (gemmSmallF64); every other row uses the
// strided 4×4 micro-tile (gemmSmallPortable).

// The row's small leaf accumulates C += alpha·A·B (beta already applied by
// the caller) over column-major operands A (m×k, stride lda) and B (k×n,
// stride ldb). alpha must be non-zero and m, n, k positive.

// gemmSmallF64 builds the float64 AVX2 rows' small leaf, which tiles the
// product for the strip kernel — the assembly, or with twin set its Go twin:
// each group of four C columns is one kernel call covering every full 8-row
// strip, with the ragged rows (m mod 8) and columns (n mod 4) finished by the
// portable micro-tile.
func gemmSmallF64(twin bool) func(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	return func(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
		strips := m / 8
		mEdge := strips * 8
		jr := 0
		for ; jr+4 <= n; jr += 4 {
			switch {
			case strips == 0:
			case twin:
				gemmSmallStripFma(strips, k, a, lda, b[jr*ldb:], ldb, c[jr*ldc:], ldc, alpha)
			default:
				dgemmSmallStripF64(int64(strips), int64(k), &a[0], int64(lda),
					&b[jr*ldb], int64(ldb), &c[jr*ldc], int64(ldc), alpha)
			}
			if mEdge < m {
				smallTile(m-mEdge, 4, k, alpha, a[mEdge:], lda, b[jr*ldb:], ldb, c[mEdge+jr*ldc:], ldc)
			}
		}
		if cols := n - jr; cols > 0 {
			for ir := 0; ir < m; ir += 4 {
				rows := min(4, m-ir)
				smallTile(rows, cols, k, alpha, a[ir:], lda, b[jr*ldb:], ldb, c[ir+jr*ldc:], ldc)
			}
		}
	}
}

// gemmSmallPortable covers the small regime with strided 4×4 register tiles
// for every element type.
func gemmSmallPortable[T core.Scalar](m, n, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int) {
	for jr := 0; jr < n; jr += 4 {
		cols := min(4, n-jr)
		for ir := 0; ir < m; ir += 4 {
			rows := min(4, m-ir)
			smallTile(rows, cols, k, alpha, a[ir:], lda, b[jr*ldb:], ldb, c[ir+jr*ldc:], ldc)
		}
	}
}

// smallTile accumulates the rows×cols tile C += alpha·A·B with rows ≤ 8 and
// cols ≤ 4, reading A columns contiguously and B rows at stride ldb. The
// full 4×4 case keeps its accumulators in named locals (registers); ragged
// tiles accumulate in a fixed-size buffer so alpha is still applied exactly
// once per C element.
func smallTile[T core.Scalar](rows, cols, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int) {
	if rows == 4 && cols == 4 {
		smallTile4x4(k, alpha, a, lda, b, ldb, c, ldc)
		return
	}
	var acc [8 * 4]T
	for p := 0; p < k; p++ {
		av := a[p*lda : p*lda+rows]
		brow := b[p:]
		for q := 0; q < cols; q++ {
			bq := brow[q*ldb]
			arow := acc[q*8 : q*8+rows]
			for i := range av {
				arow[i] += av[i] * bq
			}
		}
	}
	for q := 0; q < cols; q++ {
		col := c[q*ldc : q*ldc+rows]
		arow := acc[q*8:]
		for i := range col {
			col[i] += alpha * arow[i]
		}
	}
}

// smallTile4x4 is the full-tile specialization: the 16 accumulators live in
// locals, so each k step is 8 loads (4 contiguous from the A column, 4
// strided from the B row) feeding 16 multiply-adds with no stores.
func smallTile4x4[T core.Scalar](k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int) {
	var (
		c00, c01, c02, c03 T
		c10, c11, c12, c13 T
		c20, c21, c22, c23 T
		c30, c31, c32, c33 T
	)
	ldb2, ldb3 := 2*ldb, 3*ldb
	for p := 0; p < k; p++ {
		av := a[p*lda : p*lda+4 : p*lda+4]
		a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
		brow := b[p:]
		b0, b1, b2, b3 := brow[0], brow[ldb], brow[ldb2], brow[ldb3]
		c00 += a0 * b0
		c10 += a1 * b0
		c20 += a2 * b0
		c30 += a3 * b0
		c01 += a0 * b1
		c11 += a1 * b1
		c21 += a2 * b1
		c31 += a3 * b1
		c02 += a0 * b2
		c12 += a1 * b2
		c22 += a2 * b2
		c32 += a3 * b2
		c03 += a0 * b3
		c13 += a1 * b3
		c23 += a2 * b3
		c33 += a3 * b3
	}
	col := c[0:4:4]
	col[0] += alpha * c00
	col[1] += alpha * c10
	col[2] += alpha * c20
	col[3] += alpha * c30
	col = c[ldc : ldc+4 : ldc+4]
	col[0] += alpha * c01
	col[1] += alpha * c11
	col[2] += alpha * c21
	col[3] += alpha * c31
	col = c[2*ldc : 2*ldc+4 : 2*ldc+4]
	col[0] += alpha * c02
	col[1] += alpha * c12
	col[2] += alpha * c22
	col[3] += alpha * c32
	col = c[3*ldc : 3*ldc+4 : 3*ldc+4]
	col[0] += alpha * c03
	col[1] += alpha * c13
	col[2] += alpha * c23
	col[3] += alpha * c33
}

// gemmDots is Gemm's inner-product route, the counterpart of skinny for
// C += alpha·op(A)·B with op(A) = Aᵀ or Aᴴ (conj) of few rows over a long k —
// the V1ᴴ·V2 and C2ᴴ·V2 products of a Householder panel and the Qᴴ·B blocks
// of a least-squares solve. Packing would copy all of A and B to produce a
// few elements of C each; here every element of C is one chain of the row's
// dot8 leaf over the caller's columns of A and B: from eight rows of C on,
// three columns at a time on the row's dot4x3 tile where it has one, and the
// rest eight rows per dot8 call. When m is not a multiple of the tile's rows
// the last call starts at m−8 (m−4) and only its new rows are kept: an
// element's chain does not depend on its neighbours. Under eight rows each
// element is one dot. Workers split the columns of C, and the leaf an element
// gets depends on m alone, so the bits do not depend on the thread count. vol
// is the whole update's multiply volume, which sets the workers.
func gemmDots[T core.Scalar](cfg *core.Config, kern *kernel[T], conj bool, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int, vol int) {
	parallelRange(n, level3Workers(cfg, vol), func(lo, hi int) {
		j := lo
		if m >= CholNB && kern.dot4x3 != nil {
			for ; j+3 <= hi; j += 3 {
				for i := 0; i < m; i += 4 {
					i0 := min(i, m-4)
					s := kern.dot4x3(k, a[i0*lda:(i0+3)*lda+k], lda, b[j*ldb:(j+2)*ldb+k], ldb)
					for p := 0; p < 3; p++ {
						cj := c[i0+(j+p)*ldc : i0+(j+p)*ldc+4]
						for q := i - i0; q < 4; q++ {
							cj[q] += alpha * s[q+4*p]
						}
					}
				}
			}
		}
		for ; j < hi; j++ {
			x, cj := b[j*ldb:j*ldb+k], c[j*ldc:j*ldc+m]
			if m < CholNB {
				for i := range cj {
					cj[i] += alpha * kern.dot(a[i*lda:i*lda+k], x, conj)
				}
				continue
			}
			for i := 0; i < m; i += CholNB {
				i0 := min(i, m-CholNB)
				s := kern.dot8(kern, a[i0*lda:(i0+CholNB-1)*lda+k], lda, x, conj)
				for q := i - i0; q < CholNB; q++ {
					cj[i0+q] += alpha * s[q]
				}
			}
		}
	})
}
