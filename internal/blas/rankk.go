package blas

import "repro/internal/core"

// The triangle routines — Syrk, Herk, Syr2k, Her2k and Gemmt — on the packed
// engine (packedEngine, gemm.go). A blocked sweep over independent Gemm calls
// would re-pack its own (overlapping) slices of A in every call — for a
// factorization-sized Herk the packing traffic alone cost a third of the
// run. The engine packs each kc-deep rank slab exactly once per operand and
// only visits tiles that intersect the stored triangle of C. Tiles crossing
// the diagonal run the same micro-kernels into a small scratch tile whose
// stored part is then merged (macroKernelTri), so the wasted flops are
// bounded by one micro-tile per diagonal crossing instead of a full
// diagonal block square.
//
// triEngine accumulates alpha·opA(A)·opB(B) into the stored triangle, with
// the operands free to be different matrices. Syrk and Herk call it once
// with B = A; the rank-2k updates call it twice with the roles of A and B
// exchanged, which is exactly the
// C += alpha·op(A)·op(B)' + alpha'·op(B)·op(A)' decomposition.

// scaleTriangle applies C := beta*C on the uplo triangle of an n×n block,
// writing zeros when beta == 0 exactly like scaleMatrix.
func scaleTriangle[T core.Scalar](uplo Uplo, n int, beta T, c []T, ldc int) {
	for j := 0; j < n; j++ {
		lo, hi := 0, j+1
		if uplo == Lower {
			lo, hi = j, n
		}
		col := c[j*ldc:]
		if beta == 0 {
			for i := lo; i < hi; i++ {
				col[i] = 0
			}
		} else {
			for i := lo; i < hi; i++ {
				col[i] *= beta
			}
		}
	}
}

// syrkEngine accumulates alpha·op(A)·op(A)ᵀ (conj false) or alpha·op(A)·op(A)ᴴ
// (conj true) into the uplo triangle of the n×n matrix C, where op(A) is n×k.
// Any beta scaling must already have been applied to the triangle. trans
// selects op exactly as in Gemm's transA and must be NoTrans, TransT
// (Syrk), or ConjTrans (Herk).
func syrkEngine[T core.Scalar](cfg *core.Config, uplo Uplo, trans Trans, n, k int, alpha T, a []T, lda int, c []T, ldc int, conj bool) {
	// The left operand is op(A); the right operand at (p, j) is
	// conj?(op(A)(j, p)), which packB produces from A directly with the
	// complementary transpose flag.
	transA := trans
	transB := NoTrans
	if trans == NoTrans {
		transB = TransT
		if conj {
			transB = ConjTrans
		}
	}
	triEngine(cfg, uplo, transA, transB, n, k, alpha, a, lda, a, lda, c, ldc)
}

// triEngine accumulates alpha·opA(A)·opB(B) into the uplo triangle of the
// n×n matrix C, where opA(A) is n×k and opB(B) is k×n. Any beta scaling
// must already have been applied to the triangle. It is packedEngine
// (gemm.go) restricted to the stored triangle.
func triEngine[T core.Scalar](cfg *core.Config, uplo Uplo, transA, transB Trans, n, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int) {
	packedEngine(cfg, uplo, transA, transB, n, n, k, alpha, a, lda, b, ldb, c, ldc)
}

// macroKernelTri sweeps one packed macro tile like macroKernel but only
// writes the stored triangle: local element (i, j) belongs to the diagonal
// when i == j+d (d is the local row index of the diagonal for local column
// 0). Micro tiles entirely in the stored part run the row's micro-kernel
// straight into C; micro tiles crossing the diagonal accumulate into a zeroed
// scratch tile and merge only their stored elements. Everything here counts
// in elements of T, so under the 1m rows (whose kernels see tmp, like C, as a
// real tile of twice the rows) the diagonal test needs no adjustment.
func macroKernelTri[T core.Scalar](kern *kernel[T], uplo Uplo, kb, mb, nb int, aPack, bPack []T, c []T, ldc, d int, tile []T) {
	mr, nr := kern.mr, kern.nr
	ka := kb * kern.kScale
	// The first half of the scratch is the crossing tile, the second the
	// edge kernel's own scratch.
	tmp, tile := tile[:mr*nr], tile[mr*nr:]
	for jr := 0; jr < nb; jr += nr {
		bp := bPack[jr*kb : jr*kb+nr*kb]
		cols := min(nr, nb-jr)
		// Rows with any stored element under columns [jr, jr+cols).
		irLo, irHi := 0, mb
		if uplo == Lower {
			irLo = max(0, jr+d) / mr * mr
		} else {
			irHi = min(mb, jr+cols+d)
		}
		for ir := irLo; ir < irHi; ir += mr {
			rows := min(mr, mb-ir)
			ap := aPack[ir*ka : ir*ka+mr*ka]
			ct := c[ir+jr*ldc:]
			var fullyStored bool
			if uplo == Lower {
				fullyStored = ir >= jr+cols-1+d
			} else {
				fullyStored = ir+rows-1 <= jr+d
			}
			if fullyStored {
				// Exactly macroKernel's call for this micro-tile: whether a
				// stored tile is reached through here or there depends on
				// where the grid's cuts fall, and must not show.
				if rows == mr && cols == nr {
					kern.micro(kb, ap, bp, ct, ldc)
				} else {
					kern.edge(kb, mr, nr, ap, bp, ct, ldc, rows, cols, tile)
				}
				continue
			}
			clear(tmp)
			if rows == mr && cols == nr {
				kern.micro(kb, ap, bp, tmp, mr)
			} else {
				kern.edge(kb, mr, nr, ap, bp, tmp, mr, rows, cols, tile)
			}
			for j := 0; j < cols; j++ {
				lo, hi := 0, rows
				if uplo == Lower {
					lo = max(0, jr+j+d-ir)
				} else {
					hi = min(rows, jr+j+d-ir+1)
				}
				col := ct[j*ldc:]
				tcol := tmp[j*mr:]
				for i := lo; i < hi; i++ {
					col[i] += tcol[i]
				}
			}
		}
	}
}
