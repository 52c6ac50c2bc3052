package blas

import "repro/internal/core"

// Level-3 kernels. Gemm dispatches between a naive low-latency kernel for
// small products and the packed, cache-blocked, optionally multi-goroutine
// engine in gemm.go for large ones. Trsm, Syrk/Herk and Symm/Hemm are
// decomposed into diagonal-block work plus GEMM-shaped updates so they ride
// the same engine; Trmm, Syr2k and Her2k keep their direct kernels (their
// LAPACK-side callers only ever see small or skinny operands).

// scaleMatrix applies C = beta*C over an m×n column-major block, writing
// zeros (not 0*C) when beta == 0 so NaNs and Infs are cleared exactly as the
// reference BLAS specifies.
func scaleMatrix[T core.Scalar](m, n int, beta T, c []T, ldc int) {
	for j := 0; j < n; j++ {
		col := c[j*ldc : j*ldc+m]
		if beta == 0 {
			for i := range col {
				col[i] = 0
			}
		} else {
			for i := range col {
				col[i] *= beta
			}
		}
	}
}

// Gemm computes C = alpha*op(A)*op(B) + beta*C where op(A) is m×k and op(B)
// is k×n. Small products run the naive unit-stride kernel (see GemmNaive) or
// the pack-free kernels; everything above the row's packing crossover runs
// the packed blocked engine, which cuts C into tiles for the worker pool when
// the call's Threads > 1.
func Gemm[T core.Scalar](cfg *core.Config, transA, transB Trans, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	cfg = core.Cfg(cfg)
	if m == 0 || n == 0 {
		return
	}
	checkLD(m, ldc)
	rowsA, rowsB := m, k
	if transA != NoTrans {
		rowsA = k
	}
	if transB != NoTrans {
		rowsB = n
	}
	checkLD(rowsA, lda)
	checkLD(rowsB, ldb)
	gemm(cfg, realTrans[T](transA), realTrans[T](transB), m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, m, n)
}

// gemm is Gemm behind its argument checks, with the shape that selects the
// route given separately: routeM×routeN×k is the call's own m×n×k, except
// under a forked Trsm, whose slabs pass the update they are a slice of. The
// routes differ in summation order, so a slab must take the whole update's;
// each of them computes an element of C independently of how many other rows
// and columns the call has (given cuts aligned as Trsm's are), so the slab
// then produces the whole update's bits.
func gemm[T core.Scalar](cfg *core.Config, transA, transB Trans, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int, routeM, routeN int) {
	// The beta scaling runs exactly once, up front, whether or not a product
	// is accumulated afterwards; every kernel below only ever adds to C.
	if beta != core.FromFloat[T](1) {
		scaleMatrix(m, n, beta, c, ldc)
	}
	if alpha == 0 || k == 0 {
		return
	}
	if routeN == 1 && transB == NoTrans {
		// Single-column product: one matrix-vector sweep. The packed engine
		// would spend more on packing op(A) than the product costs, and even
		// the naive kernel pays its tile bookkeeping; the recursive
		// triangular solves and the iterative-refinement residuals both
		// issue this shape on every step.
		if transA == NoTrans {
			Gemv(cfg, NoTrans, m, k, alpha, a, lda, b, 1, core.FromFloat[T](1), c, 1)
		} else {
			Gemv(cfg, transA, k, m, alpha, a, lda, b, 1, core.FromFloat[T](1), c, 1)
		}
		return
	}
	kern := kernelFor[T]()
	vol := routeM * routeN * k
	if transA != NoTrans && transB == NoTrans && routeM <= kern.dotRows && k >= kern.dotMinK {
		gemmDots(cfg, kern, transA == ConjTrans, m, n, k, alpha, a, lda, b, ldb, c, ldc, vol)
		return
	}
	if transA == NoTrans && transB == NoTrans && SmallOK(max(routeM, routeN, k)) && vol < kern.smallMaxVol {
		// Pack-free small-matrix regime: the micro-kernel runs directly on
		// the caller's strided operands, no pack buffers and no Fork.
		kern.small(m, n, k, alpha, a, lda, b, ldb, c, ldc)
		return
	}
	if routeN <= 8 && transA == NoTrans && transB == NoTrans && kern.skinny != nil {
		kern.skinny(cfg, m, n, k, alpha, a, lda, b, ldb, c, ldc)
		return
	}
	// With an assembly micro-kernel the packed engine overtakes the naive
	// loop far sooner: packing cost is linear in the operand sizes while the
	// kernel runs several times faster, so only truly small products stay on
	// the low-latency path. This matters for the factorizations, whose
	// recursive panels issue many tall-skinny products well under the
	// portable crossover.
	if vol < kern.minVol {
		gemmAccumNaive(transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
		return
	}
	gemmEngine(cfg, transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
}

// GemmNaive is the retained reference kernel: the seed's column-walking
// triple loop with unit-stride inner loops and no packing, blocking or
// threading. It is kept as the small-size path of Gemm, as the oracle the
// property tests cross-check the packed engine against, and as the baseline
// the benchmarks measure speedups over. Semantics are identical to Gemm.
func GemmNaive[T core.Scalar](transA, transB Trans, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	if m == 0 || n == 0 {
		return
	}
	checkLD(m, ldc)
	rowsA, rowsB := m, k
	if transA != NoTrans {
		rowsA = k
	}
	if transB != NoTrans {
		rowsB = n
	}
	checkLD(rowsA, lda)
	checkLD(rowsB, ldb)
	if beta != core.FromFloat[T](1) {
		scaleMatrix(m, n, beta, c, ldc)
	}
	if alpha == 0 || k == 0 {
		return
	}
	gemmAccumNaive(transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
}

// gemmAccumNaive accumulates C += alpha*op(A)*op(B) (beta already applied).
// Loop orders are chosen so the innermost loop always walks down a column
// (unit stride in column-major storage).
func gemmAccumNaive[T core.Scalar](transA, transB Trans, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int) {
	cjA := func(v T) T { return v }
	if transA == ConjTrans {
		cjA = core.Conj[T]
	}
	cjB := func(v T) T { return v }
	if transB == ConjTrans {
		cjB = core.Conj[T]
	}

	switch {
	case transA == NoTrans && transB == NoTrans:
		// C(:,j) += alpha * A(:,l) * B(l,j)
		for j := 0; j < n; j++ {
			ccol := c[j*ldc : j*ldc+m]
			bcol := b[j*ldb:]
			for l := 0; l < k; l++ {
				t := alpha * bcol[l]
				if t == 0 {
					continue
				}
				acol := a[l*lda : l*lda+m]
				for i := range acol {
					ccol[i] += t * acol[i]
				}
			}
		}
	case transA == NoTrans: // B transposed/conj-transposed: B(l,j) = op at (j,l)
		for j := 0; j < n; j++ {
			ccol := c[j*ldc : j*ldc+m]
			for l := 0; l < k; l++ {
				t := alpha * cjB(b[j+l*ldb])
				if t == 0 {
					continue
				}
				acol := a[l*lda : l*lda+m]
				for i := range acol {
					ccol[i] += t * acol[i]
				}
			}
		}
	case transB == NoTrans: // A transposed: C(i,j) += alpha * sum_l op(A)(i,l)*B(l,j) with op(A)(i,l)=A(l,i)
		for j := 0; j < n; j++ {
			ccol := c[j*ldc : j*ldc+m]
			bcol := b[j*ldb : j*ldb+k]
			for i := 0; i < m; i++ {
				acol := a[i*lda : i*lda+k]
				var sum T
				if transA == ConjTrans {
					for l := range acol {
						sum += core.Conj(acol[l]) * bcol[l]
					}
				} else {
					for l := range acol {
						sum += acol[l] * bcol[l]
					}
				}
				ccol[i] += alpha * sum
			}
		}
	default: // both transposed
		for j := 0; j < n; j++ {
			ccol := c[j*ldc : j*ldc+m]
			for i := 0; i < m; i++ {
				acol := a[i*lda : i*lda+k]
				var sum T
				for l := range acol {
					sum += cjA(acol[l]) * cjB(b[j+l*ldb])
				}
				ccol[i] += alpha * sum
			}
		}
	}
}

// Symm computes C = alpha*A*B + beta*C (side == Left) or
// C = alpha*B*A + beta*C (side == Right) where A is symmetric with only the
// uplo triangle referenced.
func Symm[T core.Scalar](cfg *core.Config, side Side, uplo Uplo, m, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	cfg = core.Cfg(cfg)
	symHemm(cfg, side, uplo, m, n, alpha, a, lda, b, ldb, beta, c, ldc, false)
}

// Hemm is the Hermitian analogue of Symm.
func Hemm[T core.Scalar](cfg *core.Config, side Side, uplo Uplo, m, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	cfg = core.Cfg(cfg)
	symHemm(cfg, side, uplo, m, n, alpha, a, lda, b, ldb, beta, c, ldc, true)
}

func symHemm[T core.Scalar](cfg *core.Config, side Side, uplo Uplo, m, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int, conj bool) {
	if m == 0 || n == 0 {
		return
	}
	na := m
	if side == Right {
		na = n
	}
	checkLD(na, lda)
	checkLD(m, ldb)
	checkLD(m, ldc)
	if na <= level3BlockSize || m*n*na < packedMinVol[T]() {
		symHemmBase(side, uplo, m, n, alpha, a, lda, b, ldb, beta, c, ldc, conj)
		return
	}

	// Blocked path: scale C by beta once, then express the symmetric operand
	// as diagonal blocks (handled by the direct kernel) plus off-diagonal
	// blocks, each of which contributes two plain GEMM updates — the stored
	// block once as-is and once (conjugate-)transposed for its mirror image.
	one := core.FromFloat[T](1)
	if beta != one {
		scaleMatrix(m, n, beta, c, ldc)
	}
	if alpha == 0 {
		return
	}
	ct := TransT
	if conj {
		ct = ConjTrans
	}
	nb := level3BlockSize
	if side == Left {
		for i := 0; i < m; i += nb {
			ib := min(nb, m-i)
			symHemmBase(Left, uplo, ib, n, alpha, a[i+i*lda:], lda, b[i:], ldb, one, c[i:], ldc, conj)
			for j := i + ib; j < m; j += nb {
				jb := min(nb, m-j)
				if uplo == Lower {
					blk := a[j+i*lda:] // A[J,I], jb×ib; A[I,J] is its (conj-)transpose
					Gemm(cfg, ct, NoTrans, ib, n, jb, alpha, blk, lda, b[j:], ldb, one, c[i:], ldc)
					Gemm(cfg, NoTrans, NoTrans, jb, n, ib, alpha, blk, lda, b[i:], ldb, one, c[j:], ldc)
				} else {
					blk := a[i+j*lda:] // A[I,J], ib×jb
					Gemm(cfg, NoTrans, NoTrans, ib, n, jb, alpha, blk, lda, b[j:], ldb, one, c[i:], ldc)
					Gemm(cfg, ct, NoTrans, jb, n, ib, alpha, blk, lda, b[i:], ldb, one, c[j:], ldc)
				}
			}
		}
		return
	}
	for i := 0; i < n; i += nb {
		ib := min(nb, n-i)
		symHemmBase(Right, uplo, m, ib, alpha, a[i+i*lda:], lda, b[i*ldb:], ldb, one, c[i*ldc:], ldc, conj)
		for j := i + ib; j < n; j += nb {
			jb := min(nb, n-j)
			if uplo == Lower {
				blk := a[j+i*lda:] // A[J,I], jb×ib
				Gemm(cfg, NoTrans, NoTrans, m, ib, jb, alpha, b[j*ldb:], ldb, blk, lda, one, c[i*ldc:], ldc)
				Gemm(cfg, NoTrans, ct, m, jb, ib, alpha, b[i*ldb:], ldb, blk, lda, one, c[j*ldc:], ldc)
			} else {
				blk := a[i+j*lda:] // A[I,J], ib×jb
				Gemm(cfg, NoTrans, ct, m, ib, jb, alpha, b[j*ldb:], ldb, blk, lda, one, c[i*ldc:], ldc)
				Gemm(cfg, NoTrans, NoTrans, m, jb, ib, alpha, b[i*ldb:], ldb, blk, lda, one, c[j*ldc:], ldc)
			}
		}
	}
}

// symHemmBase is the direct (unblocked) Symm/Hemm kernel; the blocked path
// above reuses it for the diagonal blocks of A.
func symHemmBase[T core.Scalar](side Side, uplo Uplo, m, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int, conj bool) {
	sym := func(i, j int) T {
		var v T
		if (uplo == Upper) == (i <= j) {
			v = a[i+j*lda]
		} else {
			v = a[j+i*lda]
			if conj {
				v = core.Conj(v)
			}
		}
		if conj && i == j {
			v = core.FromFloat[T](core.Re(v))
		}
		return v
	}
	for j := 0; j < n; j++ {
		ccol := c[j*ldc : j*ldc+m]
		if beta == 0 {
			for i := range ccol {
				ccol[i] = 0
			}
		} else if beta != core.FromFloat[T](1) {
			for i := range ccol {
				ccol[i] *= beta
			}
		}
		if alpha == 0 {
			continue
		}
		if side == Left {
			bcol := b[j*ldb : j*ldb+m]
			for l := 0; l < m; l++ {
				t := alpha * bcol[l]
				if t == 0 {
					continue
				}
				for i := 0; i < m; i++ {
					ccol[i] += t * sym(i, l)
				}
			}
		} else {
			for l := 0; l < n; l++ {
				t := alpha * sym(l, j)
				if t == 0 {
					continue
				}
				bcol := b[l*ldb : l*ldb+m]
				for i := range bcol {
					ccol[i] += t * bcol[i]
				}
			}
		}
	}
}

// Syrk computes the symmetric rank-k update C = alpha*A*Aᵀ + beta*C
// (trans == NoTrans) or C = alpha*Aᵀ*A + beta*C on the uplo triangle of C.
// Everything beyond tiny volumes runs on the packed rank-k engine (see
// rankk.go), which packs each rank slab of A once and sweeps only the
// stored triangle.
func Syrk[T core.Scalar](cfg *core.Config, uplo Uplo, trans Trans, n, k int, alpha T, a []T, lda int, beta T, c []T, ldc int) {
	cfg = core.Cfg(cfg)
	if n == 0 {
		return
	}
	checkLD(n, ldc)
	if n*n*k < packedMinVol[T]() {
		rankKBase(uplo, trans, n, k, alpha, a, lda, beta, c, ldc, false)
		return
	}
	if beta != core.FromFloat[T](1) {
		scaleTriangle(uplo, n, beta, c, ldc)
	}
	if alpha == 0 || k == 0 {
		return
	}
	tr := NoTrans
	if trans != NoTrans {
		tr = TransT
	}
	syrkEngine(cfg, uplo, tr, n, k, alpha, a, lda, c, ldc, false)
}

// rankKBase is the unpacked rank-k update of the stored triangle:
// C = alpha·op(A)·op(A)ᵀ + beta·C, or with conj set (Herk on complex data)
// alpha·op(A)·op(A)ᴴ + beta·C with the diagonal kept real.
func rankKBase[T core.Scalar](uplo Uplo, trans Trans, n, k int, alpha T, a []T, lda int, beta T, c []T, ldc int, conj bool) {
	// Element (i, l) of op(A) is a[i·ri + l·rl].
	ri, rl := 1, lda
	if trans != NoTrans {
		ri, rl = lda, 1
	}
	for j := 0; j < n; j++ {
		lo, hi := 0, j+1
		if uplo == Lower {
			lo, hi = j, n
		}
		ccol := c[j*ldc:]
		for i := lo; i < hi; i++ {
			var sum T
			switch {
			case !conj:
				for l := 0; l < k; l++ {
					sum += a[i*ri+l*rl] * a[j*ri+l*rl]
				}
			case trans == NoTrans:
				for l := 0; l < k; l++ {
					sum += a[i+l*lda] * core.Conj(a[j+l*lda])
				}
			default:
				for l := 0; l < k; l++ {
					sum += core.Conj(a[l+i*lda]) * a[l+j*lda]
				}
			}
			v := alpha * sum
			if beta != 0 {
				v += beta * ccol[i]
			}
			if conj && i == j {
				v = core.FromFloat[T](core.Re(v))
			}
			ccol[i] = v
		}
	}
}

// Herk computes the Hermitian rank-k update C = alpha*A*Aᴴ + beta*C
// (trans == NoTrans) or C = alpha*Aᴴ*A + beta*C, with real alpha and beta,
// on the uplo triangle of C. Blocked exactly like Syrk on the packed rank-k
// engine, with op(A) conjugated and the diagonal forced real.
func Herk[T core.Scalar](cfg *core.Config, uplo Uplo, trans Trans, n, k int, alpha float64, a []T, lda int, beta float64, c []T, ldc int) {
	cfg = core.Cfg(cfg)
	if n == 0 {
		return
	}
	checkLD(n, ldc)
	if n*n*k < packedMinVol[T]() {
		rankKBase(uplo, trans, n, k, core.FromFloat[T](alpha), a, lda, core.FromFloat[T](beta), c, ldc, core.IsComplex[T]())
		return
	}
	if beta != 1 {
		scaleTriangle(uplo, n, core.FromFloat[T](beta), c, ldc)
	}
	if alpha != 0 && k != 0 {
		tr := NoTrans
		if trans != NoTrans {
			tr = ConjTrans
		}
		syrkEngine(cfg, uplo, tr, n, k, core.FromFloat[T](alpha), a, lda, c, ldc, core.IsComplex[T]())
	}
	if core.IsComplex[T]() {
		// The diagonal of a Hermitian update is real by construction; force
		// away any imaginary parts the input C carried in.
		for j := 0; j < n; j++ {
			c[j+j*ldc] = core.FromFloat[T](core.Re(c[j+j*ldc]))
		}
	}
}

// Syr2k computes the symmetric rank-2k update
// C = alpha*A*Bᵀ + alpha*B*Aᵀ + beta*C (NoTrans) or the transposed form.
// Large updates run as two triangle-restricted passes of the packed rank-k
// engine (A as the left operand against Bᵀ, then B against Aᵀ), so the
// blocked reductions' trailing updates reach GEMM speed.
func Syr2k[T core.Scalar](cfg *core.Config, uplo Uplo, trans Trans, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	cfg = core.Cfg(cfg)
	if n == 0 {
		return
	}
	checkLD(n, ldc)
	if n*n*k >= packedMinVol[T]() {
		if beta != core.FromFloat[T](1) {
			scaleTriangle(uplo, n, beta, c, ldc)
		}
		if alpha == 0 || k == 0 {
			return
		}
		if trans == NoTrans {
			triEngine(cfg, uplo, NoTrans, TransT, n, k, alpha, a, lda, b, ldb, c, ldc)
			triEngine(cfg, uplo, NoTrans, TransT, n, k, alpha, b, ldb, a, lda, c, ldc)
		} else {
			triEngine(cfg, uplo, TransT, NoTrans, n, k, alpha, a, lda, b, ldb, c, ldc)
			triEngine(cfg, uplo, TransT, NoTrans, n, k, alpha, b, ldb, a, lda, c, ldc)
		}
		return
	}
	rank2KBase(uplo, trans, n, k, alpha, a, lda, b, ldb, beta, c, ldc, false)
}

// Gemmt computes C = alpha*op(A)*op(B) + beta*C on the uplo triangle of the
// n×n matrix C only, where op(A) is n×k and op(B) is k×n: the general product
// for callers who know the result is symmetric or Hermitian (the trailing
// update of the Bunch–Kaufman panels, L21·(D·L21ᵀ)). The other triangle of C
// is neither read nor written. Large updates are one pass of the packed
// triangle engine, so each operand is packed once however wide C is.
func Gemmt[T core.Scalar](cfg *core.Config, uplo Uplo, transA, transB Trans, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	cfg = core.Cfg(cfg)
	if n == 0 {
		return
	}
	checkLD(n, ldc)
	rowsA, rowsB := n, k
	if transA != NoTrans {
		rowsA = k
	}
	if transB != NoTrans {
		rowsB = n
	}
	checkLD(rowsA, lda)
	checkLD(rowsB, ldb)
	transA, transB = realTrans[T](transA), realTrans[T](transB)
	if n*n*k >= packedMinVol[T]() {
		if beta != core.FromFloat[T](1) {
			scaleTriangle(uplo, n, beta, c, ldc)
		}
		if alpha != 0 && k != 0 {
			triEngine(cfg, uplo, transA, transB, n, k, alpha, a, lda, b, ldb, c, ldc)
		}
		return
	}
	// Element (i, l) of op(A) is a[i·ai + l·al], (l, j) of op(B) b[l·bl + j·bj].
	ai, al, bl, bj := 1, lda, 1, ldb
	if transA != NoTrans {
		ai, al = lda, 1
	}
	if transB != NoTrans {
		bl, bj = ldb, 1
	}
	cjA, cjB := transA == ConjTrans, transB == ConjTrans
	for j := 0; j < n; j++ {
		lo, hi := 0, j+1
		if uplo == Lower {
			lo, hi = j, n
		}
		ccol := c[j*ldc:]
		for i := lo; i < hi; i++ {
			var sum T
			for l := 0; l < k; l++ {
				av, bv := a[i*ai+l*al], b[l*bl+j*bj]
				if cjA {
					av = core.Conj(av)
				}
				if cjB {
					bv = core.Conj(bv)
				}
				sum += av * bv
			}
			v := alpha * sum
			if beta != 0 {
				v += beta * ccol[i]
			}
			ccol[i] = v
		}
	}
}

// Her2k computes the Hermitian rank-2k update
// C = alpha*A*Bᴴ + conj(alpha)*B*Aᴴ + beta*C (NoTrans) or the conj-
// transposed form, with real beta. Large updates run as two passes of the
// packed triangle engine exactly like Syr2k, with the diagonal forced real
// afterwards (the exact sum alpha·x·conj(y) + conj(alpha·x·conj(y)) is real;
// the engine's two passes may leave roundoff-sized imaginary parts).
func Her2k[T core.Scalar](cfg *core.Config, uplo Uplo, trans Trans, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta float64, c []T, ldc int) {
	cfg = core.Cfg(cfg)
	if n == 0 {
		return
	}
	checkLD(n, ldc)
	if n*n*k >= packedMinVol[T]() {
		if beta != 1 {
			scaleTriangle(uplo, n, core.FromFloat[T](beta), c, ldc)
		}
		if alpha != 0 && k != 0 {
			if trans == NoTrans {
				triEngine(cfg, uplo, NoTrans, ConjTrans, n, k, alpha, a, lda, b, ldb, c, ldc)
				triEngine(cfg, uplo, NoTrans, ConjTrans, n, k, core.Conj(alpha), b, ldb, a, lda, c, ldc)
			} else {
				triEngine(cfg, uplo, ConjTrans, NoTrans, n, k, alpha, a, lda, b, ldb, c, ldc)
				triEngine(cfg, uplo, ConjTrans, NoTrans, n, k, core.Conj(alpha), b, ldb, a, lda, c, ldc)
			}
		}
		if core.IsComplex[T]() {
			for j := 0; j < n; j++ {
				c[j+j*ldc] = core.FromFloat[T](core.Re(c[j+j*ldc]))
			}
		}
		return
	}
	rank2KBase(uplo, trans, n, k, alpha, a, lda, b, ldb, core.FromFloat[T](beta), c, ldc, true)
}

// rank2KBase is the unpacked rank-2k update of the stored triangle:
// alpha·(op(A)·op(B)ᵀ + op(B)·op(A)ᵀ) + beta·C, or with herm set
// alpha·op(A)·op(B)ᴴ + conj(alpha)·op(B)·op(A)ᴴ + beta·C, every term scaled
// on its own and the diagonal kept real.
func rank2KBase[T core.Scalar](uplo Uplo, trans Trans, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int, herm bool) {
	ra, rla, rb, rlb := 1, lda, 1, ldb
	if trans != NoTrans {
		ra, rla, rb, rlb = lda, 1, ldb, 1
	}
	conj := herm && core.IsComplex[T]()
	ca := alpha
	if conj {
		ca = core.Conj(alpha)
	}
	for j := 0; j < n; j++ {
		lo, hi := 0, j+1
		if uplo == Lower {
			lo, hi = j, n
		}
		ccol := c[j*ldc:]
		for i := lo; i < hi; i++ {
			var sum T
			for l := 0; l < k; l++ {
				ai, aj, bi, bj := a[i*ra+l*rla], a[j*ra+l*rla], b[i*rb+l*rlb], b[j*rb+l*rlb]
				switch {
				case !herm:
					sum += ai*bj + bi*aj
					continue
				case !conj:
				case trans == NoTrans:
					aj, bj = core.Conj(aj), core.Conj(bj)
				default:
					ai, bi = core.Conj(ai), core.Conj(bi)
				}
				sum += alpha*ai*bj + ca*bi*aj
			}
			v := sum
			if !herm {
				v = alpha * sum
			}
			if beta != 0 {
				v += beta * ccol[i]
			}
			if conj && i == j {
				v = core.FromFloat[T](core.Re(v))
			}
			ccol[i] = v
		}
	}
}

// Trmm computes B = alpha*op(A)*B (side == Left) or B = alpha*B*op(A)
// (side == Right) where A is triangular.
func Trmm[T core.Scalar](side Side, uplo Uplo, trans Trans, diag Diag, m, n int, alpha T, a []T, lda int, b []T, ldb int) {
	if m == 0 || n == 0 {
		return
	}
	na := m
	if side == Right {
		na = n
	}
	checkLD(na, lda)
	checkLD(m, ldb)
	if side == Left {
		for j := 0; j < n; j++ {
			col := b[j*ldb:]
			Trmv(uplo, trans, diag, m, a, lda, col, 1)
			if alpha != core.FromFloat[T](1) {
				Scal(m, alpha, col, 1)
			}
		}
		return
	}
	// Right side: B = alpha * B * op(A), by explicit column combinations
	// (Scal for the diagonal, one Axpy per off-diagonal entry, so every type
	// runs on its row's leaves). Column j of the result is
	// Σ_l B(:,l)·op(A)(l,j) over l ≤ j for an upper triangular op(A), l ≥ j
	// for a lower one; sweeping away from that side leaves every source
	// column untouched until it is used.
	conj := realTrans[T](trans) == ConjTrans
	opUpper := (trans == NoTrans) == (uplo == Upper)
	for s := 0; s < n; s++ {
		j, lo, hi := s, s+1, n
		if opUpper {
			j, lo, hi = n-1-s, 0, n-1-s
		}
		// opA(l) is op(A)(l, j).
		opA := func(l int) T {
			if trans == NoTrans {
				return a[l+j*lda]
			}
			if conj {
				return core.Conj(a[j+l*lda])
			}
			return a[j+l*lda]
		}
		bj := b[j*ldb : j*ldb+m]
		if diag == NonUnit {
			Scal(m, alpha*opA(j), bj, 1)
		} else if alpha != core.FromFloat[T](1) {
			Scal(m, alpha, bj, 1)
		}
		for l := lo; l < hi; l++ {
			if alj := opA(l); alj != 0 {
				Axpy(m, alpha*alj, b[l*ldb:l*ldb+m], 1, bj, 1)
			}
		}
	}
}

// Trsm solves op(A)*X = alpha*B (side == Left) or X*op(A) = alpha*B
// (side == Right) for X, overwriting B, where A is triangular. Triangles
// larger than the row's leaf size are split recursively so the bulk of the
// work becomes rectangular GEMM updates on the packed engine; only the
// diagonal blocks run the direct substitution kernel.
//
// The columns of B (the rows, on the right) are independent, so a call above
// the threading cutoff forks once, over slabs of them, and each slab runs the
// whole recursion serially.
func Trsm[T core.Scalar](cfg *core.Config, side Side, uplo Uplo, trans Trans, diag Diag, m, n int, alpha T, a []T, lda int, b []T, ldb int) {
	cfg = core.Cfg(cfg)
	if m == 0 || n == 0 {
		return
	}
	trans = realTrans[T](trans)
	// nt: order of the triangle; free: independent columns (rows) of B.
	nt, free, step, unit := m, n, ldb, trsmColUnit
	if side == Right {
		nt, free, step, unit = n, m, 1, trsmRowUnit
	}
	checkLD(nt, lda)
	checkLD(m, ldb)
	workers := level3Workers(cfg, nt*nt/2*free)
	slab := roundUp((free+workers-1)/workers, unit)
	slabs := free / slab
	if free-slabs*slab >= unit {
		slabs++
	}
	if workers <= 1 || slabs < 2 {
		trsmRec(cfg, side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb, free)
		return
	}
	serial := cfg.With(func(c *core.Config) { c.Threads = 1 })
	eachTile(slabs, workers, func(t int) {
		// The last slab is, or includes, the remainder.
		lo, sz := t*slab, slab
		if t == slabs-1 {
			sz = free - lo
		}
		if side == Left {
			trsmRec(serial, side, uplo, trans, diag, m, sz, alpha, a, lda, b[lo*step:], ldb, free)
		} else {
			trsmRec(serial, side, uplo, trans, diag, sz, n, alpha, a, lda, b[lo*step:], ldb, free)
		}
	})
}

// Cuts of a forked Trsm fall where the substitution leaves see every column
// (row) at the position the undivided solve gives it: column slabs (left
// side) start at multiples of trsvOct's eight columns, row slabs (right side)
// at multiples of sixteen rows, which the vector step of every row's gemvSub8
// and axpy divides. The micro-tile geometry does not enter: the GEMM updates
// compute an element the same way wherever a tile boundary falls (kernel.go).
const (
	trsmColUnit = 8
	trsmRowUnit = 16
)

// trsmRec splits the triangular operand A = [A11 .; A21/A12 A22] and reduces
// the solve to two half-size solves plus one GEMM update, choosing the solve
// order the triangle's data dependencies require. alpha is applied to each
// half of B exactly once: by the first solve touching it or by the GEMM's
// beta, matching the reference xTRSM update B2 := alpha*B2 - A21*X1. free is
// the number of columns (rows, on the right) of the Trsm call's whole B, of
// which this solve may be a slab: its updates are routed as slices (see gemm).
func trsmRec[T core.Scalar](cfg *core.Config, side Side, uplo Uplo, trans Trans, diag Diag, m, n int, alpha T, a []T, lda int, b []T, ldb int, free int) {
	nt := m
	if side == Right {
		nt = n
	}
	if k := kernelFor[T](); nt <= k.trsmLeaf {
		trsmBase(k, side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
		return
	}
	one := core.FromFloat[T](1)
	n1 := nt / 2 / gemmMR * gemmMR
	n2 := nt - n1
	a11 := a
	a21 := a[n1:]
	a12 := a[n1*lda:]
	a22 := a[n1+n1*lda:]
	if side == Left {
		b1 := b
		b2 := b[n1:]
		switch {
		case uplo == Lower && trans == NoTrans:
			trsmRec(cfg, side, uplo, trans, diag, n1, n, alpha, a11, lda, b1, ldb, free)
			gemm(cfg, NoTrans, NoTrans, n2, n, n1, -one, a21, lda, b1, ldb, alpha, b2, ldb, n2, free)
			trsmRec(cfg, side, uplo, trans, diag, n2, n, one, a22, lda, b2, ldb, free)
		case uplo == Upper && trans == NoTrans:
			trsmRec(cfg, side, uplo, trans, diag, n2, n, alpha, a22, lda, b2, ldb, free)
			gemm(cfg, NoTrans, NoTrans, n1, n, n2, -one, a12, lda, b2, ldb, alpha, b1, ldb, n1, free)
			trsmRec(cfg, side, uplo, trans, diag, n1, n, one, a11, lda, b1, ldb, free)
		case uplo == Lower: // op(A) = A{T,H} is upper triangular
			trsmRec(cfg, side, uplo, trans, diag, n2, n, alpha, a22, lda, b2, ldb, free)
			gemm(cfg, trans, NoTrans, n1, n, n2, -one, a21, lda, b2, ldb, alpha, b1, ldb, n1, free)
			trsmRec(cfg, side, uplo, trans, diag, n1, n, one, a11, lda, b1, ldb, free)
		default: // Upper, op(A) lower triangular
			trsmRec(cfg, side, uplo, trans, diag, n1, n, alpha, a11, lda, b1, ldb, free)
			gemm(cfg, trans, NoTrans, n2, n, n1, -one, a12, lda, b1, ldb, alpha, b2, ldb, n2, free)
			trsmRec(cfg, side, uplo, trans, diag, n2, n, one, a22, lda, b2, ldb, free)
		}
		return
	}
	b1 := b
	b2 := b[n1*ldb:]
	switch {
	case uplo == Upper && trans == NoTrans:
		trsmRec(cfg, side, uplo, trans, diag, m, n1, alpha, a11, lda, b1, ldb, free)
		gemm(cfg, NoTrans, NoTrans, m, n2, n1, -one, b1, ldb, a12, lda, alpha, b2, ldb, free, n2)
		trsmRec(cfg, side, uplo, trans, diag, m, n2, one, a22, lda, b2, ldb, free)
	case uplo == Lower && trans == NoTrans:
		trsmRec(cfg, side, uplo, trans, diag, m, n2, alpha, a22, lda, b2, ldb, free)
		gemm(cfg, NoTrans, NoTrans, m, n1, n2, -one, b2, ldb, a21, lda, alpha, b1, ldb, free, n1)
		trsmRec(cfg, side, uplo, trans, diag, m, n1, one, a11, lda, b1, ldb, free)
	case uplo == Upper: // op(A) lower triangular
		trsmRec(cfg, side, uplo, trans, diag, m, n2, alpha, a22, lda, b2, ldb, free)
		gemm(cfg, NoTrans, trans, m, n1, n2, -one, b2, ldb, a12, lda, alpha, b1, ldb, free, n1)
		trsmRec(cfg, side, uplo, trans, diag, m, n1, one, a11, lda, b1, ldb, free)
	default: // Lower, op(A) upper triangular
		trsmRec(cfg, side, uplo, trans, diag, m, n1, alpha, a11, lda, b1, ldb, free)
		gemm(cfg, NoTrans, trans, m, n2, n1, -one, b1, ldb, a21, lda, alpha, b2, ldb, free, n2)
		trsmRec(cfg, side, uplo, trans, diag, m, n2, one, a22, lda, b2, ldb, free)
	}
}

// trsmBase is the direct substitution kernel used on diagonal blocks. Both
// sides run on the eight-wide leaves of the kernel-table row: k.trsvOct on
// the left — every column of A loaded once per eight columns of B — and
// k.gemvSub8 on the right.
func trsmBase[T core.Scalar](k *kernel[T], side Side, uplo Uplo, trans Trans, diag Diag, m, n int, alpha T, a []T, lda int, b []T, ldb int) {
	one := core.FromFloat[T](1)
	if side == Left {
		if alpha != one {
			for j := 0; j < n; j++ {
				k.scal(alpha, b[j*ldb:j*ldb+m])
			}
		}
		// The leaves substitute down (up) the columns of A, which for a
		// transposed solve are its rows: with at least one octet of right-hand
		// sides the triangle is copied transposed into pooled scratch — m²/2
		// copies against m²/2 multiply-adds per column — and solved as the
		// other triangle, untransposed. Narrower solves are not worth the
		// scratch and go column by column through Trsv.
		var at []T
		if trans != NoTrans && n >= 8 {
			at = getScratch[T](m * m)
			transposeTriangle(uplo, trans == ConjTrans, m, a, lda, at)
			a, lda, uplo, trans = at, m, uplo.flip(), NoTrans
		}
		j := 0
		if trans == NoTrans {
			if n8 := n &^ 7; n8 > 0 {
				k.trsvOct(uplo, diag, m, n8, a, lda, b, ldb)
				j = n8
			}
			if j+4 <= n {
				trsvQuad(uplo, diag, m, a, lda, b[j*ldb:], b[(j+1)*ldb:], b[(j+2)*ldb:], b[(j+3)*ldb:])
				j += 4
			}
		}
		for ; j < n; j++ {
			Trsv(uplo, trans, diag, m, a, lda, b[j*ldb:], 1)
		}
		if at != nil {
			putScratch(at)
		}
		return
	}
	// Right side: X·op(A) = alpha·B, column by column in dependency order —
	// X(:,j) = (alpha·B(:,j) − Σ_l X(:,l)·op(A)(l,j)) / op(A)(j,j), over l < j
	// left to right for an upper triangular op(A), over l > j right to left
	// for a lower one. The solved columns are folded in eight per pass of
	// X(:,j), and the division is one reciprocal per column and a scaling
	// (the reference xTRSM's right-side form).
	conj := trans == ConjTrans
	opUpper := (trans == NoTrans) == (uplo == Upper)
	for s := 0; s < n; s++ {
		j, lo, hi := s, 0, s
		if !opUpper {
			j, lo, hi = n-1-s, n-s, n
		}
		bj := b[j*ldb : j*ldb+m]
		if alpha != one {
			k.scal(alpha, bj)
		}
		// op(A)(l, j) is a[base+l·step], conjugated under ConjTrans.
		base, step := j*lda, 1
		if trans != NoTrans {
			base, step = j, lda
		}
		l := lo
		for ; l+8 <= hi; l += 8 {
			var t [8]T
			for q := range t {
				t[q] = a[base+(l+q)*step]
			}
			if conj {
				for q := range t {
					t[q] = core.Conj(t[q])
				}
			}
			k.gemvSub8(m, t, b[l*ldb:], ldb, bj)
		}
		for ; l < hi; l++ {
			t := a[base+l*step]
			if conj {
				t = core.Conj(t)
			}
			k.axpy(-t, b[l*ldb:l*ldb+m], bj)
		}
		if diag == NonUnit {
			d := a[j+j*lda]
			if conj {
				d = core.Conj(d)
			}
			k.scal(core.Div(one, d), bj)
		}
	}
}

// transposeTriangle writes the transpose (the conjugate transpose when conj
// is set) of the uplo triangle of the m×m matrix a, diagonal included, into
// the other triangle of dst, leading dimension m. The rest of dst is not
// written.
func transposeTriangle[T core.Scalar](uplo Uplo, conj bool, m int, a []T, lda int, dst []T) {
	for j := 0; j < m; j++ {
		lo, hi := 0, j+1
		if uplo == Lower {
			lo, hi = j, m
		}
		col := a[j*lda : j*lda+m]
		if conj {
			for i := lo; i < hi; i++ {
				dst[j+i*m] = core.Conj(col[i])
			}
			continue
		}
		for i := lo; i < hi; i++ {
			dst[j+i*m] = col[i]
		}
	}
}

// trsvOct solves A·X = B in place for n right-hand-side columns of b, n a
// multiple of eight, eight columns per sweep of the triangle. Columns must
// already carry any alpha scaling. This is the portable form (the trsvOct
// entry of the portable rows of the kernel table); the real asm rows run
// trsvOctFma (the float64 AVX-512 row trsvOct512F64), the complex 1m rows
// trsvOct1e.
func trsvOct[T core.Scalar](uplo Uplo, diag Diag, m, n int, a []T, lda int, b []T, ldb int) {
	nonUnit := diag == NonUnit
	for j := 0; j < n; j += 8 {
		b := b[j*ldb:]
		c0 := b[0*ldb : 0*ldb+m]
		c1 := b[1*ldb : 1*ldb+m]
		c2 := b[2*ldb : 2*ldb+m]
		c3 := b[3*ldb : 3*ldb+m]
		c4 := b[4*ldb : 4*ldb+m]
		c5 := b[5*ldb : 5*ldb+m]
		c6 := b[6*ldb : 6*ldb+m]
		c7 := b[7*ldb : 7*ldb+m]
		// Forward substitution for Lower, backward for Upper: step s
		// eliminates row i from the rows [lo, hi) still to come.
		for s := 0; s < m; s++ {
			i, lo, hi := s, s+1, m
			if uplo == Upper {
				i, lo, hi = m-1-s, 0, m-1-s
			}
			acol := a[i*lda : i*lda+m]
			x0, x1, x2, x3 := c0[i], c1[i], c2[i], c3[i]
			x4, x5, x6, x7 := c4[i], c5[i], c6[i], c7[i]
			if nonUnit {
				d := acol[i]
				x0, x1, x2, x3 = core.Div(x0, d), core.Div(x1, d), core.Div(x2, d), core.Div(x3, d)
				x4, x5, x6, x7 = core.Div(x4, d), core.Div(x5, d), core.Div(x6, d), core.Div(x7, d)
				c0[i], c1[i], c2[i], c3[i] = x0, x1, x2, x3
				c4[i], c5[i], c6[i], c7[i] = x4, x5, x6, x7
			}
			for r := lo; r < hi; r++ {
				t := acol[r]
				c0[r] -= t * x0
				c1[r] -= t * x1
				c2[r] -= t * x2
				c3[r] -= t * x3
				c4[r] -= t * x4
				c5[r] -= t * x5
				c6[r] -= t * x6
				c7[r] -= t * x7
			}
		}
	}
}

// trsvOctFma is trsvOct on the real asm rows (float64 and float32): the
// per-step update of the trailing rows runs in the eight-column substitution
// kernel behind subFma8, whose fused negate-multiply-adds roughly halve the
// arithmetic of the portable loop.
func trsvOctFma[F core.Float](uplo Uplo, diag Diag, m, n int, a []F, lda int, b []F, ldb int) {
	nonUnit := diag == NonUnit
	var x [8]F
	for j := 0; j < n; j += 8 {
		b := b[j*ldb:]
		for s := 0; s < m; s++ {
			i, lo, hi := s, s+1, m
			if uplo == Upper {
				i, lo, hi = m-1-s, 0, m-1-s
			}
			for q := 0; q < 8; q++ {
				x[q] = b[q*ldb+i]
			}
			if nonUnit {
				d := a[i*lda+i]
				for q := 0; q < 8; q++ {
					x[q] /= d
					b[q*ldb+i] = x[q]
				}
			}
			if hi > lo {
				subFma8(int64(hi-lo), &x, &a[i*lda+lo], &b[lo], int64(ldb))
			}
		}
	}
}

// trsvOct512F64 is trsvOct on the float64 AVX-512 row: dtrsvOct512 solves
// each octet of columns by 8×8 register tiles, folding the rows already
// solved into a tile and solving its diagonal block on the tile's transposed
// rows, in the operations trsvOctFma performs on each element and in their
// order, so that the AVX2 row's sweep is its oracle bit for bit. A ragged
// block — the last m mod 8 rows of Lower, the first of Upper — is solved on
// a copy of its diagonal block padded to 8×8 at the lanes the kernel masks
// off, and with the unit diagonal there, so that no read leaves A.
func trsvOct512F64(uplo Uplo, diag Diag, m, n int, a []float64, lda int, b []float64, ldb int) {
	if m == 0 || n == 0 {
		return
	}
	_, _ = a[(m-1)*lda+m-1], b[(n-1)*ldb+m-1]
	var tail [64]float64
	if h := m % 8; h != 0 {
		r0, p := m-h, 0 // the block's first row of A and its first lane
		if uplo == Upper {
			r0, p = 0, 8-h
		}
		for j := range 8 {
			if j < p || j >= p+h {
				tail[8*j+j] = 1
				continue
			}
			copy(tail[8*j+p:8*j+p+h], a[(r0+j-p)*lda+r0:])
		}
	}
	dtrsvOct512(uplo == Upper, diag == Unit, m, n, a, lda, b, ldb, &tail)
}

// trsvOct1e builds the trsvOct of a complex 1m row: the real row's
// substitution kernel on the real views. Eliminating the complex entry
// x = xr + xi·i with the column t of A is, on the view of B, subtracting
// xr·[t.re, t.im, …] and xi·[−t.im, t.re, …]: two real sweeps over the
// triangle in the 1e form of packA1m, expanded once per call into pooled
// scratch. A pivot row is divided by one reciprocal of its diagonal entry.
// With a fold (complex128 on the AVX-512 row: dfold512), a Lower triangle
// is solved by blocks of four complex rows: the rows already solved are
// folded into the block's eight real rows in registers — the sweeps' real
// chain, 2i then 2i+1 per pivot i — and the sweeps run within the block.
// Upper keeps the sweeps: its real order, 2i then 2i+1 for i descending, is
// not the fold's.
func trsvOct1e[C core.Cmplx, R core.Float](view func([]C) []R, fold func(n, k int, a []R, lda int, b []R, ldb int, r0, rows int)) func(uplo Uplo, diag Diag, m, n int, a []C, lda int, b []C, ldb int) {
	return func(uplo Uplo, diag Diag, m, n int, a []C, lda int, b []C, ldb int) {
		ld := 2 * m
		e := getScratch[R](2 * m * ld)
		for i := 0; i < m; i++ {
			lo, hi := i+1, m
			if uplo == Upper {
				lo, hi = 0, i
			}
			src := view(a[i*lda+lo : i*lda+hi])
			e0 := e[2*i*ld+2*lo:][:len(src)]
			e1 := e[(2*i+1)*ld+2*lo:][:len(src)]
			copy(e0, src)
			for p := 1; p < len(src); p += 2 {
				e1[p-1], e1[p] = -src[p], src[p-1]
			}
		}
		bv := view(b[:(n-1)*ldb+m])
		blk := m
		if fold != nil && uplo == Lower {
			blk = 4
		}
		var xr, xi [8]R
		for s0 := 0; s0 < m; s0 += blk {
			s1 := min(s0+blk, m)
			if s0 > 0 {
				fold(n, 2*s0, e, ld, bv, 2*ldb, 2*s0, 2*(s1-s0))
			}
			for j := 0; j < n; j += 8 {
				for s := s0; s < s1; s++ {
					i, lo, hi := s, s+1, s1
					if uplo == Upper {
						i, lo, hi = m-1-s, 0, m-1-s
					}
					row := bv[2*(j*ldb+i):]
					if diag == NonUnit {
						r := core.Div(1, a[i*lda+i])
						rr, ri := R(core.Re(r)), R(core.Im(r))
						for q := 0; q < 8; q++ {
							vr, vi := row[2*q*ldb], row[2*q*ldb+1]
							vr, vi = vr*rr-vi*ri, vr*ri+vi*rr
							row[2*q*ldb], row[2*q*ldb+1] = vr, vi
							xr[q], xi[q] = vr, vi
						}
					} else {
						for q := 0; q < 8; q++ {
							xr[q], xi[q] = row[2*q*ldb], row[2*q*ldb+1]
						}
					}
					if hi > lo {
						c := &bv[2*(j*ldb+lo)]
						subFma8(int64(2*(hi-lo)), &xr, &e[2*i*ld+2*lo], c, int64(2*ldb))
						subFma8(int64(2*(hi-lo)), &xi, &e[(2*i+1)*ld+2*lo], c, int64(2*ldb))
					}
				}
			}
		}
		putScratch(e)
	}
}

// subFma8 is the substitution sweep c(r, q) -= a(r)·x[q], q < 8, under
// trsvOctFma: dsubFma8 (four rows per step) or ssubFma8 (eight float32
// lanes) by element type. The kernel is named here rather than passed to
// trsvOctFma as a func value because a pointer handed to a func value
// escapes: x would cost a heap allocation per leaf or, copied by value,
// ~8 ns per elimination step (13 % of Getrf at n = 256, measured).
func subFma8[F core.Float](n int64, x *[8]F, a, c *F, ldc int64) {
	switch x := any(x).(type) {
	case *[8]float64:
		dsubFma8(n, &x[0], any(a).(*float64), any(c).(*float64), ldc)
	case *[8]float32:
		ssubFma8(n, &x[0], any(a).(*float32), any(c).(*float32), ldc)
	}
}

// gemvSub8 folds eight scaled source columns into y, y -= Σ_q t[q]·b(:,q):
// the portable form of the kernel table's gemvSub8 entry (the real asm rows
// run dgemvSub8/sgemvSub8).
func gemvSub8[T core.Scalar](m int, t [8]T, b []T, ldb int, y []T) {
	b0, b1, b2, b3 := b[:m], b[ldb:ldb+m], b[2*ldb:2*ldb+m], b[3*ldb:3*ldb+m]
	b4, b5, b6, b7 := b[4*ldb:4*ldb+m], b[5*ldb:5*ldb+m], b[6*ldb:6*ldb+m], b[7*ldb:7*ldb+m]
	for i := range y[:m] {
		s := t[0]*b0[i] + t[1]*b1[i] + t[2]*b2[i] + t[3]*b3[i]
		s += t[4]*b4[i] + t[5]*b5[i] + t[6]*b6[i] + t[7]*b7[i]
		y[i] -= s
	}
}

// trsvQuad is the four-wide left-side substitution, the remainder leaf after
// the octets: it solves A·x = b for four right-hand-side columns
// simultaneously. Every A column is read once per four solves and the inner
// loop carries four independent chains. Column q of B must already carry any
// alpha scaling.
func trsvQuad[T core.Scalar](uplo Uplo, diag Diag, m int, a []T, lda int, c0, c1, c2, c3 []T) {
	nonUnit := diag == NonUnit
	c0, c1, c2, c3 = c0[:m], c1[:m], c2[:m], c3[:m]
	for s := 0; s < m; s++ {
		i, lo, hi := s, s+1, m
		if uplo == Upper {
			i, lo, hi = m-1-s, 0, m-1-s
		}
		acol := a[i*lda : i*lda+m]
		x0, x1, x2, x3 := c0[i], c1[i], c2[i], c3[i]
		if nonUnit {
			d := acol[i]
			x0, x1, x2, x3 = core.Div(x0, d), core.Div(x1, d), core.Div(x2, d), core.Div(x3, d)
			c0[i], c1[i], c2[i], c3[i] = x0, x1, x2, x3
		}
		for r := lo; r < hi; r++ {
			t := acol[r]
			c0[r] -= t * x0
			c1[r] -= t * x1
			c2[r] -= t * x2
			c3[r] -= t * x3
		}
	}
}
