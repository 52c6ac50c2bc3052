package blas

import (
	"math/bits"
	"sync"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// Packed, cache-blocked GEMM engine (the BLIS/GotoBLAS decomposition, see
// tuning.go for the block-size rationale). The driver Gemm in level3.go
// applies the beta scaling and dispatches here for large products; this file
// only ever *accumulates* alpha·op(A)·op(B) into C.
//
// Loop structure, outermost first:
//
//	jc over n in nc slabs   — pick a column slab of C and op(B)
//	pc over k in kc ranks   — pack op(B)(pc:pc+kb, jc:jc+nb) into bPack
//	tiles of the slab       — pack alpha·op(A)(ic:ic+mb, pc:pc+kb) into aPack;
//	                          one worker: mc-tall row tiles; several: the
//	                          grid of tileGrid, claimed (parallel.go)
//	jr over wb in nr panels — B micro-panel, L1-resident
//	ir over mb in mr panels — A micro-panel, register micro-kernel
//
// Both packed operands store micro-panels contiguously in the order the
// micro-kernel consumes them: aPack holds mr consecutive rows interleaved
// k-major (panel step p is ap[p·mr : p·mr+mr]), bPack holds nr consecutive
// columns interleaved k-major. alpha is folded into aPack during packing and
// op(·) transposition/conjugation is resolved during packing, so one
// micro-kernel serves all nine (transA, transB) combinations.
//
// The micro-tile geometry, the packed formats and the kernels that consume
// them come from the element type's row of the kernel table (kernel.go).

// scratchPools recycles packing buffers, diagonal-block scratch and the
// lapack layer's workspaces across calls. Factorizations issue thousands of
// modest Gemm calls, and allocating (and page-zeroing) a fresh packed panel
// for each one shows up as several percent of a whole LU. There is one pool
// per element type and power-of-two size class, and a buffer's capacity is
// its class size, so whatever a class hands out fits every request mapped to
// it: a small request can neither consume nor discard a large buffer.
// Buffers come back uninitialized; every user either overwrites its slice
// fully or clears what it needs zero explicitly (packA/packB zero-pad edge
// panels, the Syrk/Herk scratch is written with beta = 0).
//
// A pool stores *[]T: a pointer travels in an interface for free, where a
// slice header costs an allocation per Put. The holders emptied by a Get are
// recycled through scratchHolders, one pool per element type.
var (
	scratchPools   [4][bits.UintSize]sync.Pool
	scratchHolders [4]sync.Pool
)

// getScratch returns an uninitialized length-n slice, reusing a pooled buffer
// of n's size class when there is one.
func getScratch[T core.Scalar](n int) []T {
	class := bits.Len(uint(max(n, 1) - 1))
	t := scratchType[T]()
	if h, _ := scratchPools[t][class].Get().(*[]T); h != nil {
		s := (*h)[:n]
		*h = nil
		scratchHolders[t].Put(h)
		return s
	}
	return make([]T, n, 1<<class)
}

// putScratch takes back a slice from getScratch. Foreign slices are filed
// under the largest class their capacity covers.
func putScratch[T core.Scalar](s []T) {
	if cap(s) > 0 {
		t := scratchType[T]()
		h, _ := scratchHolders[t].Get().(*[]T)
		if h == nil {
			h = new([]T)
		}
		*h = s[:cap(s)]
		scratchPools[t][bits.Len(uint(cap(s)))-1].Put(h)
	}
}

// scratchType is the pools' index of element type T.
func scratchType[T core.Scalar]() int {
	var z T
	switch any(z).(type) {
	case float32:
		return 1
	case complex128:
		return 2
	case complex64:
		return 3
	}
	return 0
}

// GetScratch hands out a pooled, UNINITIALIZED length-n workspace slice for
// callers outside this package (the blocked panel reductions in
// internal/lapack recycle their W/X/Y panels through it). The contents are
// arbitrary: callers must write every element they later read, exactly like
// the packed-panel users above.
func GetScratch[T core.Scalar](n int) []T { return getScratch[T](n) }

// PutScratch returns a slice obtained from GetScratch to the pool.
func PutScratch[T core.Scalar](s []T) { putScratch(s) }

// gemmEngine accumulates C += alpha·op(A)·op(B) (beta already applied by the
// caller) on the packed engine. alpha must be non-zero and m, n, k positive.
func gemmEngine[T core.Scalar](cfg *core.Config, transA, transB Trans, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int) {
	packedEngine(cfg, wholeMatrix, transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
}

// wholeMatrix is packedEngine's uplo for a general C: every tile is stored.
const wholeMatrix Uplo = Lower + 1

// packedEngine is the one packed Level-3 engine: it accumulates
// alpha·op(A)·op(B), op(A) m×k and op(B) k×n, into C — all of it for
// uplo == wholeMatrix (Gemm), else only the uplo triangle of the square C
// (the rank-k family and Gemmt, rankk.go) — using packed panels, blocked
// loops and, for large enough products, a group of tiles (parallel.go) per
// packed rank slab. A worker packs the rows of op(A) under each tile it
// claims, alpha folded in, and tiles outside the stored part are skipped.
// The call's cancellation context is polled once per slab, the coarsest
// boundary at which no packed panel is left half-consumed.
func packedEngine[T core.Scalar](cfg *core.Config, uplo Uplo, transA, transB Trans, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int) {
	kern := kernelFor[T]()
	mr, nr := kern.mr, kern.nr
	mc, kc, nc := blockFor(kern)
	vol := m * n * k
	if uplo != wholeMatrix {
		vol /= 2
	}
	workers := level3Workers(cfg, vol)
	h, w := tileGrid(m, min(n, nc), mr, nr, mc, workers)
	rowTiles, packCols := (m+h-1)/h, 16*nr

	bPack := getScratch[T](kc * roundUp(min(nc, n), nr))
	for jc := 0; jc < n; jc += nc {
		jc := jc // a copy the tile closure captures by value, not a heap cell per iteration
		nb := min(nc, n-jc)
		colTiles := (nb + w - 1) / w
		for pc := 0; pc < k; pc += kc {
			cfg.Checkpoint()
			kb := min(kc, k-pc)
			// op(B) is packed by the workers as well, packCols columns (whole
			// micro-panels) at a time, in a group of its own: every tile of
			// the next group reads all of it.
			// One worker packs it in one piece: the same panels, and no group.
			if workers <= 1 {
				kern.packB(bPack, nr, transB, b, ldb, pc, kb, jc, nb)
			} else {
				eachTile((nb+packCols-1)/packCols, workers, func(t int) {
					j0 := t * packCols
					kern.packB(bPack[j0*kb:], nr, transB, b, ldb, pc, kb, jc+j0, min(packCols, nb-j0))
				})
			}

			runTiles(rowTiles*colTiles, workers, func(q *tileQueue) {
				buf := getScratch[T](tileScratch + kb*h*kern.kScale)
				tile, aPack := buf[:tileScratch], buf[tileScratch:]
				packed := -1
				for t := q.claim(); t >= 0; t = q.claim() {
					// Row-major numbering: consecutive tiles share their rows
					// of op(A), packed once. Widest rows first: those of a
					// lower triangle are taken bottom up.
					r := t / colTiles
					if uplo == Lower {
						r = rowTiles - 1 - r
					}
					ic, j0 := r*h, jc+t%colTiles*w
					mb, wb := min(h, m-ic), min(w, jc+nb-j0)
					// Nothing stored, all stored, or the diagonal crosses.
					if (uplo == Lower && ic+mb-1 < j0) || (uplo == Upper && ic > j0+wb-1) {
						continue
					}
					ap := aPack[:kb*roundUp(mb, mr)*kern.kScale]
					if r != packed {
						kern.packA(ap, mr, transA, alpha, a, lda, ic, mb, pc, kb)
						if faultinject.TakePackPoison() {
							ap[0] = core.NaN[T]()
						}
						packed = r
					}
					bp, ct := bPack[(j0-jc)*kb:], c[ic+j0*ldc:]
					if uplo == wholeMatrix || (uplo == Lower && ic >= j0+wb-1) || (uplo == Upper && ic+mb-1 <= j0) {
						macroKernel(kern, kb, mb, wb, ap, bp, ct, ldc, tile)
					} else {
						macroKernelTri(kern, uplo, kb, mb, wb, ap, bp, ct, ldc, j0-ic, tile)
					}
				}
				putScratch(buf)
			})
		}
	}
	putScratch(bPack)
}

// Tile policy of packedEngine with more than one worker: tilesPerWorker tiles
// for each, so that one who starts late or loses its CPU for a while costs
// the group a fraction of its share, but no tile less than minTileRows high
// or minTileCols wide (rounded up to whole micro-panels) — below that the
// packed panels are reused too little to pay for streaming them. The bounds
// are in elements, not micro-panels: a 48-row panel is no worse reused than
// four of 8 rows.
const (
	tilesPerWorker = 4
	minTileRows    = 32
	minTileCols    = 16
)

// tileGrid cuts an m×n block of C for `workers` workers and returns the tile
// height h, a multiple of mr no larger than mc, and width w, a multiple of
// nr: tile (r, c) is rows [r·h, r·h+h) × columns [c·w, c·w+w), clipped to
// the block. Rows are cut first — a row tile packs its rows of op(A) once —
// and columns only when m is too short to give every worker its tiles, at
// the price of packing those rows once per worker that touches them. One
// worker gets the serial sweep: mc-tall row tiles of full width.
func tileGrid(m, n, mr, nr, mc, workers int) (h, w int) {
	if workers <= 1 {
		return min(mc, roundUp(m, mr)), roundUp(n, nr)
	}
	want := tilesPerWorker * workers
	h = min(mc, roundUp(max(minTileRows, (m+want-1)/want), mr))
	rows := (m + h - 1) / h
	if rows >= want {
		return h, roundUp(n, nr)
	}
	cols := (want + rows - 1) / rows
	return h, roundUp(max(minTileCols, (n+cols-1)/cols), nr)
}

func roundUp(v, unit int) int {
	return (v + unit - 1) / unit * unit
}

// packA packs alpha·op(A)(i0:i0+mb, p0:p0+kb) into mr-row micro-panels,
// zero-padding the ragged last panel so full-tile kernels never branch on
// row count. dst must have length kb*roundUp(mb, mr).
func packA[T core.Scalar](dst []T, mr int, trans Trans, alpha T, a []T, lda int, i0, mb, p0, kb int) {
	trans = realTrans[T](trans)
	for r0 := 0; r0 < mb; r0 += mr {
		panel := dst[r0*kb : r0*kb+mr*kb]
		rows := min(mr, mb-r0)
		if rows < mr {
			clear(panel)
		}
		switch trans {
		case NoTrans:
			// op(A)(i, p) = A(i, p): each panel step reads a contiguous
			// run down column p0+p.
			if alpha == core.FromFloat[T](1) {
				for p := 0; p < kb; p++ {
					copy(panel[p*mr:p*mr+rows], a[i0+r0+(p0+p)*lda:])
				}
				break
			}
			if alpha == core.FromFloat[T](-1) {
				// The factorizations' trailing updates all carry alpha=-1,
				// so the negation is worth its own multiply-free loop.
				for p := 0; p < kb; p++ {
					src := a[i0+r0+(p0+p)*lda:][:rows]
					d := panel[p*mr:][:rows]
					for r, v := range src {
						d[r] = -v
					}
				}
				break
			}
			for p := 0; p < kb; p++ {
				src := a[i0+r0+(p0+p)*lda:][:rows]
				d := panel[p*mr:][:rows]
				for r, v := range src {
					d[r] = alpha * v
				}
			}
		case TransT:
			// op(A)(i, p) = A(p, i): panel row r is a contiguous run down
			// column i0+r0+r. Eight (then four) of those columns are read
			// together so that each panel step is written in one piece
			// instead of being revisited at stride mr once per row.
			src := a[p0+(i0+r0)*lda:]
			r := 0
			for ; r+8 <= rows; r += 8 {
				gatherCols8(panel[r:], mr, alpha, src[r*lda:], lda, kb)
			}
			for ; r+4 <= rows; r += 4 {
				gatherCols4(panel[r:], mr, alpha, src[r*lda:], lda, kb)
			}
			for ; r < rows; r++ {
				for p, v := range src[r*lda:][:kb] {
					panel[p*mr+r] = alpha * v
				}
			}
		default: // ConjTrans, complex T
			for r := 0; r < rows; r++ {
				src := a[p0+(i0+r0+r)*lda:]
				for p := 0; p < kb; p++ {
					panel[p*mr+r] = alpha * core.Conj(src[p])
				}
			}
		}
	}
}

// gatherCols8 writes dst[p·ld+c] = alpha·src[p+c·lds] for c < 8, p < kb: eight
// source columns transposed into eight adjacent slots of each ld-strided
// destination step. gatherCols4 is the four-column form, which also packs
// the full NoTrans micro-panels of B. Measured against an AVX2 4×4-transpose
// kernel in EXPERIMENTS.md ("Transposing pack").
func gatherCols8[T core.Scalar](dst []T, ld int, alpha T, src []T, lds, kb int) {
	s0 := src[:kb]
	s1 := src[lds:][:len(s0)]
	s2 := src[2*lds:][:len(s0)]
	s3 := src[3*lds:][:len(s0)]
	s4 := src[4*lds:][:len(s0)]
	s5 := src[5*lds:][:len(s0)]
	s6 := src[6*lds:][:len(s0)]
	s7 := src[7*lds:][:len(s0)]
	for p := range s0 {
		d := dst[p*ld : p*ld+8 : p*ld+8]
		d[0], d[1], d[2], d[3] = alpha*s0[p], alpha*s1[p], alpha*s2[p], alpha*s3[p]
		d[4], d[5], d[6], d[7] = alpha*s4[p], alpha*s5[p], alpha*s6[p], alpha*s7[p]
	}
}

func gatherCols4[T core.Scalar](dst []T, ld int, alpha T, src []T, lds, kb int) {
	s0 := src[:kb]
	s1 := src[lds:][:len(s0)]
	s2 := src[2*lds:][:len(s0)]
	s3 := src[3*lds:][:len(s0)]
	for p := range s0 {
		d := dst[p*ld : p*ld+4 : p*ld+4]
		d[0], d[1], d[2], d[3] = alpha*s0[p], alpha*s1[p], alpha*s2[p], alpha*s3[p]
	}
}

// packB packs op(B)(p0:p0+kb, j0:j0+nb) into nr-column micro-panels with the
// same zero-padding convention as packA. dst must have length
// kb*roundUp(nb, nr).
func packB[T core.Scalar](dst []T, nr int, trans Trans, b []T, ldb int, p0, kb, j0, nb int) {
	trans = realTrans[T](trans)
	for c0 := 0; c0 < nb; c0 += nr {
		panel := dst[c0*kb : c0*kb+nr*kb]
		cols := min(nr, nb-c0)
		if cols < nr {
			clear(panel)
		}
		switch trans {
		case NoTrans:
			if cols == 4 && nr == 4 {
				// Full micro-panel: interleave the four source columns in
				// one pass so every panel row is written contiguously
				// instead of revisiting it at stride nr per column.
				gatherCols4(panel, 4, core.FromFloat[T](1), b[p0+(j0+c0)*ldb:], ldb, kb)
				break
			}
			for c := 0; c < cols; c++ {
				src := b[p0+(j0+c0+c)*ldb:][:kb]
				for p, v := range src {
					panel[p*nr+c] = v
				}
			}
		case TransT:
			// op(B)(p, j) = B(j, p): panel step p reads a contiguous run
			// down column p0+p starting at row j0+c0.
			for p := 0; p < kb; p++ {
				copy(panel[p*nr:p*nr+cols], b[j0+c0+(p0+p)*ldb:])
			}
		default: // ConjTrans, complex T
			for p := 0; p < kb; p++ {
				src := b[j0+c0+(p0+p)*ldb:]
				d := panel[p*nr:]
				for c := 0; c < cols; c++ {
					d[c] = core.Conj(src[c])
				}
			}
		}
	}
}

// macroKernel sweeps the micro-kernel over one packed (mb×kb)·(kb×nb)
// product, accumulating into the C tile at c (leading dimension ldc). Full
// tiles go to the row's micro-kernel, ragged edge tiles to its edge kernel
// with tile as scratch.
func macroKernel[T core.Scalar](kern *kernel[T], kb, mb, nb int, aPack, bPack []T, c []T, ldc int, tile []T) {
	mr, nr := kern.mr, kern.nr
	ka := kb * kern.kScale // packed A elements per tile row
	for jr := 0; jr < nb; jr += nr {
		bp := bPack[jr*kb : jr*kb+nr*kb]
		cols := min(nr, nb-jr)
		for ir := 0; ir < mb; ir += mr {
			ap := aPack[ir*ka : ir*ka+mr*ka]
			rows := min(mr, mb-ir)
			ct := c[ir+jr*ldc:]
			if rows == mr && cols == nr {
				kern.micro(kb, ap, bp, ct, ldc)
			} else {
				kern.edge(kb, mr, nr, ap, bp, ct, ldc, rows, cols, tile)
			}
		}
	}
}
