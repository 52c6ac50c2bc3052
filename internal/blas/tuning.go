package blas

import (
	"repro/internal/core"
	"repro/internal/faultinject"
)

// Cache-blocking parameters for the packed Level-3 engine (gemm.go), following
// the three-level BLIS/GotoBLAS decomposition: C is updated in nc-wide column
// slabs, each slab in kc-deep rank updates, each rank update in mc-tall row
// tiles, and every (mc×kc)·(kc×nc) product runs an mr×nr register
// micro-kernel over packed, contiguous panels (kernel.go has the per-type
// geometry).
//
// The block sizes are element counts for float64 and are scaled by element
// size in blockFor, so the byte footprint of a packed panel is roughly
// type-independent. At gemmMC = gemmKC = 256, gemmNC = 2048:
//
//   - kc·nr·8 = 16 KiB on the AVX-512 rows (nr = 8), 8 KiB on the others
//     (nr = 4) — one B micro-panel stays resident in L1 (48 KiB on the
//     AVX-512 parts, 32 KiB before) while the A micro-panels, kc·mr·8 =
//     48 KiB at mr = 24, stream past it from L2,
//   - mc·kc·8 = 512 KiB — the packed A block stays resident in L2 (mc is
//     rounded down to whole micro-panels: 240 rows at mr = 24),
//   - kc·nc·8 = 4 MiB — the packed B slab targets L3.
//
// kc also fixes the length of the FMA chains, so moving it moves every bit
// above one slab (alternatives measured in EXPERIMENTS.md, "AVX-512 row").
//
// The block sizes, the pack-free crossover and the Level-3 serial cutoff are
// the library's decision, not a caller's: no option, variable or Config field
// sets them. They are read through engine, where a test may move them with
// faultinject.ForceEngine (diff.Engine); every other crossover below is a
// plain constant.
const (
	// The cache block sizes above, the pack-free small-matrix crossover
	// (SmallOK) and the m·n·k volume below which Level-3 operations stay
	// serial even when Threads > 1 (level3Workers).
	gemmMC, gemmKC, gemmNC = 256, 256, 2048
	gemmSmallDim           = 64
	gemmParallelMinVol     = 192 * 192 * 192

	// gemmPackedMinVol is the m·n·k volume below which Gemm stays on the
	// naive column-walking kernel: packing two operands only pays for
	// itself once each packed element is reused across enough micro-tiles.
	// 80³ keeps every n ≤ 64 problem (and the skinny updates of small
	// factorizations) on the low-latency path.
	gemmPackedMinVol = 80 * 80 * 80

	// gemmPackedMinVolAsm replaces gemmPackedMinVol on the asm rows of the
	// kernel table (all four types on AVX2 or AVX-512 hardware): the kernel's
	// higher flop rate amortizes packing at a fraction of the portable
	// crossover. The two asm rows share it, and every other crossover, so that
	// they take the same route for the same shape and agree bit for bit.
	gemmPackedMinVolAsm = 44 * 44 * 44

	// gemmPackedMinVol1m is the crossover of the complex 1m rows. Their
	// unpacked alternative is the generic complex loop, an order of magnitude
	// slower than the real asm kernel (Go evaluates complex64 products
	// through float64 on top), so packing wins from about 12³ on; 16³ keeps
	// the n < nr shapes, which are all edge tiles, on the loops a while
	// longer.
	gemmPackedMinVol1m = 16 * 16 * 16

	// dotRowsAsm and dotRows1m are the row-count crossovers of Gemm's
	// inner-product route (gemmDots) on the real asm rows and the complex 1m
	// rows, dotMinK its k crossover on both; the portable rows leave the
	// route off.
	dotRowsAsm = 16
	dotRows1m  = 8
	dotMinK    = 256

	// level3BlockSize is the diagonal block size used when Symm/Hemm are
	// decomposed into GEMM-shaped updates, and the problem size below which
	// the triangular kernels stay on their unblocked forms.
	level3BlockSize = 64

	// trsmLeafSize is the triangle size at which the recursive Trsm stops
	// splitting and runs direct substitution. Splitting further converts
	// leaf flops into rectangular GEMM updates but pays a packing pass per
	// recursion level; with the FMA substitution kernels the leaf is cheap
	// enough that 64 beats both finer and coarser splits on the LU/Cholesky
	// benchmark shapes. The portable rows of every type keep it too: their
	// GEMM is no faster than the substitution loops.
	trsmLeafSize = 64

	// trsmLeafSizeF32 replaces trsmLeafSize for float32 operands. The
	// eight-wide f32 substitution kernel runs close to packed-GEMM speed on
	// half-width elements, so larger diagonal blocks that skip the packing
	// pass win: 96 beats 64 by ~5% on the n=1024 single-precision LU.
	trsmLeafSizeF32 = 96

	// trsmLeafSizeC128/C64 replace it on the complex 1m rows, whose leaf is
	// the real row's substitution kernel on the 1e expansion of the triangle
	// (trsvOct1e): two short real sweeps per pivot, so the leaf stays smaller
	// than the real rows' (n=384, leaf 16/32/64: POSV Lower 5.03/4.82/4.97 ms
	// complex128; leaf 8/16/32/64: POSV 3.88/3.45/3.29/3.28, GESV
	// 5.77/5.59/5.41/5.58 ms complex64; EXPERIMENTS.md, "Symmetric drivers at
	// Level-3 rate").
	trsmLeafSizeC128 = 32
	trsmLeafSizeC64  = 32

	// gemvParallelMinVol is the m·n element count below which Gemv stays
	// serial, so small sweeps do not pay goroutine hand-off.
	gemvParallelMinVol = 512 * 512
)

// level3Workers is the one shared serial small-size cutoff for the Level-3
// layer: every entry point that opens a tile group — the packed engine
// under Gemm and the triangle routines, Trsm's slab fork, and through their
// GEMM-shaped updates also Symm/Hemm — routes its threading decision
// through this volume threshold, so no path pays goroutine hand-off on
// shapes where Gemm itself would stay serial. vol is the operation's
// multiply volume (m·n·k for Gemm, half that for a stored triangle, and
// for a triangular solve).
func level3Workers(cfg *core.Config, vol int) int {
	if cfg.Threads > 1 && vol < engine().ParallelMinVol {
		return 1
	}
	return cfg.Threads
}

// engine is the one reader of gemmMC … gemmParallelMinVol: their values, with
// a test's faultinject.ForceEngine hook applied when one is set.
func engine() faultinject.Engine {
	e := faultinject.Engine{MC: gemmMC, KC: gemmKC, NC: gemmNC, SmallDim: gemmSmallDim, ParallelMinVol: gemmParallelMinVol}
	if mutate := faultinject.EngineHook(); mutate != nil {
		moved := e // a copy of its own, so that e stays off the heap
		mutate(&moved)
		return moved
	}
	return e
}

// SmallOK reports whether a problem whose every dimension is at most n takes
// the pack-free small-matrix path: the one crossover of Gemm's NoTrans small
// products (gemmsmall.go) and of lapack's small LU and Cholesky.
func SmallOK(n int) bool {
	d := engine().SmallDim
	return d > 0 && n <= d
}

// packedMinVol is the companion crossover: the multiply volume below which a
// Level-3 operation is not worth routing through the packed engine at all
// for element type T. Shared by Gemm, the rank-k family and the blocked
// Symm/Hemm so no entry point pays pack traffic on shapes where Gemm itself
// would stay on the low-latency path.
func packedMinVol[T core.Scalar]() int {
	return kernelFor[T]().minVol
}

// blockFor returns the (mc, kc, nc) block sizes for element type T, scaling
// the float64-calibrated values of engine so
// packed-panel byte footprints stay roughly constant across the four scalar
// types (float32 panels get 2× the elements, complex128 panels half) and
// rounding mc/nc down to whole micro-panels of the row kern. kc does not
// depend on the row: it is the length of the FMA chains, so the rows of one
// type agree on it and with it on every bit.
func blockFor[T core.Scalar](kern *kernel[T]) (mc, kc, nc int) {
	var z T
	e := engine()
	scale := func(v, unit int) int {
		switch any(z).(type) {
		case float32:
			v *= 2
		case complex128:
			v /= 2
		}
		return max(unit, v-v%unit)
	}
	return scale(e.MC, kern.mr), max(4, scale(e.KC, 1)), scale(e.NC, kern.nr)
}
