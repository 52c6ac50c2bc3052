package blas

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// Tests of the kernel table (kernel.go): every row — the asm rows kernelFor
// picks on AVX2 hardware and the portable rows forced through faultinject —
// must agree with the unpacked reference loops on every operand form.

// eachRoute runs f against the row kernelFor selects and against the
// portable row. Under LA90_NO_ASM=1 or off amd64 both are the portable row.
func eachRoute(t *testing.T, f func(t *testing.T)) {
	t.Run("table", f)
	t.Run("portable", func(t *testing.T) {
		faultinject.ForcePortable(true)
		defer faultinject.ForcePortable(false)
		f(t)
	})
}

// smallBlocks is a configuration whose cache blocks are a few micro-tiles, so
// modest shapes cross every blocking boundary: several kc slabs, mc tiles and
// nc slabs, each with a ragged last one.
func smallBlocks(threads int) *core.Config {
	return core.Default().With(func(c *core.Config) {
		c.Threads = threads
		c.GemmMC, c.GemmKC, c.GemmNC = 24, 10, 12
		c.GemmParallelMinVol = 1
	})
}

var allTrans = []Trans{NoTrans, TransT, ConjTrans}

// complexAlphas are the alpha values of the complex sweeps: the two the
// factorizations use and a general one.
var complexAlphas = []complex128{1, -1, 1.5 - 0.5i}

// testGemmPacked checks gemmEngine against GemmNaive for all nine
// (transA, transB) pairs, each alpha, padded and bare leading dimensions, and shapes
// ragged against the micro-tile (4 and 8 complex rows, 4 columns) and the
// block sizes of smallBlocks, on one and on four workers.
func testGemmPacked[T core.Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	shapes := [][3]int{{1, 1, 1}, {3, 2, 5}, {4, 4, 10}, {9, 5, 11}, {17, 13, 7}, {31, 9, 23}, {50, 27, 41}}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		for _, ta := range allTrans {
			for _, tb := range allTrans {
				rowsA, colsA := m, k
				if ta != NoTrans {
					rowsA, colsA = k, m
				}
				rowsB, colsB := k, n
				if tb != NoTrans {
					rowsB, colsB = n, k
				}
				// Padded and bare leading dimensions both occur.
				lda, ldb, ldc := rowsA+3*(m%2), rowsB+n%2, m+2*(k%2)
				a := randSlice[T](rng, lda*colsA)
				b := randSlice[T](rng, ldb*colsB)
				c0 := randSlice[T](rng, ldc*n)
				for _, al := range complexAlphas {
					alpha := core.FromComplex[T](al)
					want := append([]T(nil), c0...)
					GemmNaive(ta, tb, m, n, k, alpha, a, lda, b, ldb, 1, want, ldc)
					for _, threads := range []int{1, 4} {
						got := append([]T(nil), c0...)
						gemmEngine(smallBlocks(threads), ta, tb, m, n, k, alpha, a, lda, b, ldb, got, ldc)
						if d := diffMax(got, want); d > 8*float64(k)*core.Eps[T]() {
							t.Fatalf("%dx%dx%d %d%d alpha=%v threads=%d: |packed-naive| = %g",
								m, n, k, ta, tb, al, threads, d)
						}
					}
				}
			}
		}
	}
}

func TestGemmPackedComplex(t *testing.T) {
	eachRoute(t, func(t *testing.T) {
		t.Run("complex128", testGemmPacked[complex128])
		t.Run("complex64", testGemmPacked[complex64])
	})
}

// testRankKPacked checks the triangle engine under Syrk, Herk, Syr2k and
// Her2k against the direct loops on both triangles and both operand forms:
// stored part within k·ε of the reference and the other triangle untouched.
func testRankKPacked[T core.Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	cfg := smallBlocks(1)
	for _, sh := range [][2]int{{5, 3}, {13, 21}, {30, 7}, {41, 25}} {
		n, k := sh[0], sh[1]
		for _, uplo := range []Uplo{Upper, Lower} {
			for _, noTrans := range []bool{true, false} {
				rows, cols := n, k
				if !noTrans {
					rows, cols = k, n
				}
				lda := rows + 2
				a := randSlice[T](rng, lda*cols)
				b := randSlice[T](rng, lda*cols)
				c0 := randSlice[T](rng, n*n)
				for i := 0; i < n; i++ {
					c0[i+i*n] = core.FromFloat[T](core.Re(c0[i+i*n]))
				}
				alpha := core.FromComplex[T](1.5 - 0.5i)
				tr, ctr := TransT, ConjTrans
				if noTrans {
					tr, ctr = NoTrans, NoTrans
				}
				type run struct {
					name       string
					hermitian  bool
					engine, op func(c []T)
				}
				runs := []run{
					{name: "Syrk",
						engine: func(c []T) {
							scaleTriangle(uplo, n, 0.5, c, n)
							syrkEngine(cfg, uplo, tr, n, k, alpha, a, lda, c, n, false)
						},
						op: func(c []T) { rankKBase(uplo, tr, n, k, alpha, a, lda, 0.5, c, n, false) }},
					{name: "Herk", hermitian: true,
						engine: func(c []T) {
							scaleTriangle(uplo, n, 0.5, c, n)
							syrkEngine(cfg, uplo, ctr, n, k, -1, a, lda, c, n, core.IsComplex[T]())
						},
						op: func(c []T) { rankKBase(uplo, ctr, n, k, -1, a, lda, 0.5, c, n, core.IsComplex[T]()) }},
					{name: "Syr2k",
						engine: func(c []T) {
							scaleTriangle(uplo, n, 0.5, c, n)
							triEngine(cfg, uplo, tr, complement(tr, TransT), n, k, alpha, a, lda, b, lda, c, n)
							triEngine(cfg, uplo, tr, complement(tr, TransT), n, k, alpha, b, lda, a, lda, c, n)
						},
						op: func(c []T) { refSyr2k(uplo, tr, n, k, alpha, a, lda, b, lda, 0.5, c, n) }},
					{name: "Her2k", hermitian: true,
						engine: func(c []T) {
							scaleTriangle(uplo, n, 0.5, c, n)
							triEngine(cfg, uplo, ctr, complement(ctr, ConjTrans), n, k, alpha, a, lda, b, lda, c, n)
							triEngine(cfg, uplo, ctr, complement(ctr, ConjTrans), n, k, core.Conj(alpha), b, lda, a, lda, c, n)
						},
						op: func(c []T) { refHer2k(uplo, ctr, n, k, alpha, a, lda, b, lda, 0.5, c, n) }},
				}
				for _, r := range runs {
					got := append([]T(nil), c0...)
					want := append([]T(nil), c0...)
					r.engine(got)
					r.op(want)
					for j := 0; j < n; j++ {
						for i := 0; i < n; i++ {
							stored := (uplo == Upper && i <= j) || (uplo == Lower && i >= j)
							g, w := got[i+j*n], want[i+j*n]
							if r.hermitian && i == j {
								// The drivers clear the roundoff-sized imaginary
								// part the engine may leave on the diagonal.
								g = core.FromFloat[T](core.Re(g))
							}
							if !stored && g != c0[i+j*n] {
								t.Fatalf("%s n=%d k=%d uplo=%d: wrote outside the triangle at (%d,%d)", r.name, n, k, uplo, i, j)
							}
							if d := core.Abs(g - w); stored && d > 16*float64(k)*core.Eps[T]() {
								t.Fatalf("%s n=%d k=%d uplo=%d notrans=%v (%d,%d): |packed-ref| = %g", r.name, n, k, uplo, noTrans, i, j, d)
							}
						}
					}
				}
			}
		}
	}
}

// complement returns the transB that makes op(B) the (conjugate) transpose of
// an operand stored like A: NoTrans·Xᵀ or Xᵀ·NoTrans.
func complement(transA, t Trans) Trans {
	if transA == NoTrans {
		return t
	}
	return NoTrans
}

func TestRankKPackedComplex(t *testing.T) {
	eachRoute(t, func(t *testing.T) {
		t.Run("complex128", testRankKPacked[complex128])
		t.Run("complex64", testRankKPacked[complex64])
	})
}

// testRoutesAgree runs Gemm and Herk through the public entry points, above
// every crossover, on the table's row and on the portable row: the two differ
// only in rounding order, so they must agree to n·ε, and on both the diagonal
// of Herk's result is exactly real.
func testRoutesAgree[T core.Scalar](t *testing.T) {
	const n = 90
	rng := rand.New(rand.NewSource(56))
	a := randSlice[T](rng, n*n)
	b := randSlice[T](rng, n*n)
	alpha := core.FromComplex[T](0.75 + 0.25i)
	var out [2][]T
	for i, portable := range []bool{false, true} {
		faultinject.ForcePortable(portable)
		c := make([]T, 2*n*n)
		Gemm(tcfg(), ConjTrans, NoTrans, n, n, n, alpha, a, n, b, n, 0, c, n)
		Herk(tcfg(), Lower, NoTrans, n, n, 1, a, n, 0, c[n*n:], n)
		for j := 0; j < n; j++ {
			if im := core.Im(c[n*n+j+j*n]); im != 0 {
				t.Fatalf("Herk diagonal %d has imaginary part %g (portable=%v)", j, im, portable)
			}
		}
		out[i] = c
	}
	faultinject.ForcePortable(false)
	if d := diffMax(out[0], out[1]); d > 4*n*core.Eps[T]() {
		t.Fatalf("table row and portable row differ by %g", d)
	}
}

func TestKernelRoutesAgree(t *testing.T) {
	defer faultinject.Reset()
	t.Run("complex128", testRoutesAgree[complex128])
	t.Run("complex64", testRoutesAgree[complex64])
	t.Run("float64", testRoutesAgree[float64])
	t.Run("float32", testRoutesAgree[float32])
}

// testNaNReachesC plants a NaN in a row of A that falls in a full micro-tile
// and an Inf in a row that falls in a ragged edge tile, against a row of
// zeros in B. 0·NaN and 0·Inf are NaN, so both rows of C must come out NaN:
// whether a non-finite value propagates may not depend on the tile its row
// lands in (the edge kernel used to skip zeros of B and dropped it).
func testNaNReachesC[T core.Scalar](t *testing.T) {
	// Rows 0..15 are a full tile and rows 32..34 a ragged one for every
	// geometry of the table (4, 8 and 16 rows); column 8 is a ragged tile too.
	const m, n, k = 35, 9, 5
	const interior, edge, p0 = 1, 34, 2
	rng := rand.New(rand.NewSource(78))
	a := randSlice[T](rng, m*k)
	b := randSlice[T](rng, k*n)
	a[interior+p0*m] = core.NaN[T]()
	a[edge+p0*m] = core.FromFloat[T](math.Inf(1))
	for j := 0; j < n; j++ {
		b[p0+j*k] = 0
	}
	c := make([]T, m*n)
	gemmEngine(tcfg(), NoTrans, NoTrans, m, n, k, 1, a, m, b, k, c, m)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			isNaN := math.IsNaN(core.Re(c[i+j*m]))
			if want := i == interior || i == edge; isNaN != want {
				t.Fatalf("C(%d,%d) = %v: NaN = %v, want %v", i, j, c[i+j*m], isNaN, want)
			}
		}
	}
}

func TestPackedNaNNotPositionDependent(t *testing.T) {
	eachRoute(t, func(t *testing.T) {
		t.Run("float64", testNaNReachesC[float64])
		t.Run("float32", testNaNReachesC[float32])
		t.Run("complex128", testNaNReachesC[complex128])
		t.Run("complex64", testNaNReachesC[complex64])
	})
}

// realEngineDigest runs the packed engines over float32 and float64 operands
// from a fixed seed — Gemm in all transpose forms, Syrk on both triangles and
// a recursive Trsm — and hashes every output bit.
func realEngineDigest[T core.Scalar](h interface{ Write([]byte) (int, error) }) {
	rng := rand.New(rand.NewSource(90))
	put := func(s []T) {
		for _, v := range s {
			bits := math.Float64bits(core.Re(v))
			h.Write([]byte{byte(bits), byte(bits >> 8), byte(bits >> 16), byte(bits >> 24),
				byte(bits >> 32), byte(bits >> 40), byte(bits >> 48), byte(bits >> 56)})
		}
	}
	for _, sh := range [][3]int{{67, 45, 83}, {130, 97, 300}} {
		m, n, k := sh[0], sh[1], sh[2]
		for _, ta := range []Trans{NoTrans, TransT} {
			for _, tb := range []Trans{NoTrans, TransT} {
				a := randSlice[T](rng, (max(m, k)+1)*max(m, k))
				b := randSlice[T](rng, (max(n, k)+1)*max(n, k))
				c := randSlice[T](rng, m*n)
				Gemm(tcfg(), ta, tb, m, n, k, core.FromFloat[T](-1), a, max(m, k)+1, b, max(n, k)+1, core.FromFloat[T](0.5), c, m)
				put(c)
			}
		}
		for _, uplo := range []Uplo{Upper, Lower} {
			for _, tr := range []Trans{NoTrans, TransT} {
				a := randSlice[T](rng, max(m, k)*max(m, k))
				c := randSlice[T](rng, m*m)
				Syrk(tcfg(), uplo, tr, m, k, core.FromFloat[T](1.25), a, max(m, k), core.FromFloat[T](1), c, m)
				put(c)
			}
		}
		tri := randSlice[T](rng, m*m)
		for i := 0; i < m; i++ {
			tri[i+i*m] += core.FromFloat[T](float64(m))
		}
		x := randSlice[T](rng, m*n)
		Trsm(tcfg(), Left, Lower, NoTrans, NonUnit, m, n, 1, tri, m, x, m)
		put(x)
	}
}

// The float32/float64 rows of the table must compute exactly what the
// per-type dispatch they replaced computed: the digests below were recorded
// from the commit before the kernel table, on both routes. Go does not fuse
// multiply-adds on amd64, so the portable digests hold there; other ports
// may fuse and are skipped.
func TestRealEnginesBitIdenticalToPreTable(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are recorded on amd64")
	}
	defer faultinject.Reset()
	defer SetThreads(SetThreads(1))
	golden := map[string]string{
		"asm/float64":      goldenAsmF64,
		"asm/float32":      goldenAsmF32,
		"portable/float64": goldenGoF64,
		"portable/float32": goldenGoF32,
	}
	for _, portable := range []bool{false, true} {
		route := "asm"
		if portable || !asmF64() {
			route = "portable"
		}
		faultinject.ForcePortable(portable)
		h64, h32 := fnv.New64a(), fnv.New64a()
		realEngineDigest[float64](h64)
		realEngineDigest[float32](h32)
		faultinject.ForcePortable(false)
		if got := fmt.Sprintf("%016x", h64.Sum64()); got != golden[route+"/float64"] {
			t.Errorf("%s float64 digest %s, recorded %s", route, got, golden[route+"/float64"])
		}
		if got := fmt.Sprintf("%016x", h32.Sum64()); got != golden[route+"/float32"] {
			t.Errorf("%s float32 digest %s, recorded %s", route, got, golden[route+"/float32"])
		}
	}
}

const (
	goldenAsmF64 = "c6d2cda8ef5d0a95"
	goldenAsmF32 = "0c47848641879fbb"
	goldenGoF64  = "bc92bbd2a56fa80a"
	goldenGoF32  = "6ac6c6356297af22"
)

// testGemmt checks Gemmt against GemmNaive into a copy, on the stored triangle
// only: all nine (transA, transB) pairs, both triangles, the alphas and betas
// the factorizations use and general ones, and orders that straddle the
// packed crossover of every row and the blocks of smallBlocks. The strict
// other triangle of C is poisoned with NaN: it must come back bit for bit
// (never written) and the stored part finite (never read), and with beta = 0
// a NaN in the stored part is cleared. With the general alpha and beta every
// shape also runs on 2, 4 and 7 workers, which must reproduce the serial
// bits.
func testGemmt[T core.Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	nan := core.NaN[T]()
	for _, sh := range [][2]int{{1, 1}, {5, 3}, {13, 21}, {30, 23}, {50, 41}, {90, 70}} {
		n, k := sh[0], sh[1]
		for _, ta := range allTrans {
			for _, tb := range allTrans {
				rowsA, colsA, rowsB, colsB := n, k, k, n
				if ta != NoTrans {
					rowsA, colsA = k, n
				}
				if tb != NoTrans {
					rowsB, colsB = n, k
				}
				lda, ldb, ldc := rowsA+1, rowsB+2*(n%2), n+1
				a := randSlice[T](rng, lda*colsA)
				b := randSlice[T](rng, ldb*colsB)
				c0 := randSlice[T](rng, ldc*n)
				for _, uplo := range []Uplo{Upper, Lower} {
					stored := inTri(uplo)
					for ai, al := range complexAlphas {
						for bi, be := range []float64{0, 1, 0.5} {
							if n > 50 && (ai != 2 || bi != 2) {
								continue // the largest shape only with the general scalars
							}
							alpha, beta := core.FromComplex[T](al), core.FromFloat[T](be)
							want := clone(c0)
							GemmNaive(ta, tb, n, n, k, alpha, a, lda, b, ldb, beta, want, ldc)
							in := clone(c0)
							for j := 0; j < n; j++ {
								for i := 0; i < n; i++ {
									if !stored(i, j) || (be == 0 && i == j) {
										in[i+j*ldc] = nan
									}
								}
							}
							var serial []T
							threads := []int{1}
							if ai == 2 && bi == 2 {
								threads = []int{1, 2, 4, 7}
							}
							for _, th := range threads {
								got := clone(in)
								Gemmt(smallBlocks(th), uplo, ta, tb, n, k, alpha, a, lda, b, ldb, beta, got, ldc)
								name := fmt.Sprintf("n=%d k=%d %v%v %v alpha=%v beta=%v threads=%d", n, k, ta, tb, uplo, al, be, th)
								if th > 1 {
									if !sameBits(got, serial) {
										t.Fatalf("%s: differs from the serial bits", name)
									}
									continue
								}
								serial = got
								for j := 0; j < n; j++ {
									for i := 0; i < ldc; i++ {
										g := got[i+j*ldc]
										if i >= n || !stored(i, j) {
											if !sameBits([]T{g}, []T{in[i+j*ldc]}) {
												t.Fatalf("%s: wrote (%d,%d) outside the triangle", name, i, j)
											}
										} else if d := core.Abs(g - want[i+j*ldc]); !(d <= 8*float64(k+1)*core.Eps[T]()) {
											t.Fatalf("%s: (%d,%d) = %v, Gemm %v", name, i, j, g, want[i+j*ldc])
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestGemmt(t *testing.T) {
	eachRoute(t, func(t *testing.T) {
		t.Run("float64", testGemmt[float64])
		t.Run("float32", testGemmt[float32])
		t.Run("complex128", testGemmt[complex128])
		t.Run("complex64", testGemmt[complex64])
	})
}

// testGemmtRoutesAgree runs one update above every row's packed crossover on
// the table's row and on the portable row: they differ only in rounding
// order.
func testGemmtRoutesAgree[T core.Scalar](t *testing.T) {
	const n, k = 96, 64
	rng := rand.New(rand.NewSource(22))
	a, b, c0 := randSlice[T](rng, n*k), randSlice[T](rng, n*k), randSlice[T](rng, n*n)
	var out [2][]T
	for i, portable := range []bool{false, true} {
		faultinject.ForcePortable(portable)
		out[i] = clone(c0)
		Gemmt(tcfg(), Lower, NoTrans, ConjTrans, n, k, core.FromFloat[T](-1), a, n, b, n, core.FromFloat[T](1), out[i], n)
	}
	faultinject.ForcePortable(false)
	if d := diffMax(out[0], out[1]); d > 4*k*core.Eps[T]() {
		t.Fatalf("table row and portable row differ by %g", d)
	}
}

func TestGemmtRoutesAgree(t *testing.T) {
	defer faultinject.Reset()
	t.Run("float64", testGemmtRoutesAgree[float64])
	t.Run("float32", testGemmtRoutesAgree[float32])
	t.Run("complex128", testGemmtRoutesAgree[complex128])
	t.Run("complex64", testGemmtRoutesAgree[complex64])
}
