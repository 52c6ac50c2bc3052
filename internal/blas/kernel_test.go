package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/testutil/diff"
)

// Tests of the kernel table (kernel.go): every row — the asm rows kernelFor
// picks on AVX2 hardware and the portable rows forced through faultinject —
// must agree with the unpacked reference loops on every operand form.

// smallBlocks moves the cache blocks to a few micro-tiles until t ends, so
// modest shapes cross every blocking boundary: several kc slabs, mc tiles and
// nc slabs, each with a ragged last one; and the serial cutoff to 1, so every
// shape forks at more than one worker.
func smallBlocks(t testing.TB) {
	diff.Engine(t, func(e *faultinject.Engine) {
		e.MC, e.KC, e.NC = 24, 10, 12
		e.ParallelMinVol = 1
	})
}

var allTrans = []Trans{NoTrans, TransT, ConjTrans}

// complexAlphas are the alpha values of the complex sweeps: the two the
// factorizations use and a general one.
var complexAlphas = []complex128{1, -1, 1.5 - 0.5i}

// testGemmPacked checks gemmEngine against GemmNaive for all nine
// (transA, transB) pairs, each alpha, padded and bare leading dimensions, and shapes
// ragged against the micro-tile of every row (4 to 24 complex rows, 4 or 8
// columns) and the block sizes of smallBlocks, on one and on four workers.
func testGemmPacked[T core.Scalar](t *testing.T) {
	smallBlocks(t)
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
						gemmEngine(tcfg().WithThreads(threads), ta, tb, m, n, k, alpha, a, lda, b, ldb, got, ldc)
						if d := diff.MaxDiff(got, want); d > 8*float64(k)*core.Eps[T]() {
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
	diff.Rows(t, func(t *testing.T) {
		t.Run("complex128", testGemmPacked[complex128])
		t.Run("complex64", testGemmPacked[complex64])
	})
}

// testRankKPacked checks the triangle engine under Syrk, Herk, Syr2k and
// Her2k against the direct loops on both triangles and both operand forms:
// stored part within k·ε of the reference and the other triangle untouched.
func testRankKPacked[T core.Scalar](t *testing.T) {
	smallBlocks(t)
	rng := rand.New(rand.NewSource(34))
	cfg := tcfg().WithThreads(1)
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
	diff.Rows(t, func(t *testing.T) {
		t.Run("complex128", testRankKPacked[complex128])
		t.Run("complex64", testRankKPacked[complex64])
	})
}

// testRoutesAgree runs Gemm and Herk through the public entry points, above
// every crossover, on every row: the rows differ only in rounding order, so
// they must agree to n·ε, and on each the diagonal of Herk's result is
// exactly real.
func testRoutesAgree[T core.Scalar](t *testing.T) {
	const n = 90
	rng := rand.New(rand.NewSource(56))
	a := randSlice[T](rng, n*n)
	b := randSlice[T](rng, n*n)
	alpha := core.FromComplex[T](0.75 + 0.25i)
	routesAgree(t, make([]T, 2*n*n), 4*n*core.Eps[T](), func(r diff.Row, c []T) {
		Gemm(tcfg(), ConjTrans, NoTrans, n, n, n, alpha, a, n, b, n, 0, c, n)
		Herk(tcfg(), Lower, NoTrans, n, n, 1, a, n, 0, c[n*n:], n)
		for j := 0; j < n; j++ {
			if im := core.Im(c[n*n+j+j*n]); im != 0 {
				t.Fatalf("Herk diagonal %d has imaginary part %g on the %v row", j, im, r)
			}
		}
	})
}

// routesAgree runs op into a copy of c0 on every row and fails t where a row
// differs from the selected one by more than tol.
func routesAgree[T core.Scalar](t *testing.T, c0 []T, tol float64, op func(r diff.Row, c []T)) {
	var want []T
	diff.OnRows(t, func(r diff.Row) {
		c := clone(c0)
		op(r, c)
		if want == nil {
			want = c
		} else if d := diff.MaxDiff(want, c); d > tol {
			t.Fatalf("%v row and selected row differ by %g", r, d)
		}
	})
}

func TestKernelRoutesAgree(t *testing.T) {
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
	// Two full tiles and a ragged one of three rows, a full tile and a ragged
	// one of one column, in the geometry of the selected row.
	kern := kernelFor[T]()
	m, n := 2*kern.mr+3, kern.nr+1
	const k, interior, p0 = 5, 1, 2
	edge := m - 1
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
	diff.Rows(t, func(t *testing.T) {
		t.Run("float64", testNaNReachesC[float64])
		t.Run("float32", testNaNReachesC[float32])
		t.Run("complex128", testNaNReachesC[complex128])
		t.Run("complex64", testNaNReachesC[complex64])
	})
}

// realEngineDigest runs the packed engines over float32 and float64 operands
// from a fixed seed — Gemm in all transpose forms, Syrk on both triangles and
// a recursive Trsm — and hashes every output bit.
func realEngineDigest[T core.Scalar](h *diff.Hash) {
	rng := rand.New(rand.NewSource(90))
	put := func(s []T) {
		for _, v := range s {
			h.Float(core.Re(v))
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

// The float32/float64 rows of the table must compute exactly what the per-type
// dispatch they replaced did: digests recorded before the kernel table, the
// asm ones regenerated once when the ragged tiles went from the scalar
// microEdge to the full-tile FMA chain (c6d2cda8ef5d0a95 / 0c47848641879fbb
// before). Both asm rows must produce them: a row that runs the asm kernels
// (asmF64) is held to column 0 alone, not to either column. Regenerate with
// `go test ./internal/blas -run RealEngines -args -golden`.
var realEngineGolden = diff.Table{
	"float32": {Hash: [2]uint64{0x9a381d423ec5f8b9, 0x6ac6c6356297af22}},
	"float64": {Hash: [2]uint64{0xdc265d249bc9fbe3, 0xbc92bbd2a56fa80a}},
}

func TestRealEnginesBitIdenticalToPreTable(t *testing.T) {
	defer SetThreads(SetThreads(1))
	realEngineGolden.Check(t, func(t *testing.T, out map[string]*diff.Hash) {
		out["float64"], out["float32"] = diff.NewHash(), diff.NewHash()
		realEngineDigest[float64](out["float64"])
		realEngineDigest[float32](out["float32"])
		for k, h := range out {
			if want := realEngineGolden[k].Hash[0]; asmF64() && h.Sum64() != want {
				t.Errorf("%s: %#016x on the asm kernels, recorded %#016x", k, h.Sum64(), want)
			}
		}
	})
}

// testGemmt checks Gemmt against GemmNaive into a copy, on the stored triangle
// only: all nine (transA, transB) pairs, both triangles, the alphas and betas
// the factorizations use and general ones, and orders that straddle the
// packed crossover of every row and the blocks of smallBlocks. The strict
// other triangle of C is poisoned with NaN: it must come back bit for bit
// (never written) and the stored part finite (never read), and with beta = 0
// a NaN in the stored part is cleared. With the general alpha and beta every
// shape also runs at every count of diff.Threads, which must reproduce the
// serial bits.
func testGemmt[T core.Scalar](t *testing.T) {
	smallBlocks(t)
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
							name := fmt.Sprintf("n=%d k=%d %v%v %v alpha=%v beta=%v", n, k, ta, tb, uplo, al, be)
							run := func(th int) []T {
								got := clone(in)
								Gemmt(tcfg().WithThreads(th), uplo, ta, tb, n, k, alpha, a, lda, b, ldb, beta, got, ldc)
								return got
							}
							var got []T
							if ai == 2 && bi == 2 {
								got = diff.AcrossThreads(t, name, run)
							} else {
								got = run(1)
							}
							for j := 0; j < n; j++ {
								for i := 0; i < ldc; i++ {
									g := got[i+j*ldc]
									if i >= n || !stored(i, j) {
										if !diff.Same([]T{g}, []T{in[i+j*ldc]}) {
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

func TestGemmt(t *testing.T) {
	diff.Rows(t, func(t *testing.T) {
		t.Run("float64", testGemmt[float64])
		t.Run("float32", testGemmt[float32])
		t.Run("complex128", testGemmt[complex128])
		t.Run("complex64", testGemmt[complex64])
	})
}

// testGemmtRoutesAgree runs one update above every row's packed crossover on
// every row: they differ only in rounding order.
func testGemmtRoutesAgree[T core.Scalar](t *testing.T) {
	const n, k = 96, 64
	rng := rand.New(rand.NewSource(22))
	a, b, c0 := randSlice[T](rng, n*k), randSlice[T](rng, n*k), randSlice[T](rng, n*n)
	routesAgree(t, c0, 4*k*core.Eps[T](), func(_ diff.Row, c []T) {
		Gemmt(tcfg(), Lower, NoTrans, ConjTrans, n, k, core.FromFloat[T](-1), a, n, b, n, core.FromFloat[T](1), c, n)
	})
}

func TestGemmtRoutesAgree(t *testing.T) {
	t.Run("float64", testGemmtRoutesAgree[float64])
	t.Run("float32", testGemmtRoutesAgree[float32])
	t.Run("complex128", testGemmtRoutesAgree[complex128])
	t.Run("complex64", testGemmtRoutesAgree[complex64])
}

// testRowsAgree runs every packed Level-3 routine above the packed crossover,
// on shapes ragged against both asm rows' micro-tiles and with operand slices
// that end on their last element, on the AVX-512 row and on the AVX2 row: the
// two take the same routes and every element is the same chain of fused
// multiply-adds per kc slab on both, so they must agree bit for bit.
func testRowsAgree[T core.Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(512))
	alpha := core.FromComplex[T](1.25 - 0.5i)
	// agree runs op into a copy of c0 on each row.
	agree := func(name string, c0 []T, op func(c []T)) {
		t.Helper()
		want, got := clone(c0), clone(c0)
		op(want)
		diff.Force(t, diff.AVX2)
		op(got)
		diff.Force(t, diff.Selected)
		if !diff.Same(got, want) {
			t.Errorf("%s: the AVX2 row differs bitwise from the AVX-512 row", name)
		}
	}
	// exact is a random m×n operand whose slice ends with its last element.
	exact := func(m, n, ld int) []T { return randSlice[T](rng, (n-1)*ld+m) }

	for _, sh := range [][3]int{{67, 45, 83}, {131, 98, 300}, {56, 40, 100}, {25, 203, 64}} {
		m, n, k := sh[0], sh[1], sh[2]
		c0 := exact(m, n, m+1)
		for _, ta := range allTrans {
			for _, tb := range allTrans {
				ra, ca, rb, cb := m, k, k, n
				if ta != NoTrans {
					ra, ca = k, m
				}
				if tb != NoTrans {
					rb, cb = n, k
				}
				a, b := exact(ra, ca, ra+2), exact(rb, cb, rb)
				agree(fmt.Sprintf("Gemm %v%v %dx%dx%d", ta, tb, m, n, k), c0, func(c []T) {
					Gemm(tcfg(), ta, tb, m, n, k, alpha, a, ra+2, b, rb, 0.5, c, m+1)
				})
			}
		}
	}

	trans := allTrans
	if !core.IsComplex[T]() {
		trans = allTrans[:2]
	}
	for _, sh := range [][2]int{{67, 83}, {133, 300}, {200, 48}} {
		n, k := sh[0], sh[1]
		c0 := exact(n, n, n)
		for _, uplo := range []Uplo{Upper, Lower} {
			for _, tr := range trans {
				ra, ca := n, k
				if tr != NoTrans {
					ra, ca = k, n
				}
				a, b := exact(ra, ca, ra), exact(ra, ca, ra+1)
				name := fmt.Sprintf("%v%v n=%d k=%d", uplo, tr, n, k)
				if tr != ConjTrans {
					agree("Syrk "+name, c0, func(c []T) { Syrk(tcfg(), uplo, tr, n, k, alpha, a, ra, 0.5, c, n) })
				}
				if tr != TransT || !core.IsComplex[T]() {
					agree("Herk "+name, c0, func(c []T) { Herk(tcfg(), uplo, tr, n, k, 1.25, a, ra, 0.5, c, n) })
				}
				agree("Gemmt "+name, c0, func(c []T) {
					Gemmt(tcfg(), uplo, tr, complement(tr, ConjTrans), n, k, alpha, a, ra, b, ra+1, 0.5, c, n)
				})
			}
		}
	}

	for _, nt := range []int{150, 333} {
		a := exact(nt, nt, nt)
		for i := range a {
			a[i] *= core.FromFloat[T](1 / float64(nt))
		}
		for i := 0; i < nt; i++ {
			a[i+i*nt] += 2
		}
		for _, side := range []Side{Left, Right} {
			m, n := nt, 77
			if side == Right {
				m, n = 77, nt
			}
			b0 := exact(m, n, m+3)
			for _, uplo := range []Uplo{Upper, Lower} {
				for _, tr := range trans {
					agree(fmt.Sprintf("Trsm side=%d %v%v %dx%d", side, uplo, tr, m, n), b0, func(b []T) {
						Trsm(tcfg(), side, uplo, tr, NonUnit, m, n, alpha, a, nt, b, m+3)
					})
				}
			}
		}
	}
}

func TestRowsAgree(t *testing.T) {
	if kernelFor[float64]() != &kern512F64 {
		t.Skip("the AVX-512 row is not selected (no AVX-512, LA90_NO_ASM=1 or the AVX2 row forced): nothing to compare the AVX2 row with")
	}
	t.Run("float64", testRowsAgree[float64])
	t.Run("float32", testRowsAgree[float32])
	t.Run("complex128", testRowsAgree[complex128])
	t.Run("complex64", testRowsAgree[complex64])
}

// TestKernelForLadder checks the order kernelFor prefers the rows in —
// AVX-512, AVX2, portable, each only where the CPU gate allows it — and that
// the test-only overrides step down it, the portable one winning over the
// AVX2 one.
func TestKernelForLadder(t *testing.T) {
	defer faultinject.ForceAVX2(faultinject.ForceAVX2(false))
	defer faultinject.ForcePortable(false)
	want := func(row int) {
		t.Helper()
		if k := kernelFor[float64](); k != rowsF64[row] {
			t.Errorf("float64 row is %dx%d, want row %d (%dx%d)", k.mr, k.nr, row, rowsF64[row].mr, rowsF64[row].nr)
		}
		if k := kernelFor[complex64](); k != rowsC64[row] {
			t.Errorf("complex64 row is %dx%d, want row %d (%dx%d)", k.mr, k.nr, row, rowsC64[row].mr, rowsC64[row].nr)
		}
	}
	best, second := rowPortable, rowPortable
	if useAsmF64 {
		best, second = rowAVX2, rowAVX2
	}
	if useAVX512 {
		best = rowAVX512
	}
	want(best)
	t.Logf("selected float64 row: %dx%d", kernelFor[float64]().mr, kernelFor[float64]().nr)
	faultinject.ForceAVX2(true)
	want(second)
	faultinject.ForcePortable(true)
	want(rowPortable)
}
