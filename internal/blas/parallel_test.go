package blas

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// Concurrency-safety and determinism tests for the threaded Level-3 engine.
// Run with -race to exercise the data-race claims.

// TestGemmParallelRaceDisjoint runs many concurrent Gemm calls whose outputs
// are disjoint: the engine's internal worker pool is active in every call,
// so this catches races both between caller goroutines and inside the pool.
func TestGemmParallelRaceDisjoint(t *testing.T) {
	old := SetThreads(4)
	defer SetThreads(old)
	const n = 96
	const callers = 4
	rng := rand.New(rand.NewSource(1))
	a := randSlice[float64](rng, n*n)
	b := randSlice[float64](rng, n*n)
	var wg sync.WaitGroup
	outs := make([][]float64, callers)
	for g := 0; g < callers; g++ {
		outs[g] = make([]float64, n*n)
		wg.Add(1)
		go func(c []float64) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				Gemm(tcfg(), NoTrans, NoTrans, n, n, n, 1.0, a, n, b, n, 0.0, c, n)
			}
		}(outs[g])
	}
	wg.Wait()
	for g := 1; g < callers; g++ {
		for i := range outs[0] {
			if outs[g][i] != outs[0][i] {
				t.Fatalf("caller %d diverged at %d: %v vs %v", g, i, outs[g][i], outs[0][i])
			}
		}
	}
}

// TestGemmParallelRaceSharedRead hammers the same read-only inputs from
// concurrent callers with different trans configurations (different packing
// paths), each into its own C.
func TestGemmParallelRaceSharedRead(t *testing.T) {
	old := SetThreads(3)
	defer SetThreads(old)
	const n = 80
	rng := rand.New(rand.NewSource(2))
	a := randSlice[float64](rng, n*n)
	b := randSlice[float64](rng, n*n)
	var wg sync.WaitGroup
	for _, ta := range []Trans{NoTrans, TransT} {
		for _, tb := range []Trans{NoTrans, TransT} {
			wg.Add(1)
			go func(ta, tb Trans) {
				defer wg.Done()
				c := make([]float64, n*n)
				want := make([]float64, n*n)
				gemmEngine(tcfg(), ta, tb, n, n, n, 1.0, a, n, b, n, c, n)
				GemmNaive(ta, tb, n, n, n, 1.0, a, n, b, n, 1.0, want, n)
				for i := range c {
					if d := c[i] - want[i]; d > 1e-10 || d < -1e-10 {
						t.Errorf("ta=%v tb=%v: mismatch at %d", ta, tb, i)
						return
					}
				}
			}(ta, tb)
		}
	}
	wg.Wait()
}

// partitionCfg is a configuration with small cache blocks and a low threading
// cutoff, so modest shapes span several tiles of every kind at any worker
// count: shapes are given in units of the type's mc under it.
func partitionCfg(threads int) *core.Config {
	return core.Default().With(func(c *core.Config) {
		c.Threads = threads
		c.GemmMC, c.GemmKC, c.GemmNC = 64, 48, 512
		c.GemmParallelMinVol = partitionMinVol
	})
}

const partitionMinVol = 40 * 40 * 40

var partitionWorkers = []int{2, 3, 4, 7}

// TestPartitionAgreement is the bit-identity claim of parallel.go for every
// threaded Level-3 routine at once: whatever the worker count — and therefore
// the tile grid, the slab cuts and which goroutine runs what — the result is
// bitwise the one-worker result. Shapes: at most one mc tile, exactly three,
// short and wide, tall and narrow, ragged against mr and nr, and volumes on
// either side of the threading cutoff, all in units of the selected row's
// geometry. It runs on each asm row the machine has; make test-portable
// (LA90_NO_ASM=1) runs it again on the portable ones.
func TestPartitionAgreement(t *testing.T) {
	all := func(t *testing.T) {
		t.Run("float64", testPartitionAgreement[float64])
		t.Run("float32", testPartitionAgreement[float32])
		t.Run("complex128", testPartitionAgreement[complex128])
		t.Run("complex64", testPartitionAgreement[complex64])
	}
	all(t)
	onAVX2Row(t, all)
}

func testPartitionAgreement[T core.Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	mc, _, _ := blockFor(partitionCfg(1), kernelFor[T]())
	alpha := core.FromComplex[T](1.25 - 0.5i)
	// Below Gemm's own nine pairs, ConjTrans on real data is TransT again.
	trans := allTrans
	if !core.IsComplex[T]() {
		trans = allTrans[:2]
	}
	// agree runs op into a copy of c0 at every worker count.
	agree := func(name string, c0 []T, op func(cfg *core.Config, c []T)) {
		t.Helper()
		want := append([]T(nil), c0...)
		op(partitionCfg(1), want)
		for _, w := range partitionWorkers {
			got := append([]T(nil), c0...)
			op(partitionCfg(w), got)
			if !sameBits(got, want) {
				t.Errorf("%s: %d workers differ bitwise from one", name, w)
			}
		}
	}

	for _, sh := range [][3]int{
		{mc - 3, 70, 33}, {3 * mc, 50, 20}, {64, 960, 12}, {960, 64, 12},
		{mc + 13, 2*mc + 7, 53}, {40, 40, 39}, {40, 40, 41}, {21, 35, 100},
	} {
		m, n, k := sh[0], sh[1], sh[2]
		a, b := randSlice[T](rng, (m+k)*(m+k)), randSlice[T](rng, (n+k)*(n+k))
		c0 := randSlice[T](rng, (m+1)*n)
		for _, ta := range allTrans {
			for _, tb := range allTrans {
				lda, ldb := m+1, k+1
				if ta != NoTrans {
					lda = k + 1
				}
				if tb != NoTrans {
					ldb = n + 1
				}
				agree(fmt.Sprintf("Gemm %v%v %dx%dx%d", ta, tb, m, n, k), c0, func(cfg *core.Config, c []T) {
					Gemm(cfg, ta, tb, m, n, k, alpha, a, lda, b, ldb, 1, c, m+1)
				})
			}
		}
	}

	for _, sh := range [][2]int{{mc - 3, 40}, {3 * mc, 12}, {64, 300}, {mc + 13, 53}, {40, 79}, {40, 81}} {
		n, k := sh[0], sh[1]
		a, b := randSlice[T](rng, (n+k)*(n+k)), randSlice[T](rng, (n+k)*(n+k))
		c0 := randSlice[T](rng, n*n)
		for _, uplo := range []Uplo{Upper, Lower} {
			for _, tr := range trans {
				lda := n + 1
				if tr != NoTrans {
					lda = k + 1
				}
				name := fmt.Sprintf("%v%v n=%d k=%d", uplo, tr, n, k)
				if tr != ConjTrans {
					agree("Syrk "+name, c0, func(cfg *core.Config, c []T) {
						Syrk(cfg, uplo, tr, n, k, alpha, a, lda, 0.5, c, n)
					})
					agree("Syr2k "+name, c0, func(cfg *core.Config, c []T) {
						Syr2k(cfg, uplo, tr, n, k, alpha, a, lda, b, lda, 0.5, c, n)
					})
				}
				if tr != TransT || !core.IsComplex[T]() {
					agree("Herk "+name, c0, func(cfg *core.Config, c []T) {
						Herk(cfg, uplo, tr, n, k, 1.25, a, lda, 0.5, c, n)
					})
					agree("Her2k "+name, c0, func(cfg *core.Config, c []T) {
						Her2k(cfg, uplo, tr, n, k, alpha, a, lda, b, lda, 0.5, c, n)
					})
				}
				// Gemmt's second operand is k×n under NoTrans.
				ldb := k + 1
				if tr != NoTrans {
					ldb = n + 1
				}
				agree("Gemmt "+name, c0, func(cfg *core.Config, c []T) {
					Gemmt(cfg, uplo, tr, tr, n, k, alpha, a, lda, b, ldb, 0.5, c, n)
				})
			}
		}
	}

	// Trsm: every side/uplo/trans/diag form, triangles at, above and well
	// above the leaf size, right-hand-side counts below, at and above the
	// slab units, ragged and not.
	for _, nt := range []int{40, 100, 3*mc + 5} {
		frees := []int{1, 5, trsmColUnit, trsmRowUnit, 38, 40, 100}
		if nt > 100 {
			frees = []int{trsmColUnit, 38} // two levels of recursion cost more per solve
		}
		a := randSlice[T](rng, nt*nt)
		for i := range a {
			a[i] *= core.FromFloat[T](1 / float64(nt))
		}
		for i := 0; i < nt; i++ {
			a[i+i*nt] += 2
		}
		for _, free := range frees {
			for _, side := range []Side{Left, Right} {
				m, n := nt, free
				if side == Right {
					m, n = free, nt
				}
				b0 := randSlice[T](rng, (m+3)*n)
				for _, uplo := range []Uplo{Upper, Lower} {
					for _, tr := range trans {
						for _, diag := range []Diag{NonUnit, Unit} {
							agree(fmt.Sprintf("Trsm side=%d %v%v diag=%d %dx%d", side, uplo, tr, diag, m, n), b0, func(cfg *core.Config, b []T) {
								Trsm(cfg, side, uplo, tr, diag, m, n, alpha, a, nt, b, m+3)
							})
						}
					}
				}
			}
		}
	}
}

// TestTileGridPlan checks the tile plan itself, for every kernel geometry in
// the table at the default block sizes: cuts on micro-panel boundaries, tiles
// no taller than mc, at least two stored tiles per worker for shapes above
// the threading cutoff — and, through the engine, that the tiles cover the
// stored part of C exactly once: with A and B all ones and k = 1 every stored
// element must come out as exactly 1 and nothing else be written.
func TestTileGridPlan(t *testing.T) {
	eachRoute(t, func(t *testing.T) {
		t.Run("float64", testTileGridPlan[float64])
		t.Run("float32", testTileGridPlan[float32])
		t.Run("complex128", testTileGridPlan[complex128])
		t.Run("complex64", testTileGridPlan[complex64])
	})
}

func testTileGridPlan[T core.Scalar](t *testing.T) {
	kern := kernelFor[T]()
	mr, nr := kern.mr, kern.nr
	mc, _, nc := blockFor(core.Default(), kern)
	stored := func(uplo Uplo, i, j int) bool {
		return uplo == wholeMatrix || (uplo == Lower && i >= j) || (uplo == Upper && i <= j)
	}
	for _, sh := range [][2]int{{200, 300}, {768, 768}, {64, 960}, {960, 64}, {1000, 37}, {333, 333}, {192, 193}} {
		m, n := sh[0], sh[1]
		ones := make([]T, max(m, n))
		for i := range ones {
			ones[i] = 1
		}
		for _, workers := range partitionWorkers {
			h, w := tileGrid(m, min(n, nc), mr, nr, mc, workers)
			if h <= 0 || h%mr != 0 || h > mc || w <= 0 || w%nr != 0 {
				t.Fatalf("%dx%d, %d workers: tile %dx%d is not a micro-panel multiple within mc = %d", m, n, workers, h, w, mc)
			}
			uplos := []Uplo{wholeMatrix}
			if m == n {
				uplos = append(uplos, Upper, Lower)
			}
			for _, uplo := range uplos {
				tiles := 0
				for i := 0; i < m; i += h {
					for j := 0; j < n; j += w {
						// A tile of a triangle counts when its corner nearest
						// the diagonal is stored.
						if stored(uplo, min(i+h, m)-1, j) || stored(uplo, i, min(j+w, n)-1) {
							tiles++
						}
					}
				}
				if tiles < 2*workers {
					t.Errorf("%dx%d uplo=%d, %d workers: %d tiles of %dx%d, want at least two per worker", m, n, uplo, workers, tiles, h, w)
				}
				cfg := core.Default().With(func(c *core.Config) { c.Threads, c.GemmParallelMinVol = workers, 1 })
				c := make([]T, m*n)
				packedEngine(cfg, uplo, NoTrans, NoTrans, m, n, 1, 1, ones, m, ones, 1, c, m)
				for j := 0; j < n; j++ {
					for i := 0; i < m; i++ {
						want := T(0)
						if stored(uplo, i, j) {
							want = 1
						}
						if c[i+j*m] != want {
							t.Fatalf("%dx%d uplo=%d, %d workers: C(%d,%d) = %v, want %v", m, n, uplo, workers, i, j, c[i+j*m], want)
						}
					}
				}
			}
		}
	}
}

// TestSetThreads covers the budget accessors and that a forced serial
// setting really avoids the pool (observable only via determinism, checked
// above; here we check the API contract).
func TestSetThreads(t *testing.T) {
	orig := Threads()
	defer SetThreads(orig)
	if old := SetThreads(2); old != orig {
		t.Fatalf("SetThreads returned %d, want %d", old, orig)
	}
	if got := Threads(); got != 2 {
		t.Fatalf("Threads() = %d after SetThreads(2)", got)
	}
	if old := SetThreads(0); old != 2 || Threads() != 2 {
		t.Fatalf("SetThreads(0) must not change the setting (old=%d, now=%d)", old, Threads())
	}
}

// BenchmarkForkJoin is the cost of one tile group (EXPERIMENTS.md, "Tile
// scheduling"): four tiles of busy-waiting on one and on two workers. The
// empty group is the spawn-and-join overhead alone; with work in the tiles
// the excess over half the one-worker time is how late the second worker
// starts.
func BenchmarkForkJoin(b *testing.B) {
	for _, d := range []time.Duration{0, 20 * time.Microsecond, 200 * time.Microsecond} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("tile=%v/W=%d", d, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runTiles(4, workers, func(q *tileQueue) {
						for t := q.claim(); t >= 0; t = q.claim() {
							for start := time.Now(); time.Since(start) < d; {
							}
						}
					})
				}
			})
		}
	}
}
