// Benchmarks regenerating the paper's measurable artifacts (see DESIGN.md,
// experiment index E3/E9) plus ablations of the design choices the library
// makes internally. Run with:
//
//	go test -bench . -benchmem
package main

import (
	"fmt"
	"math"
	"testing"
	"time"
	"unsafe"

	"repro/f77"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/lapack"
	"repro/internal/testutil/diff"
	"repro/la"
)

// ---- E3: the paper's Example 3 — F77 vs F90 interface on GESV, N=500 ----

func exampleSystem(n, nrhs int) ([]float64, []float64) {
	rng := lapack.NewRng([4]int{1998, 3, 28, n})
	a := make([]float64, n*n)
	lapack.Larnv(1, rng, n*n, a)
	b := make([]float64, n*nrhs)
	for j := 0; j < nrhs; j++ {
		for i := 0; i < n; i++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += a[i+k*n]
			}
			b[i+j*n] = s * float64(j+1)
		}
	}
	return a, b
}

func benchF77GESV(b *testing.B, n, nrhs int) {
	a0, b0 := exampleSystem(n, nrhs)
	aw := make([]float64, len(a0))
	bw := make([]float64, len(b0))
	ipiv := make([]int, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(aw, a0)
		copy(bw, b0)
		if info := f77.GESV(n, nrhs, aw, n, ipiv, bw, n); info != 0 {
			b.Fatalf("info=%d", info)
		}
	}
}

func benchF90GESV(b *testing.B, n, nrhs int) {
	a0, b0 := exampleSystem(n, nrhs)
	aw := la.NewMatrix[float64](n, n)
	bw := la.NewMatrix[float64](n, nrhs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(aw.Data, a0)
		copy(bw.Data, b0)
		if _, err := la.GESV(aw, bw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExample3_F77GESV_N500(b *testing.B) { benchF77GESV(b, 500, 2) }
func BenchmarkExample3_F90GESV_N500(b *testing.B) { benchF90GESV(b, 500, 2) }

// BenchmarkApplyOptions prices per-call option application: la.GESV on n = 4,
// where the solve is a few dozen flops, with no option and with
// WithThreads(1). The option derives a Config from the default (copy,
// re-clamp; core.Config.WithThreads keeps the derivation for the next call),
// and the looped small-system workloads make thousands of such calls per
// pass, so ns/op and allocs/op here must stay at the straight-line cost.
func BenchmarkApplyOptions(b *testing.B) {
	a0, b0 := exampleSystem(4, 1)
	for _, c := range []struct {
		name string
		opts []la.Opt
	}{
		{"none", nil},
		{"WithThreads", []la.Opt{la.WithThreads(1)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			aw := la.NewMatrix[float64](4, 4)
			bw := la.NewMatrix[float64](4, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(aw.Data, a0)
				copy(bw.Data, b0)
				if _, err := la.GESV(aw, bw, c.opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E9: wrapper-overhead sweep across N for several drivers ----

func BenchmarkOverheadGESV(b *testing.B) {
	for _, n := range []int{10, 50, 100, 200} {
		b.Run("F77/N="+itoa(n), func(b *testing.B) { benchF77GESV(b, n, 2) })
		b.Run("F90/N="+itoa(n), func(b *testing.B) { benchF90GESV(b, n, 2) })
	}
}

// BenchmarkExample3Small is the paper's Example 3 — the same solve through
// the F77-style interface and through the LAPACK90 one — at the orders of a
// batched workload, where one call is a microsecond and the layers above the
// factorization are a visible part of it: GESV and POSV with one right-hand
// side at n = 4…64 through la, f77 and internal/lapack, allocations counted
// (the restoring copies are inside the timer on every layer alike).
func BenchmarkExample3Small(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64} {
		rng := lapack.NewRng([4]int{n, 19, 9, 8})
		gen := make([]float64, n*n)
		lapack.Larnv(2, rng, n*n, gen)
		spd := spdMatrix[float64](rng, n)
		rhs := make([]float64, n)
		lapack.Larnv(2, rng, n, rhs)
		aw, bw := la.NewMatrix[float64](n, n), la.NewMatrix[float64](n, 1)
		ipiv := make([]int, n)
		check := func(b *testing.B, failed bool) {
			if failed {
				b.Fatal("solve failed")
			}
		}
		for _, c := range []struct {
			name string
			a0   []float64
			call func() bool
		}{
			{"GESV/la", gen, func() bool { _, err := la.GESV(aw, bw); return err != nil }},
			{"GESV/f77", gen, func() bool { return f77.GESV(n, 1, aw.Data, n, ipiv, bw.Data, n) != 0 }},
			{"GESV/lapack", gen, func() bool { return lapack.Gesv(core.Default(), n, 1, aw.Data, n, ipiv, bw.Data, n) != 0 }},
			{"POSV/la", spd, func() bool { return la.POSV(aw, bw) != nil }},
			{"POSV/f77", spd, func() bool { return f77.POSV(f77.Upper, n, 1, aw.Data, n, bw.Data, n) != 0 }},
			{"POSV/lapack", spd, func() bool { return lapack.Posv(core.Default(), lapack.Upper, n, 1, aw.Data, n, bw.Data, n) != 0 }},
		} {
			b.Run(c.name+"/N="+itoa(n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(aw.Data, c.a0)
					copy(bw.Data, rhs)
					check(b, c.call())
				}
			})
		}
	}
}

func BenchmarkOverheadPOSV(b *testing.B) {
	for _, n := range []int{50, 200} {
		rng := lapack.NewRng([4]int{n, 9, 9, 9})
		a0 := make([]float64, n*n)
		g := make([]float64, n*n)
		lapack.Larnv(2, rng, n*n, g)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += g[k+i*n] * g[k+j*n]
				}
				a0[i+j*n] = s
			}
			a0[j+j*n] += float64(n)
		}
		b0 := make([]float64, n*2)
		lapack.Larnv(1, rng, n*2, b0)

		b.Run("F77/N="+itoa(n), func(b *testing.B) {
			aw := make([]float64, n*n)
			bw := make([]float64, n*2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(aw, a0)
				copy(bw, b0)
				if info := f77.POSV(f77.Upper, n, 2, aw, n, bw, n); info != 0 {
					b.Fatalf("info=%d", info)
				}
			}
		})
		b.Run("F90/N="+itoa(n), func(b *testing.B) {
			aw := la.NewMatrix[float64](n, n)
			bw := la.NewMatrix[float64](n, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(aw.Data, a0)
				copy(bw.Data, b0)
				if err := la.POSV(aw, bw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOverheadGELS(b *testing.B) {
	m, n := 300, 60
	rng := lapack.NewRng([4]int{m, n, 1, 1})
	a0 := make([]float64, m*n)
	lapack.Larnv(2, rng, m*n, a0)
	b0 := make([]float64, m)
	lapack.Larnv(2, rng, m, b0)
	b.Run("F77", func(b *testing.B) {
		aw := make([]float64, m*n)
		bw := make([]float64, m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(aw, a0)
			copy(bw, b0)
			if info := f77.GELS(f77.NoTrans, m, n, 1, aw, m, bw, m, nil, 0); info != 0 {
				b.Fatalf("info=%d", info)
			}
		}
	})
	b.Run("F90", func(b *testing.B) {
		aw := la.NewMatrix[float64](m, n)
		bw := make([]float64, m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(aw.Data, a0)
			copy(bw, b0)
			if err := la.GELS1(aw, bw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkOverheadSYEV(b *testing.B) {
	n := 100
	rng := lapack.NewRng([4]int{n, 2, 2, 2})
	a0 := make([]float64, n*n)
	lapack.Larnv(2, rng, n*n, a0)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			a0[j+i*n] = a0[i+j*n]
		}
	}
	w := make([]float64, n)
	b.Run("F77", func(b *testing.B) {
		aw := make([]float64, n*n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(aw, a0)
			if info := f77.SYEV[float64](true, f77.Upper, n, aw, n, w); info != 0 {
				b.Fatalf("info=%d", info)
			}
		}
	})
	b.Run("F90", func(b *testing.B) {
		aw := la.NewMatrix[float64](n, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(aw.Data, a0)
			if _, err := la.SYEV(aw, la.WithVectors()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Ablations of internal design choices (DESIGN.md §6) ----

// Blocked (Level-3 BLAS) versus unblocked LU — the "high performance" in
// the paper's title is LAPACK's blocking; this quantifies it in this
// implementation.
func BenchmarkAblationGETRF(b *testing.B) {
	n := 400
	rng := lapack.NewRng([4]int{n, 3, 3, 3})
	a0 := make([]float64, n*n)
	lapack.Larnv(2, rng, n*n, a0)
	ipiv := make([]int, n)
	b.Run("blocked", func(b *testing.B) {
		aw := make([]float64, n*n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(aw, a0)
			lapack.Getrf(core.Default(), n, n, aw, n, ipiv)
		}
	})
	b.Run("unblocked", func(b *testing.B) {
		aw := make([]float64, n*n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(aw, a0)
			lapack.Getf2(n, n, aw, n, ipiv)
		}
	})
}

// BenchmarkSymEigRoutes is the sweep that sets the order at which the
// symmetric eigensolver with vectors (LA_SYEV and LA_SYEVD alike) leaves the
// QL/QR iteration for divide & conquer: after the same reduction, "QR" forms
// Q and iterates on it (Orgtr, Steqr) and "DC" takes the eigenvectors of T by
// the D&C tree and applies Q to them (Stevd, Ormtr), per element type and
// order. EXPERIMENTS.md, "One symmetric eigensolver body", has the table.
func BenchmarkSymEigRoutes(b *testing.B) {
	for _, n := range []int{16, 32, 64, 96, 128, 192, 256, 384} {
		benchSymEigRoutes[float64](b, "f64/N="+itoa(n), n)
		benchSymEigRoutes[float32](b, "f32/N="+itoa(n), n)
		benchSymEigRoutes[complex128](b, "c128/N="+itoa(n), n)
		benchSymEigRoutes[complex64](b, "c64/N="+itoa(n), n)
	}
}

func benchSymEigRoutes[T core.Scalar](b *testing.B, suffix string, n int) {
	cfg := core.Default()
	a0 := make([]T, n*n)
	lapack.Larnv(2, lapack.NewRng([4]int{n, 4, 4, 4}), n*n, a0)
	a, z := make([]T, n*n), make([]T, n*n)
	d, e, tau := make([]float64, n), make([]float64, n), make([]T, n)
	routes := []struct {
		name string
		run  func() int
	}{
		{"QR", func() int {
			lapack.Orgtr(cfg, lapack.Upper, n, a, n, tau)
			return lapack.Steqr(cfg, n, d, e, a, n)
		}},
		{"DC", func() int {
			if info := lapack.Stevd(cfg, n, d, e, z, n); info != 0 {
				return info
			}
			lapack.Ormtr(cfg, lapack.Upper, lapack.NoTrans, n, n, a, n, tau, z, n)
			return 0
		}},
	}
	for _, r := range routes {
		b.Run(r.name+"/"+suffix, func(b *testing.B) {
			benchLoop(b, func() {
				copy(a, a0)
				lapack.Sytrd(cfg, lapack.Upper, n, a, n, d, e, tau)
				if info := r.run(); info != 0 {
					b.Fatalf("info %d", info)
				}
			})
		})
	}
}

// Rank-deficient least squares: complete orthogonal factorization versus
// SVD (GELSX vs GELSS).
func BenchmarkAblationRankDeficientLS(b *testing.B) {
	m, n := 200, 80
	rng := lapack.NewRng([4]int{m, n, 5, 5})
	a0 := make([]float64, m*n)
	lapack.Larnv(2, rng, m*n, a0)
	b0 := make([]float64, m)
	lapack.Larnv(2, rng, m, b0)
	b.Run("GELSX", func(b *testing.B) {
		aw := make([]float64, m*n)
		bw := make([]float64, m)
		jpvt := make([]int, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(aw, a0)
			copy(bw, b0)
			lapack.Gelsx(core.Default(), m, n, 1, aw, m, jpvt, 1e-12, bw, m)
		}
	})
	b.Run("GELSS", func(b *testing.B) {
		aw := make([]float64, m*n)
		bw := make([]float64, m)
		s := make([]float64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(aw, a0)
			copy(bw, b0)
			lapack.Gelss(core.Default(), m, n, 1, aw, m, bw, m, s, -1)
		}
	})
}

// Expert-driver cost: what refinement + condition estimation add on top
// of the simple driver, for the dense, symmetric, packed and band formats of
// the shared pipeline (internal/lapack/expert.go). n = 200, two right-hand
// sides; the symmetric legs take A + Aᵀ of the GESVX matrix (plus n·I for the
// positive definite ones), the band leg its kl = ku = 8 band plus 8·I, and
// the equilibrating leg the system with its rows scaled by powers of two
// across 2^±40, so that the row scaling fires.
func BenchmarkAblationExpertDriver(b *testing.B) {
	const n, kb = 200, 8
	a0, b0 := exampleSystem(n, 2)
	sym, spd, band := make([]float64, n*n), make([]float64, n*n), make([]float64, (2*kb+1)*n)
	var spdPacked []float64
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			sym[i+j*n] = a0[i+j*n] + a0[j+i*n]
			spd[i+j*n] = sym[i+j*n]
			if i == j {
				spd[i+j*n] += n
			}
			if i <= j {
				spdPacked = append(spdPacked, spd[i+j*n])
			}
			if d := kb + i - j; d >= 0 && d <= 2*kb {
				band[d+j*(2*kb+1)] = a0[i+j*n]
				if i == j {
					band[d+j*(2*kb+1)] += 8
				}
			}
		}
	}
	ac, bc := make([]complex128, n*n), make([]complex128, 2*n)
	for i := range ac {
		ac[i] = complex(a0[i], a0[len(a0)-1-i])
	}
	for i := range bc {
		bc[i] = complex(b0[i], -b0[i])
	}
	grade := func(x []float64) []float64 { // row i of x (leading dimension n) times 2^(-40+80i/(n-1))
		g := make([]float64, len(x))
		for k := range x {
			g[k] = math.Ldexp(x[k], -40+80*(k%n)/(n-1))
		}
		return g
	}
	b.Run("GESV", func(b *testing.B) { benchF90GESV(b, n, 2) })
	b.Run("GESVX", func(b *testing.B) {
		benchExpert(b, n, n, a0, b0, func(a, bw *la.Matrix[float64]) error { _, err := la.GESVX(a, bw); return err })
	})
	b.Run("POSVX", func(b *testing.B) {
		benchExpert(b, n, n, spd, b0, func(a, bw *la.Matrix[float64]) error { _, err := la.POSVX(a, bw); return err })
	})
	b.Run("SYSVX", func(b *testing.B) {
		benchExpert(b, n, n, sym, b0, func(a, bw *la.Matrix[float64]) error { _, err := la.SYSVX(a, bw); return err })
	})
	b.Run("PPSVX", func(b *testing.B) {
		benchExpert(b, len(spdPacked), 1, spdPacked, b0, func(a, bw *la.Matrix[float64]) error { _, err := la.PPSVX(a.Data, bw); return err })
	})
	b.Run("GBSVX", func(b *testing.B) {
		benchExpert(b, 2*kb+1, n, band, b0, func(a, bw *la.Matrix[float64]) error { _, err := la.GBSVX(a, bw); return err })
	})
	b.Run("GESVXequil", func(b *testing.B) {
		benchExpert(b, n, n, grade(a0), grade(b0), func(a, bw *la.Matrix[float64]) error {
			_, err := la.GESVX(a, bw, la.WithEquilibration())
			return err
		})
	})
	b.Run("GESVXc128", func(b *testing.B) {
		benchExpert(b, n, n, ac, bc, func(a, bw *la.Matrix[complex128]) error { _, err := la.GESVX(a, bw); return err })
	})
}

// benchExpert times call on a fresh copy of the rows×cols matrix storage a0
// and of the two-column right-hand side b0 per iteration.
func benchExpert[T la.Scalar](b *testing.B, rows, cols int, a0, b0 []T, call func(a, bw *la.Matrix[T]) error) {
	aw := la.NewMatrix[T](rows, cols)
	bw := la.NewMatrix[T](len(b0)/2, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(aw.Data, a0)
		copy(bw.Data, b0)
		if err := call(aw, bw); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Blocked versus unblocked QR — the second Level-3 blocking ablation.
func BenchmarkAblationGEQRF(b *testing.B) {
	m, n := 400, 200
	rng := lapack.NewRng([4]int{m, n, 8, 8})
	a0 := make([]float64, m*n)
	lapack.Larnv(2, rng, m*n, a0)
	tau := make([]float64, n)
	b.Run("blocked", func(b *testing.B) {
		aw := make([]float64, m*n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(aw, a0)
			lapack.Geqrf(core.Default(), m, n, aw, m, tau)
		}
	})
	b.Run("unblocked", func(b *testing.B) {
		aw := make([]float64, m*n)
		work := make([]float64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(aw, a0)
			lapack.Geqr2(core.Default(), m, n, aw, m, tau, work)
		}
	})
}

// ---- Level-3 engine benchmarks: packed/threaded GEMM vs the naive seed
// kernel and vs the pack-free small products, and the blocked factorizations
// riding on it.

func benchGemmEngine[T core.Scalar](b *testing.B, n int, naive bool) {
	benchGemmShape[T](b, core.Default(), blas.NoTrans, n, n, n, naive)
}

// benchGemmShape times C = op(A)·B, op(A) m×k: A is m×k for NoTrans, else
// k×m.
func benchGemmShape[T core.Scalar](b *testing.B, cfg *core.Config, transA blas.Trans, m, n, k int, naive bool) {
	rng := lapack.NewRng([4]int{n, 7, 7, 7})
	a0 := make([]T, m*k)
	b0 := make([]T, k*n)
	lapack.Larnv(2, rng, m*k, a0)
	lapack.Larnv(2, rng, k*n, b0)
	c := make([]T, m*n)
	one := core.FromFloat[T](1)
	lda := m
	if transA != blas.NoTrans {
		lda = k
	}
	// Untimed warm-up so -benchtime 1x measures steady state, not page
	// faults on the freshly allocated operands.
	blas.Gemm(cfg, transA, blas.NoTrans, m, n, k, one, a0, lda, b0, k, 0, c, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if naive {
			blas.GemmNaive(transA, blas.NoTrans, m, n, k, one, a0, lda, b0, k, 0, c, m)
		} else {
			blas.Gemm(cfg, transA, blas.NoTrans, m, n, k, one, a0, lda, b0, k, 0, c, m)
		}
	}
	// Real flops: a complex multiply-add is four real ones.
	flops := 2 * float64(m) * float64(n) * float64(k)
	if core.IsComplex[T]() {
		flops *= 4
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkGemm compares the packed engine (with its worker pool, sized by
// GOMAXPROCS or blas.SetThreads) against the retained naive kernel across
// the size sweep of the acceptance criteria, and runs the packed engine on
// float32 and the two complex types (the 1m rows of the kernel table; n = 384
// is the order of the benchmark's complex solves). The small products run
// pack-free ("small/packfree") and through the dispatch with that path off
// (the crossover moved to 0 through diff.Engine: the naive kernel below the
// packed cutoff, the packed engine above it). The ragged shapes
// — no dimension a multiple of any micro-tile, the k = NB panel update, a
// 37-column block — are where the edge tiles are, and run once more with the
// AVX2 row forced (the same row again on a machine without AVX-512), as does
// N=1024, so both asm rows leave a rate behind. The "ip" cells are the
// ConjTrans × NoTrans products of few rows over a long k that the
// inner-product route takes: V1ᴴ·V2 and C2ᴴ·V2 in a tall QR panel split to
// leaves of 8 columns, and a Qᴴ·B block of eight right-hand sides.
func BenchmarkGemm(b *testing.B) {
	for _, n := range []int{64, 256, 512, 1024} {
		b.Run("packed/N="+itoa(n), func(b *testing.B) { benchGemmEngine[float64](b, n, false) })
		b.Run("naive/N="+itoa(n), func(b *testing.B) { benchGemmEngine[float64](b, n, true) })
		b.Run("packed/f32/N="+itoa(n), func(b *testing.B) { benchGemmEngine[float32](b, n, false) })
	}
	for _, n := range []int{16, 32, 48, 64} {
		b.Run("small/packfree/N="+itoa(n), func(b *testing.B) { benchGemmShape[float64](b, core.Default(), blas.NoTrans, n, n, n, false) })
		b.Run("small/off/N="+itoa(n), func(b *testing.B) {
			diff.Engine(b, func(e *faultinject.Engine) { e.SmallDim = 0 })
			benchGemmShape[float64](b, core.Default(), blas.NoTrans, n, n, n, false)
		})
	}
	for _, n := range []int{64, 256, 384, 512, 1024} {
		b.Run("packed/c64/N="+itoa(n), func(b *testing.B) { benchGemmEngine[complex64](b, n, false) })
		b.Run("packed/c128/N="+itoa(n), func(b *testing.B) { benchGemmEngine[complex128](b, n, false) })
	}
	for _, avx2 := range []bool{false, true} {
		row, shapes := "packed", [][3]int{{1000, 1000, 1000}, {1024, 1024, 48}, {1024, 37, 1024}}
		if avx2 {
			row, shapes = "avx2", append([][3]int{{1024, 1024, 1024}}, shapes...)
		}
		for _, sh := range shapes {
			b.Run(row+"/"+itoa(sh[0])+"x"+itoa(sh[1])+"x"+itoa(sh[2]), func(b *testing.B) {
				defer faultinject.ForceAVX2(faultinject.ForceAVX2(avx2))
				benchGemmShape[float64](b, core.Default(), blas.NoTrans, sh[0], sh[1], sh[2], false)
			})
		}
	}
	b.Run("avx2/c128/N=512", func(b *testing.B) {
		defer faultinject.ForceAVX2(faultinject.ForceAVX2(true))
		benchGemmEngine[complex128](b, 512, false)
	})
	for _, sh := range [][3]int{{8, 8, 4096}, {16, 16, 4096}, {8, 32, 4064}} {
		b.Run("ip/"+itoa(sh[0])+"x"+itoa(sh[1])+"x"+itoa(sh[2]), func(b *testing.B) {
			benchGemmShape[float64](b, core.Default(), blas.ConjTrans, sh[0], sh[1], sh[2], false)
		})
	}
}

// BenchmarkGemmParallel pins the worker budget explicitly so the scaling of
// the macro-tile fan-out is visible regardless of GOMAXPROCS.
func BenchmarkGemmParallel(b *testing.B) {
	for _, threads := range []int{1, 2, 4} {
		for _, n := range []int{256, 512, 1024} {
			b.Run("T="+itoa(threads)+"/N="+itoa(n), func(b *testing.B) {
				old := blas.SetThreads(threads)
				defer blas.SetThreads(old)
				benchGemmEngine[float64](b, n, false)
			})
		}
	}
}

// BenchmarkLevel3Parallel is the thread-scaling table of the Level-3 layer
// (EXPERIMENTS.md, "Tile scheduling"): the shapes the factorizations hand the
// engines — square, the LU trailing update, short-and-wide, a Cholesky Herk,
// the Trsm of both sides and the 16-column solve of Getrs/Potrs — at one and
// two workers, float64. A shape scales when its T=2 time is about half its
// T=1 time; which shapes do is what the tile grid (blas.tileGrid) and Trsm's
// slab fork decide.
func BenchmarkLevel3Parallel(b *testing.B) {
	const maxDim = 2048
	rng := lapack.NewRng([4]int{18, 18, 18, 19})
	a := make([]float64, 1024*maxDim)
	x := make([]float64, 1024*maxDim)
	lapack.Larnv(2, rng, len(a), a)
	lapack.Larnv(2, rng, len(x), x)
	tri := make([]float64, 1024*1024)
	lapack.Larnv(2, rng, len(tri), tri)
	for j := 0; j < 1024; j++ {
		tri[j+j*1024] += 1024 // a well-conditioned triangle at any order
	}
	c := make([]float64, 1024*maxDim)
	type l3case struct {
		name  string
		flops float64
		run   func(cfg *core.Config)
	}
	var cases []l3case
	for _, sh := range [][3]int{{512, 2048, 256}, {1024, 1024, 1024}, {768, 768, 256}, {256, 1024, 256}, {128, 1024, 128}} {
		m, n, k := sh[0], sh[1], sh[2]
		cases = append(cases, l3case{"Gemm/" + itoa(m) + "x" + itoa(n) + "x" + itoa(k), 2 * float64(m) * float64(n) * float64(k), func(cfg *core.Config) {
			blas.Gemm(cfg, blas.NoTrans, blas.NoTrans, m, n, k, -1.0, a, m, x, k, 1.0, c, m)
		}})
	}
	trsm := func(side blas.Side, m, n int) func(cfg *core.Config) {
		return func(cfg *core.Config) {
			copy(c[:m*n], x)
			blas.Trsm(cfg, side, blas.Lower, blas.NoTrans, blas.NonUnit, m, n, 1.0, tri, 1024, c, m)
		}
	}
	cases = append(cases,
		l3case{"Herk/512x512", 512 * 512 * 512, func(cfg *core.Config) {
			blas.Herk(cfg, blas.Lower, blas.NoTrans, 512, 512, -1, a, 512, 1, c, 512)
		}},
		l3case{"Trsm/Left/512x512", 512 * 512 * 512, trsm(blas.Left, 512, 512)},
		l3case{"Trsm/Right/512x512", 512 * 512 * 512, trsm(blas.Right, 512, 512)},
		l3case{"Trsm/Left/1024x16", 1024 * 1024 * 16, trsm(blas.Left, 1024, 16)},
	)
	for _, tc := range cases {
		for _, threads := range []int{1, 2} {
			cfg := core.Default().With(func(c *core.Config) { c.Threads = threads })
			b.Run(tc.name+"/T="+itoa(threads), func(b *testing.B) {
				tc.run(cfg) // untimed warm-up: pack-buffer pools, page faults
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tc.run(cfg)
				}
				b.ReportMetric(tc.flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			})
		}
	}
}

// BenchmarkGetrf tracks the lookahead-pipelined LU driver with its
// recursive panels; the trailing updates are GEMM-shaped and ride the
// packed engine. The other three element types run at N = 1024.
func BenchmarkGetrf(b *testing.B) {
	for _, n := range []int{64, 256, 512, 1024} {
		b.Run("N="+itoa(n), func(b *testing.B) { benchGetrf[float64](b, n) })
	}
	b.Run("f32/N=1024", func(b *testing.B) { benchGetrf[float32](b, 1024) })
	b.Run("c64/N=1024", func(b *testing.B) { benchGetrf[complex64](b, 1024) })
	b.Run("c128/N=1024", func(b *testing.B) { benchGetrf[complex128](b, 1024) })
	b.Run("T=2/N=1024", func(b *testing.B) {
		defer blas.SetThreads(blas.SetThreads(2))
		benchGetrf[float64](b, 1024)
	})
	// The orders under the small-matrix crossover
	// (internal/lapack/smalllu.go), per element type, hot in cache.
	for _, n := range []int{4, 8, 16, 32, 48, 64} {
		b.Run("small/f64/N="+itoa(n), func(b *testing.B) { benchGetrf[float64](b, n) })
		b.Run("small/f32/N="+itoa(n), func(b *testing.B) { benchGetrf[float32](b, n) })
		b.Run("small/c64/N="+itoa(n), func(b *testing.B) { benchGetrf[complex64](b, n) })
		b.Run("small/c128/N="+itoa(n), func(b *testing.B) { benchGetrf[complex128](b, n) })
	}
}

func benchGetrf[T core.Scalar](b *testing.B, n int) {
	rng := lapack.NewRng([4]int{n, 3, 3, 3})
	a0 := make([]T, n*n)
	lapack.Larnv(2, rng, n*n, a0)
	aw := make([]T, n*n)
	ipiv := make([]int, n)
	copy(aw, a0)
	lapack.Getrf(core.Default(), n, n, aw, n, ipiv) // untimed warm-up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(aw, a0)
		lapack.Getrf(core.Default(), n, n, aw, n, ipiv)
	}
	flops := 2.0 / 3.0 * float64(n) * float64(n) * float64(n)
	if core.IsComplex[T]() {
		flops *= 4
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkLevel2 tracks the Level-1/2 leaves every factorization panel and
// reduction sits on, at a length where the call overhead dominates (8), one
// in cache (64) and one streaming (512): what a change to how a leaf picks
// its kernel (internal/blas/kernel.go) costs per call.
func BenchmarkLevel2(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		benchLevel2[float64](b, "f64/N="+itoa(n), n)
		benchLevel2[float32](b, "f32/N="+itoa(n), n)
		benchLevel2[complex128](b, "c128/N="+itoa(n), n)
		benchLevel2[complex64](b, "c64/N="+itoa(n), n)
	}
}

func benchLevel2[T core.Scalar](b *testing.B, suffix string, n int) {
	rng := lapack.NewRng([4]int{n, 9, 9, 9})
	a := make([]T, n*n)
	x, x0, y := make([]T, n), make([]T, n), make([]T, n)
	lapack.Larnv(2, rng, n*n, a)
	lapack.Larnv(2, rng, n, x0)
	for j := 0; j < n; j++ {
		a[j+j*n] += core.FromFloat[T](float64(n)) // a well-conditioned triangle for Trsv
	}
	copy(x, x0)
	cfg := core.Default()
	alpha := core.FromFloat[T](0.5)
	run := func(name string, f func()) {
		b.Run(name+"/"+suffix, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f()
			}
		})
	}
	run("Gemv-N", func() { blas.Gemv(cfg, blas.NoTrans, n, n, alpha, a, n, x, 1, 0, y, 1) })
	run("Gemv-T", func() { blas.Gemv(cfg, blas.TransT, n, n, alpha, a, n, x, 1, 0, y, 1) })
	run("Symv", func() { blas.Symv(blas.Upper, n, alpha, a, n, x, 1, 0, y, 1) })
	run("Trsv-N", func() { copy(y, x0); blas.Trsv(blas.Lower, blas.NoTrans, blas.NonUnit, n, a, n, y, 1) })
	run("Trsv-T", func() { copy(y, x0); blas.Trsv(blas.Lower, blas.TransT, blas.NonUnit, n, a, n, y, 1) })
	run("Axpy", func() { blas.Axpy(n, alpha, x, 1, y, 1) })
	run("Iamax", func() { sinkInt = blas.Iamax(n, x, 1) })
	// Last: the rank-one update is the one case that changes its matrix.
	run("Ger", func() { blas.Ger(n, n, core.FromFloat[T](1e-9), x, 1, x0, 1, a, n) })
}

var sinkInt int

// BenchmarkPotrf tracks the recursive Cholesky, whose flops are one Trsm
// and one Herk per level — all Level 3.
func BenchmarkPotrf(b *testing.B) {
	for _, n := range []int{64, 256, 512, 1024} {
		b.Run("N="+itoa(n), func(b *testing.B) { benchPotrf[float64](b, lapack.Lower, n) })
	}
	b.Run("f32/N=1024", func(b *testing.B) { benchPotrf[float32](b, lapack.Lower, 1024) })
	b.Run("c64/N=1024", func(b *testing.B) { benchPotrf[complex64](b, lapack.Lower, 1024) })
	b.Run("c128/N=1024", func(b *testing.B) { benchPotrf[complex128](b, lapack.Lower, 1024) })
	b.Run("T=2/N=1024", func(b *testing.B) {
		defer blas.SetThreads(blas.SetThreads(2))
		benchPotrf[float64](b, lapack.Lower, 1024)
	})
	// The orders under the small-matrix crossover (internal/lapack/smallchol.go),
	// per element type and triangle, hot in cache.
	for _, n := range []int{4, 8, 16, 32, 48, 64} {
		for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
			suffix := "/" + uplo.String() + "/N=" + itoa(n)
			b.Run("small/f64"+suffix, func(b *testing.B) { benchPotrf[float64](b, uplo, n) })
			b.Run("small/f32"+suffix, func(b *testing.B) { benchPotrf[float32](b, uplo, n) })
			b.Run("small/c64"+suffix, func(b *testing.B) { benchPotrf[complex64](b, uplo, n) })
			b.Run("small/c128"+suffix, func(b *testing.B) { benchPotrf[complex128](b, uplo, n) })
		}
	}
}

// spdMatrix returns G·Gᴴ + n·I for a random n×n G: Hermitian positive
// definite, both triangles stored.
func spdMatrix[T core.Scalar](rng *lapack.Rng, n int) []T {
	g := make([]T, n*n)
	lapack.Larnv(2, rng, n*n, g)
	a := make([]T, n*n)
	blas.Gemm(core.Default(), blas.NoTrans, blas.ConjTrans, n, n, n, core.FromFloat[T](1), g, n, g, n, core.FromFloat[T](0), a, n)
	for i := 0; i < n; i++ {
		a[i+i*n] = core.FromFloat[T](core.Re(a[i+i*n]) + float64(n))
	}
	return a
}

func benchPotrf[T core.Scalar](b *testing.B, uplo lapack.Uplo, n int) {
	a0 := spdMatrix[T](lapack.NewRng([4]int{n, 5, 5, 5}), n)
	aw := make([]T, n*n)
	copy(aw, a0)
	lapack.Potrf(core.Default(), uplo, n, aw, n) // untimed warm-up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(aw, a0)
		if info := lapack.Potrf(core.Default(), uplo, n, aw, n); info != 0 {
			b.Fatalf("info=%d", info)
		}
	}
	flops := 1.0 / 3.0 * float64(n) * float64(n) * float64(n)
	if core.IsComplex[T]() {
		flops *= 4
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkAblationSmallCholesky is the measurement behind the small
// Cholesky's routing (EXPERIMENTS.md, "Small Cholesky by element type"): the
// blocked body Potrf runs under the small-matrix crossover against the
// unblocked Potf2 it replaced there, per element type, triangle and order,
// on one matrix that stays in cache ("hot", the restoring copy timed) and
// over 170 distinct ones — a sixth of the small_batch workload — restored
// outside the timer ("x170").
func BenchmarkAblationSmallCholesky(b *testing.B) {
	for _, n := range []int{8, 16, 32, 48, 64} {
		for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
			suffix := "/" + uplo.String() + "/N=" + itoa(n)
			ablateSmallCholesky[float64](b, "f64"+suffix, uplo, n)
			ablateSmallCholesky[float32](b, "f32"+suffix, uplo, n)
			ablateSmallCholesky[complex64](b, "c64"+suffix, uplo, n)
			ablateSmallCholesky[complex128](b, "c128"+suffix, uplo, n)
		}
	}
}

func ablateSmallCholesky[T core.Scalar](b *testing.B, name string, uplo lapack.Uplo, n int) {
	rng := lapack.NewRng([4]int{n, 5, 5, 5})
	a0 := make([][]T, ablationDistinct)
	for i := range a0 {
		a0[i] = spdMatrix[T](rng, n)
	}
	ablateFactor(b, name, a0, []factorRoute[T]{
		{"blocked", func(a []T) int { return lapack.Potrf(core.Default(), uplo, n, a, n) }},
		{"potf2", func(a []T) int { return lapack.Potf2(core.Default(), uplo, n, a, n) }},
	})
}

// ablationDistinct is the number of distinct matrices of an "x170" leg, a
// sixth of the small_batch workload.
const ablationDistinct = 170

type factorRoute[T core.Scalar] struct {
	name   string
	factor func(a []T) int
}

// ablateFactor times each route of a small factorization on one of the
// matrices a0, which stays in cache ("hot", the restoring copy timed, as in
// BenchmarkPotrf and BenchmarkGetrf), and over all of them, restored outside
// the timer ("x170").
func ablateFactor[T core.Scalar](b *testing.B, name string, a0 [][]T, routes []factorRoute[T]) {
	aw := make([][]T, len(a0))
	for i := range aw {
		aw[i] = make([]T, len(a0[i]))
	}
	for _, route := range routes {
		for _, set := range []struct {
			name string
			k    int
		}{{"hot", 1}, {"x170", len(a0)}} {
			b.Run(route.name+"/"+set.name+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k := i % set.k
					if set.k == 1 {
						copy(aw[0], a0[0])
					} else if k == 0 {
						b.StopTimer()
						for j := range aw {
							copy(aw[j], a0[j])
						}
						b.StartTimer()
					}
					if info := route.factor(aw[k]); info != 0 {
						b.Fatalf("info=%d", info)
					}
				}
			})
		}
	}
}

// BenchmarkAblationSmallLU is the measurement behind the small LU's routing
// (EXPERIMENTS.md, "Small-matrix LU (PR 23)"): the blocked step body Getrf
// runs under the small-matrix crossover against the unblocked Getf2 and the
// recursive Getrf2 it is chosen over there, per element type and order, on
// one matrix that stays in cache ("hot", the restoring copy timed) and over
// 170 distinct ones — a sixth of the small_batch workload — restored outside
// the timer ("x170").
func BenchmarkAblationSmallLU(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 48, 64} {
		suffix := "/N=" + itoa(n)
		ablateSmallLU[float64](b, "f64"+suffix, n)
		ablateSmallLU[float32](b, "f32"+suffix, n)
		ablateSmallLU[complex64](b, "c64"+suffix, n)
		ablateSmallLU[complex128](b, "c128"+suffix, n)
	}
}

func ablateSmallLU[T core.Scalar](b *testing.B, name string, n int) {
	rng := lapack.NewRng([4]int{n, 3, 3, 3})
	a0 := make([][]T, ablationDistinct)
	for i := range a0 {
		a0[i] = make([]T, n*n)
		lapack.Larnv(2, rng, n*n, a0[i])
	}
	ipiv := make([]int, n)
	ablateFactor(b, name, a0, []factorRoute[T]{
		{"step", func(a []T) int { return lapack.Getrf(core.Default(), n, n, a, n, ipiv) }},
		{"getf2", func(a []T) int { return lapack.Getf2(n, n, a, n, ipiv) }},
		{"getrf2", func(a []T) int { return lapack.Getrf2(core.Default(), n, n, a, n, ipiv) }},
	})
}

// BenchmarkGetrsSmall prices the solve behind a small GESV: the interchanges
// and both substitutions from an LU factorization under the small-matrix
// crossover, for one and for four right-hand sides.
func BenchmarkGetrsSmall(b *testing.B) {
	for _, n := range []int{16, 32, 48, 64} {
		for _, nrhs := range []int{1, 4} {
			b.Run("N="+itoa(n)+"/nrhs="+itoa(nrhs), func(b *testing.B) {
				rng := lapack.NewRng([4]int{n, 7, 7, 7})
				a := make([]float64, n*n)
				lapack.Larnv(2, rng, n*n, a)
				ipiv := make([]int, n)
				if info := lapack.Getrf(core.Default(), n, n, a, n, ipiv); info != 0 {
					b.Fatalf("info=%d", info)
				}
				x0 := make([]float64, n*nrhs)
				lapack.Larnv(2, rng, n*nrhs, x0)
				x := make([]float64, n*nrhs)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(x, x0)
					lapack.Getrs(core.Default(), lapack.NoTrans, n, nrhs, a, n, ipiv, x, n)
				}
			})
		}
	}
}

// BenchmarkPotrsSmall prices the solve pair behind a small POSV: both
// substitutions from a Cholesky factor under the small-matrix crossover, for
// one and for four right-hand sides.
func BenchmarkPotrsSmall(b *testing.B) {
	for _, n := range []int{16, 32, 48, 64} {
		for _, nrhs := range []int{1, 4} {
			for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
				b.Run(uplo.String()+"/N="+itoa(n)+"/nrhs="+itoa(nrhs), func(b *testing.B) {
					rng := lapack.NewRng([4]int{n, 7, 7, 7})
					a := spdMatrix[float64](rng, n)
					if info := lapack.Potrf(core.Default(), uplo, n, a, n); info != 0 {
						b.Fatalf("info=%d", info)
					}
					x0 := make([]float64, n*nrhs)
					lapack.Larnv(2, rng, n*nrhs, x0)
					x := make([]float64, n*nrhs)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						copy(x, x0)
						lapack.Potrs(core.Default(), uplo, n, nrhs, a, n, x, n)
					}
				})
			}
		}
	}
}

// BenchmarkPosvSmallBatch is the POSV half of the repository benchmark's
// small_batch workload next to its GESV half: 1024 systems of order 4…64 in
// equal shares, one right-hand side, one thread, as a loop of single calls
// and as one batch call. One op is one pass over the 1024 systems; the
// inputs are copied back outside the timer.
func BenchmarkPosvSmallBatch(b *testing.B) {
	const systems = 1024
	sizes := [...]int{4, 8, 16, 32, 48, 64}
	rng := lapack.NewRng([4]int{systems, 1, 9, 9})
	spd0, gen0, rhs0 := make([][]float64, systems), make([][]float64, systems), make([][]float64, systems)
	as, bs := make([]*la.Matrix[float64], systems), make([]*la.Matrix[float64], systems)
	for i := range as {
		n := sizes[i%len(sizes)]
		spd0[i] = spdMatrix[float64](rng, n)
		gen0[i] = make([]float64, n*n)
		lapack.Larnv(2, rng, n*n, gen0[i])
		rhs0[i] = make([]float64, n)
		lapack.Larnv(2, rng, n, rhs0[i])
		as[i], bs[i] = la.NewMatrix[float64](n, n), la.NewMatrix[float64](n, 1)
	}
	opts := []la.Opt{la.WithThreads(1)}
	for _, c := range []struct {
		name string
		a0   [][]float64
		pass func() error
	}{
		{"POSV.loop", spd0, func() error {
			for i := range as {
				if err := la.POSV(as[i], bs[i], opts...); err != nil {
					return err
				}
			}
			return nil
		}},
		{"BatchPosv", spd0, func() error {
			errs, err := la.BatchPosv(as, bs, opts...)
			return firstError(errs, err)
		}},
		{"GESV.loop", gen0, func() error {
			for i := range as {
				if _, err := la.GESV(as[i], bs[i], opts...); err != nil {
					return err
				}
			}
			return nil
		}},
		{"BatchGesv", gen0, func() error {
			_, errs, err := la.BatchGesv(as, bs, opts...)
			return firstError(errs, err)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for k := range as {
					copy(as[k].Data, c.a0[k])
					copy(bs[k].Data, rhs0[k])
				}
				b.StartTimer()
				if err := c.pass(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func firstError(errs []error, err error) error {
	for _, e := range errs {
		if err == nil {
			err = e
		}
	}
	return err
}

// BenchmarkBatchVsLoop prices every Batch driver against a loop of its
// single-call driver under the same WithThreads(1) and WithThreads(2):
// GESV and POSV on small_batch's 1 024 systems of order 4…64, SYEV (with
// vectors), GESVX, POSVX and GESVD (BatchGesdd) on 256 problems of order 16,
// GELSD on 256 24×8 problems with one right-hand side, and GEMM on 1 024
// products of order 32 (no single-call driver, so its loop is BatchGemm on
// batches of one). Every iteration runs one loop pass and one batch pass,
// alternating, each on freshly copied inputs; loop-ms and batch-ms are the
// mean pass times and speedup is loop-ms/batch-ms, so -count 10 gives ten
// alternating pairs.
func BenchmarkBatchVsLoop(b *testing.B) {
	rng := lapack.NewRng([4]int{2026, 10, 17, 7})
	gen := func(r, c int) []float64 { g := make([]float64, r*c); lapack.Larnv(2, rng, r*c, g); return g }
	spd := func(r, _ int) []float64 { return spdMatrix[float64](rng, r) }
	small := make([]int, 1024)
	for i := range small {
		small[i] = []int{4, 8, 16, 32, 48, 64}[i%6]
	}
	type M = *la.Matrix[float64]
	// inputs returns len(orders) problems: A from a(r, c) and a B of brows(r,
	// c) × 1, and reset, which copies the pristine data back.
	inputs := func(orders []int, c func(r int) int, a func(r, c int) []float64, brows func(r, c int) int) (as, bs []M, reset func()) {
		var a0, b0 [][]float64
		for _, r := range orders {
			as, bs = append(as, la.NewMatrix[float64](r, c(r))), append(bs, la.NewMatrix[float64](brows(r, c(r)), 1))
			a0, b0 = append(a0, a(r, c(r))), append(b0, gen(brows(r, c(r)), 1))
		}
		return as, bs, func() {
			for i := range as {
				copy(as[i].Data, a0[i])
				copy(bs[i].Data, b0[i])
			}
		}
	}
	sq, rows := func(r int) int { return r }, func(r, _ int) int { return r }
	n16 := make([]int, 256)
	for i := range n16 {
		n16[i] = 16
	}
	each := func(k int, f func(i int) error) error {
		for i := 0; i < k; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	type leg struct {
		name        string
		reset       func()
		loop, batch func(o []la.Opt) error
	}
	var legs []leg
	// add is a leg over problems as, whose loop runs loop(i) for each.
	add := func(name string, as []M, reset func(), loop func(i int, o []la.Opt) error, batch func(o []la.Opt) error) {
		legs = append(legs, leg{name, reset, func(o []la.Opt) error {
			return each(len(as), func(i int) error { return loop(i, o) })
		}, batch})
	}
	as, bs, reset := inputs(small, sq, gen, rows)
	add("GESV", as, reset, func(i int, o []la.Opt) error { _, err := la.GESV(as[i], bs[i], o...); return err },
		func(o []la.Opt) error { _, errs, err := la.BatchGesv(as, bs, o...); return firstError(errs, err) })
	pa, pb, preset := inputs(small, sq, spd, rows)
	add("POSV", pa, preset, func(i int, o []la.Opt) error { return la.POSV(pa[i], pb[i], o...) },
		func(o []la.Opt) error { return firstError(la.BatchPosv(pa, pb, o...)) })
	ya, _, yreset := inputs(n16, sq, spd, rows)
	add("SYEV", ya, yreset, func(i int, o []la.Opt) error { _, err := la.SYEV(ya[i], append(o, la.WithVectors())...); return err },
		func(o []la.Opt) error {
			_, errs, err := la.BatchSyev(ya, append(o, la.WithVectors())...)
			return firstError(errs, err)
		})
	var ga, gb, gc []M // C := A·B overwrites only C: nothing to reset
	for range small {
		ga, gb, gc = append(ga, la.NewMatrix[float64](32, 32)), append(gb, la.NewMatrix[float64](32, 32)), append(gc, la.NewMatrix[float64](32, 32))
		lapack.Larnv(2, rng, 32*32, ga[len(ga)-1].Data)
		lapack.Larnv(2, rng, 32*32, gb[len(gb)-1].Data)
	}
	add("GEMM", ga, func() {}, func(i int, o []la.Opt) error {
		return firstError(la.BatchGemm(1, ga[i:i+1], gb[i:i+1], 0, gc[i:i+1], o...))
	}, func(o []la.Opt) error { return firstError(la.BatchGemm(1, ga, gb, 0, gc, o...)) })
	xa, xb, xreset := inputs(n16, sq, gen, rows)
	add("GESVX", xa, xreset, func(i int, o []la.Opt) error { _, err := la.GESVX(xa[i], xb[i], o...); return err },
		func(o []la.Opt) error { _, errs, err := la.BatchGesvx(xa, xb, o...); return firstError(errs, err) })
	qa, qb, qreset := inputs(n16, sq, spd, rows)
	add("POSVX", qa, qreset, func(i int, o []la.Opt) error { _, err := la.POSVX(qa[i], qb[i], o...); return err },
		func(o []la.Opt) error { _, errs, err := la.BatchPosvx(qa, qb, o...); return firstError(errs, err) })
	da, _, dreset := inputs(n16, sq, gen, rows)
	add("GESDD", da, dreset, func(i int, o []la.Opt) error { _, err := la.GESVD(da[i], o...); return err },
		func(o []la.Opt) error { _, errs, err := la.BatchGesdd(da, o...); return firstError(errs, err) })
	n24 := make([]int, 256)
	for i := range n24 {
		n24[i] = 24
	}
	la0, lb0, lreset := inputs(n24, func(int) int { return 8 }, gen, rows)
	add("GELSD", la0, lreset, func(i int, o []la.Opt) error { _, _, err := la.GELSD(la0[i], lb0[i], o...); return err },
		func(o []la.Opt) error { _, _, errs, err := la.BatchGelsd(la0, lb0, o...); return firstError(errs, err) })

	for _, l := range legs {
		for _, threads := range []int{1, 2} {
			o := []la.Opt{la.WithThreads(threads)}
			b.Run(fmt.Sprintf("%s/threads=%d", l.name, threads), func(b *testing.B) {
				var tLoop, tBatch time.Duration
				for i := 0; i < b.N; i++ {
					for _, batch := range []bool{false, true} {
						run, t := l.loop, &tLoop
						if batch {
							run, t = l.batch, &tBatch
						}
						b.StopTimer()
						l.reset()
						b.StartTimer()
						start := time.Now()
						if err := run(o); err != nil {
							b.Fatal(err)
						}
						*t += time.Since(start)
					}
				}
				b.ReportMetric(float64(tLoop.Microseconds())/1e3/float64(b.N), "loop-ms")
				b.ReportMetric(float64(tBatch.Microseconds())/1e3/float64(b.N), "batch-ms")
				b.ReportMetric(float64(tLoop)/float64(tBatch), "speedup")
			})
		}
	}
}

// BenchmarkSytrf tracks the blocked Bunch–Kaufman factorization on all four
// element types and both triangles: a Level-2 panel (lasyf) and one
// triangle-restricted Level-3 update (blas.Gemmt) per panel.
func BenchmarkSytrf(b *testing.B) {
	for _, n := range []int{64, 384, 1024} {
		for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
			suffix := "/" + uplo.String() + "/N=" + itoa(n)
			b.Run("f64"+suffix, func(b *testing.B) { benchSytrf[float64](b, uplo, n) })
			b.Run("f32"+suffix, func(b *testing.B) { benchSytrf[float32](b, uplo, n) })
			b.Run("c128"+suffix, func(b *testing.B) { benchSytrf[complex128](b, uplo, n) })
			b.Run("c64"+suffix, func(b *testing.B) { benchSytrf[complex64](b, uplo, n) })
		}
	}
	b.Run("f64/T=2/L/N=1024", func(b *testing.B) {
		defer blas.SetThreads(blas.SetThreads(2))
		benchSytrf[float64](b, lapack.Lower, 1024)
	})
}

func benchSytrf[T core.Scalar](b *testing.B, uplo lapack.Uplo, n int) {
	rng := lapack.NewRng([4]int{n, 11, 11, 11})
	a0 := make([]T, n*n)
	lapack.Larnv(2, rng, n*n, a0) // only the uplo triangle is read: symmetric indefinite
	aw := make([]T, n*n)
	ipiv := make([]int, n)
	copy(aw, a0)
	lapack.Sytrf(core.Default(), uplo, n, aw, n, ipiv) // untimed warm-up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(aw, a0)
		if info := lapack.Sytrf(core.Default(), uplo, n, aw, n, ipiv); info != 0 {
			b.Fatalf("info=%d", info)
		}
	}
	flops := 1.0 / 3.0 * float64(n) * float64(n) * float64(n)
	if core.IsComplex[T]() {
		flops *= 4
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkTrsm tracks the triangular solve with as many right-hand sides as
// the triangle has rows, on both sides and with and without transposition:
// the four leaf forms of trsmBase around the same GEMM updates. The leaf
// cells solve at the order of one leaf (m = 32, 64) against 512 columns — the
// left-side leaf alone, untransposed on both diagonals and through the
// transposed copy.
func BenchmarkTrsm(b *testing.B) {
	for _, side := range []blas.Side{blas.Left, blas.Right} {
		for _, trans := range []blas.Trans{blas.NoTrans, blas.TransT} {
			name := map[blas.Side]string{blas.Left: "Left", blas.Right: "Right"}[side] + "/" + trans.String()
			b.Run(name+"/f64", func(b *testing.B) { benchTrsm[float64](b, side, blas.Lower, trans, blas.NonUnit, 512) })
			b.Run(name+"/f32", func(b *testing.B) { benchTrsm[float32](b, side, blas.Lower, trans, blas.NonUnit, 512) })
			b.Run(name+"/c128", func(b *testing.B) { benchTrsm[complex128](b, side, blas.Lower, trans, blas.NonUnit, 512) })
		}
	}
	for _, m := range []int{32, 64} {
		for _, f := range []struct {
			name  string
			uplo  blas.Uplo
			trans blas.Trans
			diag  blas.Diag
		}{{"L/N/Unit", blas.Lower, blas.NoTrans, blas.Unit}, {"L/N/NonUnit", blas.Lower, blas.NoTrans, blas.NonUnit}, {"U/T/NonUnit", blas.Upper, blas.TransT, blas.NonUnit}} {
			name := "leaf/m=" + itoa(m) + "/" + f.name
			b.Run(name+"/f64", func(b *testing.B) { benchTrsm[float64](b, blas.Left, f.uplo, f.trans, f.diag, m) })
			b.Run(name+"/f32", func(b *testing.B) { benchTrsm[float32](b, blas.Left, f.uplo, f.trans, f.diag, m) })
			b.Run(name+"/c128", func(b *testing.B) { benchTrsm[complex128](b, blas.Left, f.uplo, f.trans, f.diag, m) })
		}
	}
}

// benchTrsm solves with the m×m triangle against 512 right-hand sides (rows
// on the right side).
func benchTrsm[T core.Scalar](b *testing.B, side blas.Side, uplo blas.Uplo, trans blas.Trans, diag blas.Diag, m int) {
	const n = 512
	rng := lapack.NewRng([4]int{n, 13, 13, 13})
	a := make([]T, m*m)
	x0 := make([]T, m*n)
	lapack.Larnv(2, rng, m*m, a)
	lapack.Larnv(2, rng, m*n, x0)
	for j := 0; j < m; j++ {
		a[j+j*m] += core.FromFloat[T](float64(m)) // a well-conditioned triangle
	}
	x := make([]T, m*n)
	one := core.FromFloat[T](1)
	rows, cols := m, n
	if side == blas.Right {
		rows, cols = n, m
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, x0)
		blas.Trsm(core.Default(), side, uplo, trans, diag, rows, cols, one, a, m, x, rows)
	}
	flops := float64(m) * float64(m) * float64(n)
	if core.IsComplex[T]() {
		flops *= 4
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkGeqrf tracks the blocked Householder QR: panel Geqr2 plus a
// Larft/Larfb pair per panel, both now routed through the GEMM engine. The
// other three element types run at N = 1024 and at the tall 4096×256 shape.
func BenchmarkGeqrf(b *testing.B) {
	for _, sh := range [][2]int{{64, 64}, {256, 256}, {512, 512}, {1024, 1024}, {4096, 256}} {
		m, n := sh[0], sh[1]
		name := "N=" + itoa(n)
		if m != n {
			name = "M=" + itoa(m) + "/" + name
		}
		b.Run(name, func(b *testing.B) { benchGeqrf[float64](b, m, n) })
	}
	b.Run("f32/N=1024", func(b *testing.B) { benchGeqrf[float32](b, 1024, 1024) })
	b.Run("c64/N=1024", func(b *testing.B) { benchGeqrf[complex64](b, 1024, 1024) })
	b.Run("c128/N=1024", func(b *testing.B) { benchGeqrf[complex128](b, 1024, 1024) })
	b.Run("f32/M=4096/N=256", func(b *testing.B) { benchGeqrf[float32](b, 4096, 256) })
	b.Run("c64/M=4096/N=256", func(b *testing.B) { benchGeqrf[complex64](b, 4096, 256) })
	b.Run("c128/M=4096/N=256", func(b *testing.B) { benchGeqrf[complex128](b, 4096, 256) })
}

func benchGeqrf[T core.Scalar](b *testing.B, m, n int) {
	a0 := make([]T, m*n)
	lapack.Larnv(2, lapack.NewRng([4]int{n, 9, 9, 9}), m*n, a0)
	aw, tau := make([]T, m*n), make([]T, n)
	copy(aw, a0)
	lapack.Geqrf(core.Default(), m, n, aw, m, tau) // untimed warm-up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(aw, a0)
		lapack.Geqrf(core.Default(), m, n, aw, m, tau)
	}
	flops := 2*float64(m)*float64(n)*float64(n) - 2.0/3.0*float64(n)*float64(n)*float64(n)
	if core.IsComplex[T]() {
		flops *= 4
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkGelsdTall times the tall least-squares D&C driver at the
// benchmark's ls_tall shape: QR, Qᴴ·B from the factored form, and the n×n
// SVD solve.
func BenchmarkGelsdTall(b *testing.B) {
	const m, n, nrhs = 4096, 256, 8
	rng := lapack.NewRng([4]int{m, n, 9, 9})
	a0 := make([]float64, m*n)
	b0 := make([]float64, m*nrhs)
	lapack.Larnv(2, rng, m*n, a0)
	lapack.Larnv(2, rng, m*nrhs, b0)
	aw := make([]float64, m*n)
	bw := make([]float64, m*nrhs)
	s := make([]float64, n)
	run := func() {
		copy(aw, a0)
		copy(bw, b0)
		if rank, info := lapack.Gelsd(core.Default(), m, n, nrhs, aw, m, bw, m, s, -1); info != 0 || rank != n {
			b.Fatalf("Gelsd: rank %d info %d", rank, info)
		}
	}
	run() // untimed warm-up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkReduce prices the blocked condensed-form reductions under the
// eigen and SVD drivers against their unblocked forms — the NB=1 legs call
// Sytd2, Gebd2 and Gehd2 — on one float64 matrix of order 1024 (its
// symmetric part for Sytrd).
func BenchmarkReduce(b *testing.B) {
	const n = 1024
	a0 := make([]float64, n*n)
	lapack.Larnv(2, lapack.NewRng([4]int{n, 29, 31, 3}), n*n, a0)
	sym := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			sym[i+j*n] = a0[i+j*n] + a0[j+i*n]
		}
	}
	a, d, e := make([]float64, n*n), make([]float64, n), make([]float64, n)
	tau, taup := make([]float64, n), make([]float64, n)
	cfg := core.Default()
	for _, r := range []struct {
		name             string
		a0               []float64
		flops            float64
		blocked, unblock func()
	}{
		{"Sytrd", sym, 4.0 / 3,
			func() { lapack.Sytrd(cfg, lapack.Lower, n, a, n, d, e, tau) },
			func() { lapack.Sytd2(lapack.Lower, n, a, n, d, e, tau) }},
		{"Gebrd", a0, 8.0 / 3,
			func() { lapack.Gebrd(cfg, n, n, a, n, d, e, tau, taup) },
			func() { lapack.Gebd2(cfg, n, n, a, n, d, e, tau, taup) }},
		{"Gehrd", a0, 10.0 / 3,
			func() { lapack.Gehrd(cfg, n, 0, n-1, a, n, tau) },
			func() { lapack.Gehd2(cfg, n, 0, n-1, a, n, tau) }},
	} {
		for _, leg := range []struct {
			name string
			run  func()
		}{{"blocked", r.blocked}, {"NB=1", r.unblock}} {
			b.Run(r.name+"/"+leg.name, func(b *testing.B) {
				benchLoop(b, func() {
					copy(a, r.a0)
					leg.run()
				})
				b.ReportMetric(r.flops*n*n*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			})
		}
	}
}

// ---- the eigen/SVD iteration phase: the routines under LA_SYEV, LA_SYEVD,
// LA_GESVD and LA_GEEV that run between the reduction and the
// back-transformation, at the benchmark's eig_svd sizes ----

// benchTridiag times f on a fresh copy of one random symmetric tridiagonal
// matrix of order n with the identity as the vector accumulation.
func benchTridiag(b *testing.B, n int, f func(d, e, z []float64) int) {
	rng := lapack.NewRng([4]int{n, 3, 5, 7})
	d0, e0 := make([]float64, n), make([]float64, n-1)
	lapack.Larnv(2, rng, n, d0)
	lapack.Larnv(2, rng, n-1, e0)
	d, e, z := make([]float64, n), make([]float64, n-1), make([]float64, n*n)
	benchLoop(b, func() {
		copy(d, d0)
		copy(e, e0)
		lapack.Laset('A', n, n, 0.0, 1.0, z, n)
		if info := f(d, e, z); info != 0 {
			b.Fatalf("info %d", info)
		}
	})
}

func BenchmarkSteqr(b *testing.B) {
	const n = 384
	benchTridiag(b, n, func(d, e, z []float64) int { return lapack.Steqr(core.Default(), n, d, e, z, n) })
}

func BenchmarkStedc(b *testing.B) {
	const n = 384
	benchTridiag(b, n, func(d, e, z []float64) int { return lapack.Stedc(core.Default(), n, d, e, z, n) })
}

// BenchmarkHseqr times the double-shift QR iteration with Schur vectors on
// the Hessenberg form of a random matrix, the reduction left outside: at the
// leading dimension Geev gives its own work matrices (an odd number of cache
// lines, here n+8) and at ld = n = 192, where the rows the sweep walks map to
// 8 of the L1 cache's 64 sets and every step misses.
func BenchmarkHseqr(b *testing.B) {
	const n = 192
	cfg := core.Default()
	rng := lapack.NewRng([4]int{n, 2, 4, 9})
	h0 := make([]float64, n*n)
	lapack.Larnv(2, rng, n*n, h0)
	tau := make([]float64, n-1)
	lapack.Gehrd(cfg, n, 0, n-1, h0, n, tau)
	z0 := append([]float64(nil), h0...)
	lapack.Orghr(cfg, n, 0, n-1, z0, n, tau)
	wr, wi := make([]float64, n), make([]float64, n)
	for _, ld := range []int{n + 8, n} {
		b.Run("ld="+itoa(ld), func(b *testing.B) {
			h, z := make([]float64, ld*n), make([]float64, ld*n)
			benchLoop(b, func() {
				lapack.Lacpy('A', n, n, h0, n, h, ld)
				lapack.Lacpy('A', n, n, z0, n, z, ld)
				if info := lapack.Hseqr(cfg, true, n, 0, n-1, h, ld, wr, wi, z, ld); info != 0 {
					b.Fatalf("Hseqr: info %d", info)
				}
			})
		})
	}
}

// benchLoop times run after one untimed warm-up call.
func benchLoop(b *testing.B, run func()) {
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkStedcTree is BenchmarkStedc without the caller's basis: the
// divide & conquer tree alone, as LA_SYEVD and LA_STEVD run it.
func BenchmarkStedcTree(b *testing.B) {
	const n = 384
	benchTridiag(b, n, func(d, e, z []float64) int { return lapack.Stevd(core.Default(), n, d, e, z, n) })
}

// BenchmarkBdsdc times the bidiagonal divide & conquer at GESVD's eig_svd
// order on a random upper bidiagonal matrix.
func BenchmarkBdsdc(b *testing.B) {
	const n = 256
	rng := lapack.NewRng([4]int{n, 7, 1, 5})
	d0, e0 := make([]float64, n), make([]float64, n-1)
	lapack.Larnv(2, rng, n, d0)
	lapack.Larnv(2, rng, n-1, e0)
	d, e := make([]float64, n), make([]float64, n-1)
	u, vt := make([]float64, n*n), make([]float64, n*n)
	benchLoop(b, func() {
		copy(d, d0)
		copy(e, e0)
		if info := lapack.Bdsdc(core.Default(), n, d, e, u, n, vt, n); info != 0 {
			b.Fatalf("Bdsdc: info %d", info)
		}
	})
}

// BenchmarkTrevc times the eigenvector back-substitution and back-transform
// under LA_GEEV at n = 192: right and left vectors of a real Schur form (from
// Hseqr on a random matrix) and of a random complex triangle.
func BenchmarkTrevc(b *testing.B) {
	const n = 192
	cfg := core.Default()
	rng := lapack.NewRng([4]int{n, 4, 2, 9})
	t := make([]float64, n*n)
	lapack.Larnv(2, rng, n*n, t)
	tau := make([]float64, n-1)
	lapack.Gehrd(cfg, n, 0, n-1, t, n, tau)
	z := append([]float64(nil), t...)
	lapack.Orghr(cfg, n, 0, n-1, z, n, tau)
	wr, wi := make([]float64, n), make([]float64, n)
	if info := lapack.Hseqr(cfg, true, n, 0, n-1, t, n, wr, wi, z, n); info != 0 {
		b.Fatalf("Hseqr: info %d", info)
	}
	v := make([]float64, n*n)
	b.Run("right/f64", func(b *testing.B) {
		benchLoop(b, func() { lapack.Trevc(cfg, false, n, t, n, wr, wi, z, n, v, n) })
	})
	b.Run("left/f64", func(b *testing.B) {
		benchLoop(b, func() { lapack.Trevc(cfg, true, n, t, n, wr, wi, z, n, v, n) })
	})
	tc, zc, vc := make([]complex128, n*n), make([]complex128, n*n), make([]complex128, n*n)
	lapack.Larnv(2, rng, n*n, tc)
	lapack.Larnv(2, rng, n*n, zc)
	for j := 0; j < n; j++ {
		clear(tc[j+1+j*n : (j+1)*n])
	}
	b.Run("right/c128", func(b *testing.B) {
		benchLoop(b, func() { lapack.Trevc(cfg, false, n, tc, n, nil, nil, zc, n, vc, n) })
	})
	b.Run("left/c128", func(b *testing.B) {
		benchLoop(b, func() { lapack.Trevc(cfg, true, n, tc, n, nil, nil, zc, n, vc, n) })
	})
}

// benchTridiagBasis reduces a random symmetric matrix of order n with Sytrd
// and times f on a fresh copy of the factored form.
func benchTridiagBasis(b *testing.B, uplo lapack.Uplo, n int, f func(a, tau []float64)) {
	cfg := core.Default()
	rng := lapack.NewRng([4]int{n, 6, 2, 3})
	a0 := make([]float64, n*n)
	lapack.Larnv(2, rng, n*n, a0)
	d, e, tau := make([]float64, n), make([]float64, n-1), make([]float64, n-1)
	lapack.Sytrd(cfg, uplo, n, a0, n, d, e, tau)
	a := make([]float64, n*n)
	benchLoop(b, func() {
		copy(a, a0)
		f(a, tau)
	})
}

func uploName(uplo lapack.Uplo) string {
	if uplo == lapack.Upper {
		return "U"
	}
	return "L"
}

// BenchmarkOrgtr generates and BenchmarkOrmtr applies (to an n×n matrix) the
// Sytrd basis, both storage sides.
func BenchmarkOrgtr(b *testing.B) {
	for _, n := range []int{192, 384} {
		for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
			b.Run(uploName(uplo)+"/"+itoa(n), func(b *testing.B) {
				benchTridiagBasis(b, uplo, n, func(a, tau []float64) { lapack.Orgtr(core.Default(), uplo, n, a, n, tau) })
			})
		}
	}
}

func BenchmarkOrmtr(b *testing.B) {
	for _, n := range []int{192, 384} {
		c := make([]float64, n*n)
		lapack.Larnv(2, lapack.NewRng([4]int{n, 1, 8, 3}), n*n, c)
		for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
			b.Run(uploName(uplo)+"/"+itoa(n), func(b *testing.B) {
				benchTridiagBasis(b, uplo, n, func(a, tau []float64) {
					lapack.Ormtr(core.Default(), uplo, lapack.NoTrans, n, n, a, n, tau, c, n)
				})
			})
		}
	}
}

// BenchmarkSyevd, BenchmarkGesdd and BenchmarkGeev time the lapack drivers
// under the eig_svd workload's D&C and nonsymmetric ops at its sizes.
func BenchmarkSyevd(b *testing.B) {
	const n = 384
	a0 := make([]float64, n*n)
	lapack.Larnv(2, lapack.NewRng([4]int{n, 9, 2, 1}), n*n, a0)
	a, w := make([]float64, n*n), make([]float64, n)
	for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
		b.Run(uploName(uplo), func(b *testing.B) {
			benchLoop(b, func() {
				copy(a, a0)
				if info := lapack.Syevd(core.Default(), true, uplo, n, a, n, w); info != 0 {
					b.Fatalf("Syevd: info %d", info)
				}
			})
		})
	}
}

// BenchmarkGesdd prices the divide & conquer SVD ("dc", the eig_svd op at
// n = 256) against the QR-iteration Gesvd ("qr") on the same input, economy
// vectors both: square in float64 and complex128, and at the 16:1 shape
// where both take the QR-first path.
func BenchmarkGesdd(b *testing.B) {
	benchSVD[float64](b, "", 256, 256)
	benchSVD[complex128](b, "c128/", 256, 256)
	benchSVD[float64](b, "", 4096, 256)
}

func benchSVD[T core.Scalar](b *testing.B, prefix string, m, n int) {
	a0 := make([]T, m*n)
	lapack.Larnv(2, lapack.NewRng([4]int{n, 9, 4, 1}), m*n, a0)
	a, s := make([]T, m*n), make([]float64, n)
	u, vt := make([]T, m*n), make([]T, n*n)
	shape := "N=" + itoa(n)
	if m != n {
		shape = "M=" + itoa(m) + "/" + shape
	}
	for _, route := range []struct {
		name string
		svd  func(*core.Config, lapack.SVDJob, lapack.SVDJob, int, int, []T, int, []float64, []T, int, []T, int) int
	}{{"dc", lapack.Gesdd[T]}, {"qr", lapack.Gesvd[T]}} {
		b.Run(prefix+route.name+"/"+shape, func(b *testing.B) {
			benchLoop(b, func() {
				copy(a, a0)
				if info := route.svd(core.Default(), lapack.SVDSome, lapack.SVDSome, m, n, a, m, s, u, m, vt, n); info != 0 {
					b.Fatalf("%s: info %d", route.name, info)
				}
			})
		})
	}
}

// BenchmarkGeev's right leg is the eig_svd op; the other legs run the Schur
// and expert drivers on the same matrix through la, all of them the one geev
// body: GEES with Schur vectors, GEESX selecting the right half-plane (so the
// Sylvester condition estimate runs), GEEVX with both vector sides.
func BenchmarkGeev(b *testing.B) {
	const n = 192
	a0 := make([]float64, n*n)
	lapack.Larnv(2, lapack.NewRng([4]int{n, 9, 6, 1}), n*n, a0)
	a, vr := make([]float64, n*n), make([]float64, n*n)
	wr, wi := make([]float64, n), make([]float64, n)
	b.Run("right", func(b *testing.B) {
		benchLoop(b, func() {
			copy(a, a0)
			if info := lapack.Geev(core.Default(), false, true, n, a, n, wr, wi, nil, 1, vr, n); info != 0 {
				b.Fatalf("Geev: info %d", info)
			}
		})
	})
	right := la.WithSelect(func(re, im float64) bool { return re > 0 })
	for _, leg := range []struct {
		name string
		run  func(a *la.Matrix[float64]) error
	}{
		{"GEES", func(a *la.Matrix[float64]) error { _, _, _, err := la.GEES(a, la.WithSchurVectors()); return err }},
		{"GEESX", func(a *la.Matrix[float64]) error { _, err := la.GEESX(a, right); return err }},
		{"GEEVX", func(a *la.Matrix[float64]) error { _, err := la.GEEVX(a, la.WithLeft(), la.WithRight()); return err }},
	} {
		b.Run(leg.name, func(b *testing.B) {
			m := la.NewMatrix[float64](n, n)
			benchLoop(b, func() {
				copy(m.Data, a0)
				if err := leg.run(m); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// BenchmarkRotSeq sweeps 383 rotations forward and backward over a 384×384
// block — one Steqr QL/QR sweep's worth of eigenvector updates — on the asm
// wavefront kernel and on the portable loop, float64 and float32. GB/s counts
// one load and one store per element and rotation, GFLOP/s six flops.
func BenchmarkRotSeq(b *testing.B) {
	benchRotSeq[float64](b, "f64")
	benchRotSeq[float32](b, "f32")
}

func benchRotSeq[T float32 | float64](b *testing.B, dtype string) {
	const n = 384
	rng := lapack.NewRng([4]int{n, 1, 1, 3})
	c, s := make([]float64, n-1), make([]float64, n-1)
	for j := range c {
		s[j], c[j] = math.Sincos(2 * math.Pi * rng.Uniform())
	}
	a := make([]T, n*n)
	lapack.Larnv(2, rng, n*n, a)
	size := float64(unsafe.Sizeof(a[0]))
	for _, route := range []string{"asm", "portable"} {
		b.Run(route+"/"+dtype, func(b *testing.B) {
			faultinject.ForcePortable(route == "portable")
			defer faultinject.ForcePortable(false)
			for i := 0; i < b.N; i++ {
				blas.RotSeq(i%2 == 0, n, n, c, s, a, n)
			}
			perSec := n * (n - 1) * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(2*size*perSec, "GB/s")
			b.ReportMetric(6*perSec, "GFLOP/s")
		})
	}
}

// BenchmarkSecular solves one k = 200 secular equation with eigenvectors —
// the rank-one merge at the top of a 400-order divide & conquer — and
// reports the secular-function evaluations spent per root.
func BenchmarkSecular(b *testing.B) {
	const k = 200
	rng := lapack.NewRng([4]int{k, 5, 5, 1})
	d, z := make([]float64, k), make([]float64, k)
	nrm := 0.0
	for j := range d {
		d[j] = float64(j) + 0.5*rng.Uniform()
		z[j] = rng.Uniform11()
		nrm += z[j] * z[j]
	}
	for j := range z {
		z[j] /= math.Sqrt(nrm)
	}
	lam, u := make([]float64, k), make([]float64, k*k)
	evals := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evals += lapack.SolveSecularForTest(k, 0.7, d, z, lam, u)
	}
	b.ReportMetric(float64(evals)/float64(b.N)/k, "evals/root")
}
