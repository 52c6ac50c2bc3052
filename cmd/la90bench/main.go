// la90bench reproduces the paper's Example 3 (Figure 3): it solves the
// same random N×N system once through the explicit F77 interface and once
// through the simplified F90 interface, timing both — the only performance
// measurement in the paper, whose point is that the convenience layer
// costs (almost) nothing.
//
//	la90bench -example3            # the paper's N=500, NRHS=2 run
//	la90bench -sweep               # wrapper-overhead sweep across N
//	la90bench -n 800 -nrhs 4       # custom single run
//	la90bench -blas                # Level-3 engine sweep -> BENCH_blas.json
//	la90bench -lapack              # factorization sweep  -> BENCH_lapack.json
//	la90bench -reduce              # condensed-form reduction sweep -> BENCH_reduce.json
//	la90bench -batch               # batched drivers & small-matrix regime -> BENCH_batch.json
//	la90bench -cond                # expert-driver condition machinery vs plain solve -> BENCH_cond.json
//	la90bench -svd                 # divide-and-conquer SVD vs QR iteration -> BENCH_svd.json
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/f77"
	"repro/internal/lapack"
	"repro/la"
)

var (
	example3 = flag.Bool("example3", false, "run exactly the paper's Example 3 (N=500, NRHS=2)")
	sweep    = flag.Bool("sweep", false, "sweep N and print the wrapper-overhead table")
	blasSw   = flag.Bool("blas", false, "benchmark the Level-3 engine and write machine-readable results")
	lapackSw = flag.Bool("lapack", false, "benchmark the blocked factorizations and write machine-readable results")
	reduceSw = flag.Bool("reduce", false, "benchmark the blocked condensed-form reductions and write machine-readable results")
	batchSw  = flag.Bool("batch", false, "benchmark the batched drivers and the pack-free small-matrix engine")
	condSw   = flag.Bool("cond", false, "benchmark the expert-driver condition machinery (LA_GESVX) against the plain solve")
	svdSw    = flag.Bool("svd", false, "benchmark the divide-and-conquer SVD against the QR-iteration path")
	maxbatch = flag.Int("maxbatch", 1024, "largest batch size -batch may bench (smoke runs use a small cap)")
	outFlag  = flag.String("out", "", "output path (default BENCH_blas.json for -blas, BENCH_lapack.json for -lapack, BENCH_reduce.json for -reduce)")
	nFlag    = flag.Int("n", 500, "matrix order")
	nrhsFlag = flag.Int("nrhs", 2, "number of right-hand sides")
	maxnFlag = flag.Int("maxn", 1024, "largest size a sweep mode may bench (smoke runs use a small cap)")
	reps     = flag.Int("reps", 3, "repetitions (minimum time reported)")
)

func main() {
	flag.Parse()
	switch {
	case *blasSw:
		runBlas()
	case *lapackSw:
		runLapack()
	case *reduceSw:
		runReduce()
	case *batchSw:
		runBatch()
	case *condSw:
		runCond()
	case *svdSw:
		runSvd()
	case *sweep:
		runSweep()
	default:
		n, nrhs := *nFlag, *nrhsFlag
		if *example3 {
			n, nrhs = 500, 2
		}
		runExample3(n, nrhs)
	}
}

// runExample3 mirrors Figure 3 line by line: allocate, fill with
// RANDOM_NUMBER, build B from row sums, time F77GESV, then time F90GESV.
func runExample3(n, nrhs int) {
	rng := lapack.NewRng([4]int{1998, 3, 28, 2})
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

	// Interleave the two measurements and keep the minimum of several
	// repetitions each, so frequency scaling and allocator noise cancel
	// rather than bias one side (the paper's single CPU_TIME pair is far
	// too noisy on a modern machine).
	reps := max(*reps, 5)
	run77 := func() time.Duration {
		a77 := append([]float64(nil), a...)
		b77 := append([]float64(nil), b...)
		ipiv := make([]int, n)
		t0 := time.Now()
		f77.GESV(n, nrhs, a77, n, ipiv, b77, n)
		return time.Since(t0)
	}
	run90 := func() time.Duration {
		a90 := la.NewMatrix[float64](n, n)
		copy(a90.Data, a)
		b90 := la.NewMatrix[float64](n, nrhs)
		copy(b90.Data, b)
		t0 := time.Now()
		la.Must1(la.GESV(a90, b90, benchLaOpts()...))
		return time.Since(t0)
	}
	run77() // warm-up
	run90()
	var t77, t90 time.Duration
	for r := 0; r < reps; r++ {
		if d := run77(); r == 0 || d < t77 {
			t77 = d
		}
		if d := run90(); r == 0 || d < t90 {
			t90 = d
		}
	}
	fmt.Printf("INFO and CPUTIME of F77GESV  %d  %.6f\n", 0, t77.Seconds())
	fmt.Printf("CPUTIME of F90GESV  %.6f\n", t90.Seconds())
	fmt.Printf("wrapper overhead: %+.2f%%\n", 100*(t90.Seconds()-t77.Seconds())/t77.Seconds())
}

// runSweep prints the overhead of the F90 layer over the F77 layer for
// GESV across problem sizes (experiment E9 in DESIGN.md).
func runSweep() {
	fmt.Println("    N     F77GESV (s)   F90GESV (s)   overhead")
	for _, n := range []int{10, 25, 50, 100, 200, 500} {
		rng := lapack.NewRng([4]int{n, 1, 2, 3})
		a := make([]float64, n*n)
		lapack.Larnv(1, rng, n*n, a)
		b := make([]float64, n*2)
		lapack.Larnv(1, rng, n*2, b)

		iters := max(1, 200000/(n*n))
		best77 := time.Duration(0)
		for r := 0; r < *reps; r++ {
			t0 := time.Now()
			for it := 0; it < iters; it++ {
				a77 := append([]float64(nil), a...)
				b77 := append([]float64(nil), b...)
				ipiv := make([]int, n)
				f77.GESV(n, 2, a77, n, ipiv, b77, n)
			}
			d := time.Since(t0) / time.Duration(iters)
			if r == 0 || d < best77 {
				best77 = d
			}
		}
		best90 := time.Duration(0)
		for r := 0; r < *reps; r++ {
			t0 := time.Now()
			for it := 0; it < iters; it++ {
				a90 := la.NewMatrix[float64](n, n)
				copy(a90.Data, a)
				b90 := la.NewMatrix[float64](n, 2)
				copy(b90.Data, b)
				la.Must1(la.GESV(a90, b90, benchLaOpts()...))
			}
			d := time.Since(t0) / time.Duration(iters)
			if r == 0 || d < best90 {
				best90 = d
			}
		}
		fmt.Printf("%5d  %12.6f  %12.6f   %+7.2f%%\n",
			n, best77.Seconds(), best90.Seconds(),
			100*(best90.Seconds()-best77.Seconds())/best77.Seconds())
	}
}
