package la_test

// Tests for the per-call execution contexts (la/config.go): capture-once
// isolation under concurrent default-store churn, bit-identity of the
// default configuration across every way of spelling it, and bit-identity
// of serial versus multi-worker execution. The concurrency test is the
// designated -race workload for the atomic default-config store: four-plus
// drivers run simultaneously with distinct thread budgets and block sizes
// while another goroutine rewrites the process-wide defaults.

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/testutil/diff"
	"repro/la"
)

func TestMain(m *testing.M) { diff.Main(m) }

// The four driver workloads. Each builds its inputs from a fixed seed, runs
// one la driver with the given per-call options, and returns a flat
// signature of every output so runs can be compared bitwise. Sizes sit well
// above the blocked-path crossovers so the block-size knobs actually bind.

func gesvSig(t *testing.T, opts ...la.Opt) []float64 {
	t.Helper()
	const n = 130
	a := randMat[float64](31, n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	b := randMat[float64](32, n, 3)
	ipiv, err := la.GESV(a, b, opts...)
	if err != nil {
		t.Fatalf("GESV: %v", err)
	}
	sig := slices.Concat(b.Data, a.Data)
	for _, p := range ipiv {
		sig = append(sig, float64(p))
	}
	return sig
}

func posvSig(t *testing.T, opts ...la.Opt) []float64 {
	t.Helper()
	const n = 130
	a := spdMat[float64](33, n)
	b := randMat[float64](34, n, 2)
	if err := la.POSV(a, b, opts...); err != nil {
		t.Fatalf("POSV: %v", err)
	}
	return slices.Concat(b.Data, a.Data)
}

// smallPosvSig is POSV under the small-matrix crossover, where the factor is
// potrfSmall and the solve potrsSmall: every order class (ragged only, full
// blocks, ragged first block), both triangles, one and three right-hand
// sides, looped and as one BatchPosv — which must give the loop's bits.
func smallPosvSig(t *testing.T, opts ...la.Opt) []float64 {
	t.Helper()
	var sig []float64
	for _, uplo := range []la.UpLo{la.Upper, la.Lower} {
		o := append([]la.Opt{la.WithUpLo(uplo)}, opts...)
		var as, bs, asB, bsB []*la.Matrix[float64]
		for i, n := range []int{1, 4, 7, 8, 9, 16, 24, 31, 32, 48, 63, 64} {
			as, bs = append(as, spdMat[float64](50+i, n)), append(bs, randMat[float64](70+i, n, 1+2*(i%2)))
			asB, bsB = append(asB, as[i].Clone()), append(bsB, bs[i].Clone())
			if err := la.POSV(as[i], bs[i], o...); err != nil {
				t.Fatalf("POSV n=%d: %v", n, err)
			}
			sig = append(append(sig, as[i].Data...), bs[i].Data...)
		}
		errs, err := la.BatchPosv(asB, bsB, o...)
		if err != nil {
			t.Fatalf("BatchPosv: %v", err)
		}
		for i := range asB {
			if errs[i] != nil {
				t.Fatalf("BatchPosv item %d: %v", i, errs[i])
			}
			if !diff.Same(asB[i].Data, as[i].Data) || !diff.Same(bsB[i].Data, bs[i].Data) {
				t.Errorf("BatchPosv item %d (n=%d, %v) differs bitwise from looped POSV", i, as[i].Rows, uplo)
			}
		}
	}
	return sig
}

// smallGesvSig is GESV under the small-matrix crossover, where the factor is
// getrfSmall and the solve getrsSmall: every order class (ragged only, full
// blocks, ragged first block), one and three right-hand sides, looped and as
// one BatchGesv — which must give the loop's bits, pivots included.
func smallGesvSig(t *testing.T, opts ...la.Opt) []float64 {
	t.Helper()
	var sig []float64
	var as, bs, asB, bsB []*la.Matrix[float64]
	var ipivs [][]int
	for i, n := range []int{1, 4, 7, 8, 9, 16, 24, 31, 32, 48, 63, 64} {
		as, bs = append(as, randMat[float64](90+i, n, n)), append(bs, randMat[float64](110+i, n, 1+2*(i%2)))
		asB, bsB = append(asB, as[i].Clone()), append(bsB, bs[i].Clone())
		ipiv, err := la.GESV(as[i], bs[i], opts...)
		if err != nil {
			t.Fatalf("GESV n=%d: %v", n, err)
		}
		ipivs = append(ipivs, ipiv)
		sig = append(append(sig, as[i].Data...), bs[i].Data...)
		for _, p := range ipiv {
			sig = append(sig, float64(p))
		}
	}
	ipivsB, errs, err := la.BatchGesv(asB, bsB, opts...)
	if err != nil {
		t.Fatalf("BatchGesv: %v", err)
	}
	for i := range asB {
		if errs[i] != nil {
			t.Fatalf("BatchGesv item %d: %v", i, errs[i])
		}
		if !diff.Same(asB[i].Data, as[i].Data) || !diff.Same(bsB[i].Data, bs[i].Data) || !slices.Equal(ipivsB[i], ipivs[i]) {
			t.Errorf("BatchGesv item %d (n=%d) differs from looped GESV", i, as[i].Rows)
		}
	}
	return sig
}

func syevSig(t *testing.T, opts ...la.Opt) []float64 {
	t.Helper()
	const n = 90
	a := spdMat[float64](35, n)
	w, err := la.SYEV(a, append(opts, la.WithVectors())...)
	if err != nil {
		t.Fatalf("SYEV: %v", err)
	}
	return slices.Concat(w, a.Data)
}

func syevdSig(t *testing.T, opts ...la.Opt) []float64 {
	t.Helper()
	const n = 90
	a := spdMat[float64](35, n)
	w, err := la.SYEVD(a, append(opts, la.WithVectors())...)
	if err != nil {
		t.Fatalf("SYEVD: %v", err)
	}
	return slices.Concat(w, a.Data)
}

func geevSig(t *testing.T, opts ...la.Opt) []float64 {
	t.Helper()
	a := randMat[float64](39, 80, 80)
	w, _, vr, err := la.GEEV(a, append(opts, la.WithRight())...)
	if err != nil {
		t.Fatalf("GEEV: %v", err)
	}
	sig := append([]float64(nil), vr.Data...)
	for _, v := range w {
		sig = append(sig, real(v), imag(v))
	}
	return sig
}

func gesvdSig(t *testing.T, opts ...la.Opt) []float64 {
	t.Helper()
	a := randMat[float64](36, 100, 70)
	res, err := la.GESVD(a, opts...)
	if err != nil {
		t.Fatalf("GESVD: %v", err)
	}
	return slices.Concat(res.S, res.U.Data, res.VT.Data)
}

// lsSig runs GELS and GELSD on a tall problem past the QR-first crossover and
// the blocked-QR one (recursive panels, T hand-over, apply-Qᴴ GELSD), with the
// parallel cutoffs lowered so the panel-shaped products really fan out.
func lsSig(t *testing.T, opts ...la.Opt) []float64 {
	t.Helper()
	const m, n, nrhs = 700, 96, 3
	opts = append(opts, la.WithConfig(la.Config{GemmParallelMinVol: 1 << 12}))
	a, b := randMat[float64](37, m, n), randMat[float64](38, m, nrhs)
	if err := la.GELS(a, b, opts...); err != nil {
		t.Fatalf("GELS: %v", err)
	}
	sig := slices.Concat(b.Data, a.Data)
	a, b = randMat[float64](37, m, n), randMat[float64](38, m, nrhs)
	rank, s, err := la.GELSD(a, b, opts...)
	if err != nil || rank != n {
		t.Fatalf("GELSD: rank %d, %v", rank, err)
	}
	sig = append(sig, s...)
	for j := 0; j < nrhs; j++ {
		sig = append(sig, b.Data[j*m:j*m+n]...)
	}
	return sig
}

// TestDefaultConfigBitIdentical checks that the default execution context is
// the same object no matter how it is spelled: no options at all, an empty
// WithConfig overlay (every field inherits), an overlay of the full default
// snapshot, and an explicit WithThreads at the default budget must all
// produce bit-identical outputs for GESV, POSV, SYEV and GESVD.
func TestDefaultConfigBitIdentical(t *testing.T) {
	drivers := []struct {
		name string
		sig  func(*testing.T, ...la.Opt) []float64
	}{
		{"GESV", gesvSig}, {"POSV", posvSig}, {"POSV/small", smallPosvSig}, {"SYEV", syevSig}, {"GESVD", gesvdSig},
	}
	spellings := []struct {
		name string
		opts []la.Opt
	}{
		{"zero overlay", []la.Opt{la.WithConfig(la.Config{})}},
		{"default snapshot", []la.Opt{la.WithConfig(la.DefaultConfig())}},
		{"explicit default threads", []la.Opt{la.WithThreads(la.DefaultConfig().Threads)}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			want := d.sig(t) // no options: the plain default path
			for _, s := range spellings {
				if got := d.sig(t, s.opts...); !diff.Same(got, want) {
					t.Errorf("%s with %s differs bitwise from the optionless run", d.name, s.name)
				}
			}
		})
	}
}

// TestThreadsBitIdentical checks the per-call version of the engine's core
// determinism contract: WithThreads(n) produces bit-identical results for
// every budget of diff.Threads, because the worker count never changes any
// summation order — on each asm row of the kernel table, which moreover agree
// with each other (on a machine without AVX-512 the second pass repeats the
// first).
func TestThreadsBitIdentical(t *testing.T) {
	drivers := []struct {
		name string
		sig  func(*testing.T, ...la.Opt) []float64
	}{
		{"GESV", gesvSig}, {"GESV/small", smallGesvSig}, {"POSV", posvSig}, {"POSV/small", smallPosvSig}, {"SYEV", syevSig}, {"GESVD", gesvdSig},
		{"SYEVD", syevdSig}, {"GEEV", geevSig},
		{"GELS+GELSD", lsSig},
		{"solves/complex128", complexSolveSig[complex128]},
		{"solves/complex64", complexSolveSig[complex64]},
		{"solves/float64/n=640", func(t *testing.T, opts ...la.Opt) []float64 {
			// The size at which the drivers fork at the default
			// GemmParallelMinVol: the cases above either stay under it
			// (130³ < 192³) or lower it.
			return solveSig[float64](t, 640, 16, opts...)
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			var serial [2][]float64
			for i, r := range []diff.Row{diff.Selected, diff.AVX2} {
				diff.Force(t, r)
				serial[i] = diff.AcrossThreads(t, fmt.Sprintf("%s on the %v row", d.name, r), func(n int) []float64 {
					return d.sig(t, la.WithThreads(n))
				})
			}
			if !diff.Same(serial[0], serial[1]) {
				t.Errorf("%s on the AVX2 row differs bitwise from the selected row", d.name)
			}
		})
	}
}

// complexSolveSig is solveSig on complex operands large enough for the packed
// engine, with the parallel cutoff lowered so the tile groups and Trsm's slab
// fork really run. The complex types ride the real micro-kernels through the
// 1m packing, whose tiles are as disjoint per worker as the real ones.
func complexSolveSig[T la.Scalar](t *testing.T, opts ...la.Opt) []float64 {
	return solveSig[T](t, 150, 5, append(opts, la.WithConfig(la.Config{GemmParallelMinVol: 1 << 12}))...)
}

// solveSig runs GESV, POSV (both triangles) and SYSV at order n with nrhs
// right-hand sides and flattens every output.
func solveSig[T la.Scalar](t *testing.T, n, nrhs int, opts ...la.Opt) []float64 {
	t.Helper()
	var sig []float64
	flat := func(m *la.Matrix[T]) {
		for _, v := range m.Data {
			c := toC(v)
			sig = append(sig, real(c), imag(c))
		}
	}
	// hermitian returns (G + Gᴴ)/2 + shift·I: indefinite for shift = 0,
	// positive definite (diagonally dominant) for shift = n.
	hermitian := func(seed int, shift float64) *la.Matrix[T] {
		a := randMat[T](seed, n, n)
		for j := 0; j < n; j++ {
			for i := 0; i < j; i++ {
				v := (toC(a.At(i, j)) + conjOf(a.At(j, i))) / 2
				a.Set(i, j, fromC[T](v))
				a.Set(j, i, fromC[T](complex(real(v), -imag(v))))
			}
			a.Set(j, j, fromC[T](complex(real(toC(a.At(j, j)))+shift, 0)))
		}
		return a
	}
	a, b := randMat[T](41, n, n), randMat[T](42, n, nrhs)
	ipiv, err := la.GESV(a, b, opts...)
	if err != nil {
		t.Fatalf("GESV: %v", err)
	}
	flat(a)
	flat(b)
	for _, uplo := range []la.UpLo{la.Upper, la.Lower} {
		a, b = hermitian(43, float64(n)), randMat[T](44, n, nrhs)
		if err := la.POSV(a, b, append(opts, la.WithUpLo(uplo))...); err != nil {
			t.Fatalf("POSV: %v", err)
		}
		flat(a)
		flat(b)
	}
	a, b = randMat[T](45, n, n), randMat[T](46, n, nrhs)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			a.Set(j, i, a.At(i, j))
		}
	}
	spiv, err := la.SYSV(a, b, opts...)
	if err != nil {
		t.Fatalf("SYSV: %v", err)
	}
	flat(a)
	flat(b)
	for _, p := range append(ipiv, spiv...) {
		sig = append(sig, float64(p))
	}
	return sig
}

// TestWithConfigOverlay pins the overlay conventions of la.Config by
// comparing each spelling, bit for bit, with the same values installed as
// the process default: a negative GemmSmallDim disables the pack-free path,
// and out-of-range values clamp to the table's bounds. (A zero overlay
// inheriting everything is a spelling in TestDefaultConfigBitIdentical.)
func TestWithConfigOverlay(t *testing.T) {
	sig := func(opts ...la.Opt) []float64 {
		const n = 600
		a := randMat[float64](51, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		b := randMat[float64](52, n, 2)
		if _, err := la.GESV(a, b, opts...); err != nil {
			t.Fatalf("GESV: %v", err)
		}
		return append(b.Data, a.Data...)
	}
	underDefault := func(mutate func(*core.Config)) []float64 {
		defer core.ResetDefault(*core.Default())
		core.UpdateDefault(mutate)
		return sig()
	}
	for _, tc := range []struct {
		name    string
		overlay la.Config
		same    func(*core.Config) // the default this overlay must reproduce
	}{
		{"GemmSmallDim<0 disables", la.Config{GemmSmallDim: -1}, func(c *core.Config) { c.GemmSmallDim = 0 }},
		{"out of range clamps", la.Config{GemmMC: 1 << 20, GemmKC: 1}, func(c *core.Config) { c.GemmMC, c.GemmKC = core.MaxBlockDim, 4 }},
	} {
		if !diff.Same(sig(la.WithConfig(tc.overlay)), underDefault(tc.same)) {
			t.Errorf("%s: overlay and process default disagree bitwise", tc.name)
		}
	}
}

// fullPin returns a Config that pins every numerics-affecting knob, so a job
// carrying it is completely insulated from concurrent default-store churn:
// nothing is left to inherit. base chooses the block-size family so distinct
// jobs exercise distinct cache blockings.
func fullPin(threads, base int) la.Config {
	return la.Config{
		Threads:            threads,
		GemmMC:             base,
		GemmKC:             base,
		GemmNC:             4 * base,
		GemmSmallDim:       -1, // pack-free path off: one fixed kernel family
		GemmParallelMinVol: 1 << 18,
	}
}

// TestConcurrentPerCallConfigs runs five drivers simultaneously, each with
// its own thread budget and fully pinned block sizes, while a sixth
// goroutine hammers the process-wide default store (blas.SetThreads and
// core.UpdateDefault on the block sizes and the pack-free crossover). Every
// concurrent result must match the
// job's own serial baseline bit for bit: per-call configs are captured once
// at the API boundary and never see mid-flight default changes. Run under
// -race this is also the data-race gate for the atomic default store.
func TestConcurrentPerCallConfigs(t *testing.T) {
	jobs := []struct {
		name string
		opts []la.Opt
		sig  func(*testing.T, ...la.Opt) []float64
	}{
		{"GESV/t1/b64", []la.Opt{la.WithConfig(fullPin(1, 64))}, gesvSig},
		{"POSV/t2/b96", []la.Opt{la.WithConfig(fullPin(2, 96))}, posvSig},
		{"SYEV/t3/b128", []la.Opt{la.WithConfig(fullPin(3, 128))}, syevSig},
		{"GESVD/t4/b64", []la.Opt{la.WithConfig(fullPin(4, 64))}, gesvdSig},
		{"GESV/t2/b32", []la.Opt{la.WithConfig(fullPin(2, 32))}, gesvSig},
	}

	// Serial baselines, computed before any default-store churn.
	want := make([][]float64, len(jobs))
	for i, j := range jobs {
		want[i] = j.sig(t, j.opts...)
	}

	defer core.ResetDefault(*core.Default())

	const iters = 3
	done := make(chan struct{})
	churned := make(chan struct{})
	// The churn goroutine: rewrites the shared defaults as fast as it can
	// until every driver job has finished.
	go func() {
		defer close(churned)
		for k := 0; ; k++ {
			select {
			case <-done:
				return
			default:
			}
			blas.SetThreads(1 + k%8)
			core.UpdateDefault(func(c *core.Config) {
				c.GemmMC, c.GemmKC, c.GemmNC = 32+32*(k%4), 32+32*((k+1)%4), 256+128*(k%3)
				c.GemmSmallDim = 8 * (k % 5)
			})
		}
	}()
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, name string, opts []la.Opt, sig func(*testing.T, ...la.Opt) []float64) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if got := sig(t, opts...); !diff.Same(got, want[i]) {
					t.Errorf("%s: concurrent run %d differs bitwise from its serial baseline", name, it)
					return
				}
			}
		}(i, j.name, j.opts, j.sig)
	}
	wg.Wait()
	close(done)
	<-churned
}
