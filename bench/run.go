package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/blas"
)

const (
	// setupReps set-ups are made per run and their median reported, so that
	// one cold page-fault burst does not decide setup_s.
	setupReps = 9
	// minPasses is the fewest passes a round or a replay makes, however
	// short its share of -seconds.
	minPasses = 2
	// blasPasses is how many replay passes include the Level-3 calls. At
	// n=1024 they cost as much as the rest of a pass; three repeats give
	// their rates, and the time saved goes to more repeats of the driver
	// calls, whose small differences are the self times.
	blasPasses = 3
)

type config struct {
	workloads []workloadDef
	seed      int64
	seconds   float64 // measuring time per workload
	rounds    int
	scale     float64
	trace     bool
}

// A result is what one workload reported in one run.
type result struct {
	Workload  string            `json:"workload"`
	Threads   int               `json:"threads"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailFrac  float64           `json:"fail_frac"`
	OutHash   string            `json:"la.out_hash"`
	Metrics   map[string]metric `json:"metrics"`
	// RoundBest is pass_s_best of each round on its own; -compare takes the
	// spread of a run from it.
	RoundBest []float64 `json:"round_pass_s_best"`
}

// timing accumulates the untraced passes of one workload.
type timing struct {
	pass      []float64   // seconds per pass: the sum of its ops
	perOp     [][]float64 // the same, split by op
	roundBest []float64
	attempted int // la calls made, warm-up included
	errors    int // calls that returned an error
	badResult int // verified results over the threshold
	residMax  float64
	hash      uint64
}

// pass executes the op list once through la. Copying the inputs back and
// the collection between ops are outside the timer.
func (w *workload) pass(st *timing, record bool) {
	total := 0.0
	for i, o := range w.ops {
		o.reset()
		runtime.GC()
		t0 := time.Now()
		failed := o.la()
		dt := time.Since(t0).Seconds()
		st.attempted += o.systems
		st.errors += failed
		total += dt
		if record {
			st.perOp[i] = append(st.perOp[i], dt)
		}
	}
	if record {
		st.pass = append(st.pass, total)
	}
}

// verify checks what the last pass left in every op's buffers and hashes it.
func (w *workload) verify(st *timing) {
	h := fnv.New64a()
	for _, o := range w.ops {
		worst, bad := o.verify()
		st.badResult += bad
		if !(worst <= st.residMax) {
			st.residMax = worst
		}
		for _, out := range o.outputs() {
			hashBits(h, out)
		}
	}
	st.hash = h.Sum64()
}

// hashBits feeds the IEEE bits of a result array to h.
func hashBits(h hash.Hash64, x any) {
	var buf [8]byte
	put := func(bits uint64) {
		binary.LittleEndian.PutUint64(buf[:], bits)
		h.Write(buf[:])
	}
	switch v := x.(type) {
	case []float32:
		for _, e := range v {
			put(uint64(math.Float32bits(e)))
		}
	case []float64:
		for _, e := range v {
			put(math.Float64bits(e))
		}
	case []complex64:
		for _, e := range v {
			put(uint64(math.Float32bits(real(e)))<<32 | uint64(math.Float32bits(imag(e))))
		}
	case []complex128:
		for _, e := range v {
			put(math.Float64bits(real(e)))
			put(math.Float64bits(imag(e)))
		}
	default:
		panic(fmt.Sprintf("bench: cannot hash %T", x))
	}
}

type runner struct {
	cfg     config
	env     env
	tr      *tracer
	machine map[string]float64 // machine rates, measured once per traced process
}

func (r *runner) run(def workloadDef) *result {
	threads := 1
	if def.mt {
		threads = r.env.MTThreads
	}
	st := &timing{}
	var w *workload
	setups := make([]float64, setupReps)
	for i := range setups {
		w = nil
		runtime.GC() // the previous copy goes before the next set-up is timed
		t0 := time.Now()
		w = def.build(r.cfg.seed, r.cfg.scale, threads)
		w.pass(st, false)
		setups[i] = time.Since(t0).Seconds()
	}
	w.verify(st)
	st.perOp = make([][]float64, len(w.ops))

	budget := r.cfg.seconds
	if r.cfg.trace {
		budget /= 3 // the replay takes the rest
	}
	for round := 0; round < r.cfg.rounds; round++ {
		first := len(st.pass)
		deadline := time.Now().Add(time.Duration(budget / float64(r.cfg.rounds) * float64(time.Second)))
		for n := 0; n < minPasses || time.Now().Before(deadline); n++ {
			w.pass(st, true)
		}
		w.verify(st)
		thisRound := make([][]float64, len(st.perOp))
		for i, samples := range st.perOp {
			thisRound[i] = samples[first:]
		}
		st.roundBest = append(st.roundBest, sumMin(thisRound))
	}

	flops := 0.0
	for _, o := range w.ops {
		flops += o.flops
	}
	best := sumMin(st.perOp)
	failed := st.errors + st.badResult
	res := &result{
		Workload: def.name, Threads: threads,
		Correct: failed == 0, Attempted: st.attempted, Failed: failed,
		FailFrac:  float64(failed) / float64(st.attempted),
		OutHash:   fmt.Sprintf("%016x", st.hash),
		RoundBest: st.roundBest,
		Metrics:   map[string]metric{},
	}
	for name, v := range map[string]float64{
		"pass_s_best":        best,
		"setup_s":            percentile(setups, 0.5),
		"la.pass_s_p10":      percentile(st.pass, 0.10),
		"la.pass_s_p50":      percentile(st.pass, 0.5),
		"la.pass_s_hi":       highPercentile(st.pass),
		"la.samples":         float64(len(st.pass)),
		"la.gflops":          flops / best / 1e9,
		"la.calls":           float64(st.attempted),
		"la.errors":          float64(st.errors),
		"la.resid_ratio_max": st.residMax,
	} {
		setMetric(res.Metrics, name, v)
	}
	if r.cfg.trace {
		var twin *workload
		if threads > 1 {
			twin = def.build(r.cfg.seed, r.cfg.scale, 1)
		}
		first := len(r.tr.spans)
		passes := r.replay(w, twin, time.Duration(r.cfg.seconds*2/3*float64(time.Second)))
		if r.machine == nil {
			r.machine = measureMachine(r.tr, r.env.LLCBytes, r.cfg.scale)
		}
		layerMetrics(res.Metrics, r.tr.spans[first:], st, threads, passes, r.machine)
	}
	for name, m := range res.Metrics {
		// JSON has no NaN or Inf; a failed verification can produce either.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[name] = metric{math.MaxFloat64, m.Unit}
		}
	}
	return res
}

// replay runs the layers below the la call, which is opaque from outside,
// pass after pass until the budget is spent. For a multi-threaded workload
// the twin, the same op list on one thread, adds what the parallel
// efficiencies need.
func (r *runner) replay(w, twin *workload, budget time.Duration) (passes int) {
	deadline := time.Now().Add(budget)
	for ; passes < minPasses || time.Now().Before(deadline); passes++ {
		seen := map[string]bool{}
		for i, o := range w.ops {
			r.replayOp(w.name, passes, o, false, seen)
			if twin != nil {
				r.replayOp(w.name, passes, twin.ops[i], true, seen)
			}
		}
	}
	return passes
}

// replayOp calls, on fresh copies of the same input and with the same thread
// budget, the la driver (a), the f77 routine (b), the lapack driver (c), each
// lapack phase (d) and, once per distinct shape in each of the first
// blasPasses passes, the Level-3 calls at the op's shapes (e); (b)-(e) carry
// the (a) span as parent. (a)-(c)
// rotate their order from pass to pass: whichever runs first after another
// op's replay finds the caches cold (3-5 % at n=1024), and that must not
// land on one layer. For a twin only (a), the factor phases and Gemm run.
func (r *runner) replayOp(workload string, pass int, o *op, twin bool, seen map[string]bool) {
	first := len(r.tr.spans)
	timed := func(layer, class, routine string, flops float64, run func()) int {
		return r.tr.time(span{Workload: workload, Pass: pass, Op: o.name, Layer: layer, Class: class, Routine: routine,
			Dtype: o.dtype, Shape: o.shape, Threads: o.threads, Flops: flops}, run)
	}
	a := 0
	drivers := []func(){func() { a = timed("la", "driver", o.name, o.flops, func() { o.la() }) }}
	if !twin {
		drivers = append(drivers, func() { timed("lapack", "driver", o.name, o.flops, func() { o.lapack() }) })
		if o.f77 != nil {
			drivers = append(drivers, func() {
				// f77 has no per-call configuration: pin the process
				// default around the call.
				old := blas.SetThreads(o.threads)
				timed("f77", "driver", o.name, o.flops, func() { o.f77() })
				blas.SetThreads(old)
			})
		}
	}
	for j := range drivers {
		o.reset()
		drivers[(j+pass)%len(drivers)]()
	}
	o.reset()
	for _, ph := range o.phases {
		if twin && ph.class != "factor" {
			break
		}
		if ph.prep != nil {
			ph.prep()
		}
		timed("lapack", ph.class, ph.routine, ph.flops, ph.run)
	}
	if pass < blasPasses && !seen[o.blasKey] {
		seen[o.blasKey] = true
		o.blas(func(routine string, flops float64, prep, run func()) {
			if twin && routine != "Gemm" {
				return
			}
			if prep != nil {
				prep()
			}
			timed("blas", "level3", routine, flops, run)
		})
	}
	for k := first; k < len(r.tr.spans); k++ {
		if r.tr.spans[k].ID != a {
			r.tr.spans[k].Parent = a
		}
	}
}

// spanKey identifies the spans that are repeats of one call.
type spanKey struct {
	op, dtype, layer, class, routine string
	threads                          int
}

// layerMetrics derives the per-layer metrics of one workload from its spans:
// every call is reduced to the fastest of its repeats, and a layer's
// self time is its call minus the calls one level down.
func layerMetrics(m map[string]metric, spans []span, st *timing, threads, passes int, machine map[string]float64) {
	durs := map[spanKey][]float64{}
	var keys []spanKey // in order of first appearance, so that sums repeat exactly
	flops := map[spanKey]float64{}
	hasF77 := map[[2]string]bool{}
	var laAlloc, laMallocs float64
	for _, s := range spans {
		k := spanKey{s.Op, s.Dtype, s.Layer, s.Class, s.Routine, s.Threads}
		if durs[k] == nil {
			keys = append(keys, k)
		}
		durs[k] = append(durs[k], float64(s.EndNs-s.StartNs)/1e9)
		flops[k] = s.Flops
		if s.Layer == "f77" {
			hasF77[[2]string{s.Op, s.Dtype}] = true
		}
		if s.Layer == "la" && s.Threads == threads {
			laAlloc += float64(s.AllocBytes)
			laMallocs += float64(s.Mallocs)
		}
	}
	// sum adds up the fastest time and the flops of every call that matches.
	sum := func(match func(k spanKey) bool) (sec, fl float64) {
		for _, k := range keys {
			if match(k) {
				sec += slices.Min(durs[k])
				fl += flops[k]
			}
		}
		return sec, fl
	}
	driver := func(layer string, t int, onlyF77 bool) float64 {
		sec, _ := sum(func(k spanKey) bool {
			return k.layer == layer && k.class == "driver" && k.threads == t && (!onlyF77 || hasF77[[2]string{k.op, k.dtype}])
		})
		return sec
	}
	phase := func(class string, t int) (float64, float64) {
		return sum(func(k spanKey) bool { return k.layer == "lapack" && k.class == class && k.threads == t })
	}
	rate := func(routine string, t int) (sec, gflops float64) {
		sec, fl := sum(func(k spanKey) bool { return k.layer == "blas" && k.routine == routine && k.threads == t })
		return sec, ratio(fl, sec) / 1e9
	}
	set := func(name string, v float64) { setMetric(m, name, v) }

	laS, lapackS := driver("la", threads, false), driver("lapack", threads, false)
	set("la.self_s", laS-lapackS)
	set("la.self_frac", ratio(laS-lapackS, laS))
	set("la.alloc_bytes_per_pass", laAlloc/float64(passes))
	set("la.mallocs_per_pass", laMallocs/float64(passes))
	untraced := sumMin(st.perOp)
	set("trace_overhead_frac", ratio(laS-untraced, untraced))

	f77S := driver("f77", threads, false)
	set("f77.pass_s_best", f77S)
	set("f77.self_s", f77S-driver("lapack", threads, true))
	set("f77.la_over_f77", ratio(driver("la", threads, true), f77S))

	set("lapack.driver_s", lapackS)
	phases := 0.0
	for _, class := range []string{"factor", "solve", "reduce", "iterate", "backtransform"} {
		sec, _ := phase(class, threads)
		set("lapack."+class+"_s", sec)
		phases += sec
	}
	set("lapack.glue_s", lapackS-phases)
	factorS, factorFl := phase("factor", threads)
	factorRate := ratio(factorFl, factorS) / 1e9
	gemmS, gemmRate := rate("Gemm", threads)
	set("lapack.factor_gflops", factorRate)
	set("lapack.frac_of_gemm", ratio(factorRate, gemmRate))

	set("blas.gemm_gflops", gemmRate)
	for routine, name := range map[string]string{
		"Gemm/panel": "blas.gemm_panel_gflops", "Trsm": "blas.trsm_gflops", "Syrk": "blas.syrk_gflops", "Trmm": "blas.trmm_gflops",
	} {
		_, v := rate(routine, threads)
		set(name, v)
	}
	set("blas.gemm_frac_of_peak", ratio(gemmRate, machine["blas.peak_gflops"]))
	for name, v := range machine {
		set(name, v)
	}

	// On one thread the ratios against one thread are 1 by definition.
	speedup, lapackEff, blasEff := 1.0, 1.0, 1.0
	if threads > 1 {
		t := float64(threads)
		speedup = ratio(driver("la", 1, false), laS)
		factor1, _ := phase("factor", 1)
		lapackEff = ratio(factor1, t*factorS)
		gemm1, _ := rate("Gemm", 1)
		blasEff = ratio(gemm1, t*gemmS)
	}
	set("la.speedup_vs_t1", speedup)
	set("lapack.par_eff", lapackEff)
	set("blas.par_eff", blasEff)
}
