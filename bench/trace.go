package main

import (
	"math"
	"runtime"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
)

// A span is one timed call into a layer's exported functions, recorded by
// the harness from outside. IDs start at 1; parent 0 means none.
type span struct {
	ID         int     `json:"id"`
	Parent     int     `json:"parent"`
	Workload   string  `json:"workload"`
	Pass       int     `json:"pass"`
	Op         string  `json:"op"`
	Layer      string  `json:"layer"` // la | f77 | lapack | blas | core
	Class      string  `json:"class"` // driver | factor | solve | reduce | iterate | backtransform | level3 | machine
	Routine    string  `json:"routine"`
	Dtype      string  `json:"dtype"`
	Shape      string  `json:"shape"`
	Threads    int     `json:"threads"`
	StartNs    int64   `json:"start_ns"`
	EndNs      int64   `json:"end_ns"`
	Flops      float64 `json:"flops"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
}

// maxSpans is the capacity of the preallocated span slice; a run that would
// exceed it drops the excess and says so.
const maxSpans = 1 << 17

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans)}
}

// time runs fn inside a span and returns the span's id. As in the untraced
// passes a collection precedes the call; it and the reading of the allocation
// counters are outside the timed interval.
func (t *tracer) time(s span, fn func()) int {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	end := time.Now()
	runtime.ReadMemStats(&after)
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return 0
	}
	s.ID = len(t.spans) + 1
	s.StartNs, s.EndNs = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	s.AllocBytes, s.Mallocs = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.spans = append(t.spans, s)
	return s.ID
}

const (
	// maxStreamBytes caps each bandwidth array. The rule is four times the
	// last-level cache, but a virtual machine may be shown a host cache of
	// hundreds of MiB; both sizes are printed.
	maxStreamBytes = 256 << 20
	machineReps    = 3
)

// measureMachine measures the rates that do not depend on the workload, all
// f64 on one thread: the outside-in GEMM peak, the pack-free GEMM regime, and
// the bandwidth of Gemv, Axpy and core.AllFinite on arrays meant to exceed
// the last-level cache. Bytes are computed from array sizes, not counted.
func measureMachine(tr *tracer, llcBytes int64, scale float64) map[string]float64 {
	cfg := cfgThreads(1)
	best := func(routine, layer, shape string, flops float64, reps int, fn func()) float64 {
		sec := math.Inf(1)
		for i := 0; i < machineReps; i++ {
			id := tr.time(span{Workload: "machine", Pass: i, Op: routine, Layer: layer, Class: "machine", Routine: routine,
				Dtype: "f64", Shape: shape, Threads: 1, Flops: flops * float64(reps)}, func() {
				for r := 0; r < reps; r++ {
					fn()
				}
			})
			if id > 0 {
				s := tr.spans[id-1]
				sec = math.Min(sec, float64(s.EndNs-s.StartNs)/1e9/float64(reps))
			}
		}
		return sec
	}
	gemm := func(n, reps int) float64 {
		a, b, c := ones(n*n), ones(n*n), make([]float64, n*n)
		fl := 2 * float64(n) * float64(n) * float64(n)
		sec := best("Gemm", "blas", shapeN(n), fl, reps, func() {
			blas.Gemm(cfg, blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
		})
		return fl / sec / 1e9
	}
	out := map[string]float64{}
	for _, n := range []int{192, 256, 384} {
		out["blas.peak_gflops"] = math.Max(out["blas.peak_gflops"], gemm(n, 4))
	}
	out["blas.gemm_small_gflops"] = gemm(32, 2000)

	bytes := int64(float64(min(4*llcBytes, maxStreamBytes)) * math.Min(scale, 1))
	n := int(math.Sqrt(float64(bytes / 8)))
	a, x, y := ones(n*n), ones(n), make([]float64, n)
	shape := shapeN(n) + " array " + byteSize(int64(n*n*8)) + " llc " + byteSize(llcBytes)
	sec := best("Gemv", "blas", shape, 2*float64(n)*float64(n), 1, func() {
		blas.Gemv(cfg, blas.NoTrans, n, n, 1, a, n, x, 1, 0, y, 1)
	})
	out["blas.gemv_gbps"] = 8 * float64(n*n+2*n) / sec / 1e9
	b := ones(n * n)
	sec = best("Axpy", "blas", shape, 2*float64(n*n), 1, func() { blas.Axpy(n*n, 0.5, a, 1, b, 1) })
	out["blas.stream_gbps"] = 8 * 3 * float64(n*n) / sec / 1e9
	out["blas.gemv_frac_of_stream"] = out["blas.gemv_gbps"] / out["blas.stream_gbps"]
	finite := true
	sec = best("AllFinite", "core", shape, 0, 1, func() { finite = core.AllFinite(a) && finite })
	if !finite {
		panic("bench: core.AllFinite rejected an array of ones")
	}
	out["core.allfinite_gbps"] = 8 * float64(n*n) / sec / 1e9
	return out
}

func ones(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	return x
}
