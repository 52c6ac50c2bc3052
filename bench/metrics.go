package main

import (
	"math"
	"slices"
	"sort"
)

// A metricDef is one reported number. This table is the single source of
// names, units and directions; BENCHMARK.json repeats it (a test keeps the
// two equal) and -compare reads the bounds and the "moves" predictions here.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"; nominal for counts
	bound  float64 // end-to-end only: relative worsening that counts as a regression
	timing bool    // per-layer only: measured by the untraced passes, so present in every run
	moves  string  // the end-to-end metric and workload it is predicted to move
}

// endToEnd are the gated metrics, reported by every run. The third gated
// quantity, fail_frac, travels as the failed/attempted counts of the result
// line, because a gated metric may never be 0 and fail_frac always is.
var endToEnd = []metricDef{
	{name: "pass_s_best", unit: "s", better: "lower", bound: 0.20},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer are the ungated metrics of the traced run.
var perLayer = []metricDef{
	{name: "la.pass_s_p10", unit: "s", better: "lower", timing: true, moves: "context for pass_s_best, all"},
	{name: "la.pass_s_p50", unit: "s", better: "lower", timing: true, moves: "context for pass_s_best, all"},
	{name: "la.pass_s_hi", unit: "s", better: "lower", timing: true, moves: "context for pass_s_best, all"},
	{name: "la.samples", unit: "count", better: "higher", timing: true, moves: "context for pass_s_best, all"},
	{name: "la.gflops", unit: "GFLOP/s", better: "higher", timing: true, moves: "same as pass_s_best"},
	{name: "la.calls", unit: "count", better: "higher", timing: true, moves: "fail_frac, all"},
	{name: "la.errors", unit: "count", better: "lower", timing: true, moves: "fail_frac, all"},
	{name: "la.resid_ratio_max", unit: "ratio", better: "lower", timing: true, moves: "fail_frac, all"},
	{name: "la.self_s", unit: "s", better: "lower", moves: "pass_s_best on small_batch; ~0 on dense_*"},
	{name: "la.self_frac", unit: "ratio", better: "lower", moves: "pass_s_best on small_batch; ~0 on dense_*"},
	{name: "la.alloc_bytes_per_pass", unit: "bytes", better: "lower", moves: "pass_s_best on small_batch (GC pressure)"},
	{name: "la.mallocs_per_pass", unit: "count", better: "lower", moves: "pass_s_best on small_batch (GC pressure)"},
	{name: "la.speedup_vs_t1", unit: "ratio", better: "higher", moves: "dense_f64_mt only"},
	{name: "trace_overhead_frac", unit: "ratio", better: "lower", moves: "none: traced minus untraced la time"},
	{name: "f77.pass_s_best", unit: "s", better: "lower", moves: "small_batch"},
	{name: "f77.self_s", unit: "s", better: "lower", moves: "small_batch"},
	{name: "f77.la_over_f77", unit: "ratio", better: "lower", moves: "small_batch"},
	{name: "lapack.driver_s", unit: "s", better: "lower", moves: "pass_s_best, all"},
	{name: "lapack.factor_s", unit: "s", better: "lower", moves: "dense_*, ls_tall"},
	{name: "lapack.solve_s", unit: "s", better: "lower", moves: "dense_*"},
	{name: "lapack.reduce_s", unit: "s", better: "lower", moves: "eig_svd"},
	{name: "lapack.iterate_s", unit: "s", better: "lower", moves: "eig_svd"},
	{name: "lapack.backtransform_s", unit: "s", better: "lower", moves: "eig_svd, ls_tall"},
	{name: "lapack.glue_s", unit: "s", better: "lower", moves: "small_batch, eig_svd"},
	{name: "lapack.factor_gflops", unit: "GFLOP/s", better: "higher", moves: "dense_*"},
	{name: "lapack.frac_of_gemm", unit: "ratio", better: "higher", moves: "dense_*"},
	{name: "lapack.par_eff", unit: "ratio", better: "higher", moves: "dense_f64_mt"},
	{name: "blas.gemm_gflops", unit: "GFLOP/s", better: "higher", moves: "dense_*, ls_tall"},
	{name: "blas.gemm_panel_gflops", unit: "GFLOP/s", better: "higher", moves: "dense_*, ls_tall"},
	{name: "blas.gemm_small_gflops", unit: "GFLOP/s", better: "higher", moves: "small_batch"},
	{name: "blas.trsm_gflops", unit: "GFLOP/s", better: "higher", moves: "dense_*"},
	{name: "blas.syrk_gflops", unit: "GFLOP/s", better: "higher", moves: "dense_*"},
	{name: "blas.trmm_gflops", unit: "GFLOP/s", better: "higher", moves: "ls_tall, eig_svd"},
	{name: "blas.peak_gflops", unit: "GFLOP/s", better: "higher", moves: "dense_f64"},
	{name: "blas.gemm_frac_of_peak", unit: "ratio", better: "higher", moves: "dense_f64"},
	{name: "blas.gemv_gbps", unit: "GB/s", better: "higher", moves: "eig_svd"},
	{name: "blas.stream_gbps", unit: "GB/s", better: "higher", moves: "none: the machine's bandwidth"},
	{name: "blas.gemv_frac_of_stream", unit: "ratio", better: "higher", moves: "eig_svd"},
	{name: "blas.par_eff", unit: "ratio", better: "higher", moves: "dense_f64_mt"},
	{name: "core.allfinite_gbps", unit: "GB/s", better: "higher", moves: "none by default; base for a WithCheck workload"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setMetric stores v under name with the unit the tables give it.
func setMetric(m map[string]metric, name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				m[name] = metric{v, d.unit}
				return
			}
		}
	}
	panic("bench: metric " + name + " is not in the tables")
}

// sumMin adds up the smallest sample of every op: the time of a pass in which
// nothing interfered with any op.
func sumMin(perOp [][]float64) float64 {
	total := 0.0
	for _, samples := range perOp {
		total += slices.Min(samples)
	}
	return total
}

// percentile returns the nearest-rank q-quantile of x (0 < q <= 1).
func percentile(x []float64, q float64) float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return s[max(0, int(math.Ceil(q*float64(len(s))))-1)]
}

// highPercentile returns the highest sample with at least ten samples beyond
// it, or the median when there are too few for that.
func highPercentile(x []float64) float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return s[max(len(s)-11, (len(s)-1)/2)]
}

// quartileSpread is the distance between the first and third quartile of x
// as a share of its median, with the quartiles of Python's
// statistics.quantiles(x, n=4); 0 when x is too short to have them.
func quartileSpread(x []float64) float64 {
	n := len(x)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		j = min(max(j, 1), n-1)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / q(2)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
