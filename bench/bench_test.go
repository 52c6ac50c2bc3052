package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func smokeConfig(trace bool) config {
	return config{workloads: workloadDefs, seed: 1998, seconds: 0.06, rounds: 1, scale: 0.05, trace: trace}
}

// TestSmoke runs every workload at tiny sizes, traced and then untraced:
// every metric BENCHMARK.json names is there, finite and with its unit,
// nothing fails, and the outputs repeat bit for bit.
func TestSmoke(t *testing.T) {
	start := time.Now()
	first, tr := runBench(smokeConfig(true), machineEnv(), io.Discard)
	second, _ := runBench(smokeConfig(false), machineEnv(), io.Discard)
	// About 3 s here, 5 s under the race detector; the limit only keeps the
	// smoke test from growing into a benchmark.
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("two smoke runs took %v, want a few seconds", d)
	}
	if len(tr.spans) == 0 || tr.dropped != 0 {
		t.Errorf("traced run recorded %d spans and dropped %d", len(tr.spans), tr.dropped)
	}
	b := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	units := map[string]string{}
	for _, m := range b.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[m.Name] = m.Unit
	}
	if len(first.Results) != len(b.Workloads) {
		t.Fatalf("ran %d workloads, BENCHMARK.json names %d", len(first.Results), len(b.Workloads))
	}
	for i, res := range first.Results {
		if res.Workload != b.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, res.Workload, b.Workloads[i].Name)
		}
		if res.Failed != 0 || res.FailFrac != 0 || !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d, fail_frac %g", res.Workload, res.Attempted, res.Failed, res.FailFrac)
		}
		for name, unit := range units {
			m, ok := res.Metrics[name]
			switch {
			case !nameRE.MatchString(name):
				t.Errorf("metric name %q is outside the contract's alphabet", name)
			case !ok:
				t.Errorf("%s: metric %s is missing", res.Workload, name)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: metric %s = %v", res.Workload, name, m.Value)
			case m.Unit != unit:
				t.Errorf("%s: metric %s has unit %q, want %q", res.Workload, name, m.Unit, unit)
			}
		}
		if got := second.Results[i].OutHash; got != res.OutHash {
			t.Errorf("%s: la.out_hash %s then %s at the same seed", res.Workload, res.OutHash, got)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables in
// metrics.go and workloads.go saying the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloadDefs))
	}
	for i, d := range workloadDefs {
		if w := b.Workloads[i]; w.Name != d.name || w.Why != d.why || len(d.why) > 200 || strings.Contains(d.why, "\n") {
			t.Errorf("workload %d: %+v does not match %q (%d characters)", i, w, d.name, len(d.why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics, want %d and %d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := b.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: %+v does not match %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := b.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: %+v does not match %+v", i, m, d)
		}
	}
}

// TestCorruptedSolutionCountsAsFailed changes one entry of one solution and
// expects exactly that op to be counted.
func TestCorruptedSolutionCountsAsFailed(t *testing.T) {
	def, _ := findWorkload("dense_f64")
	w := def.build(1998, 0.05, 1)
	st := &timing{}
	w.pass(st, false)
	w.verify(st)
	if st.errors != 0 || st.badResult != 0 {
		t.Fatalf("clean pass: %d errors, %d bad results", st.errors, st.badResult)
	}
	clean := st.hash
	w.ops[2].outputs()[0].([]float64)[3] += 1
	w.verify(st)
	if st.badResult != 1 || st.residMax <= threshold {
		t.Errorf("corrupted pass: %d bad results, worst ratio %g", st.badResult, st.residMax)
	}
	if st.hash == clean {
		t.Error("la.out_hash did not change with the output")
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, best, failFrac float64, rounds []float64) string {
		rep := report{Results: []*result{{
			Workload: "dense_f64", FailFrac: failFrac, RoundBest: rounds,
			Metrics: map[string]metric{"pass_s_best": {best, "s"}, "setup_s": {1, "s"}, "la.gflops": {10 / best, "GFLOP/s"}},
		}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1, 1.01, 1, 1.01, 1, 1.01}
	base := write("base.json", 1, 0, steady)
	for _, c := range []struct {
		name    string
		path    string
		worse   bool
		verdict string
	}{
		{"same", write("same.json", 1.03, 0, steady), false, "same"},
		{"slower", write("slower.json", 1.4, 0, steady), true, "WORSE"},
		{"faster", write("faster.json", 0.6, 0, steady), false, "better"},
		{"noisy", write("noisy.json", 1.4, 0, []float64{1, 1.5, 1, 1.5, 1, 1.5}), false, "unresolved"},
		{"failing", write("failing.json", 1, 0.01, steady), true, "WORSE"},
	} {
		var out strings.Builder
		err := compareFiles(base, c.path, &out)
		if errors.Is(err, errWorse) != c.worse || (err != nil && !c.worse) {
			t.Errorf("%s: error %v, want worse = %v", c.name, err, c.worse)
		}
		if !strings.Contains(out.String(), c.verdict) || !strings.Contains(out.String(), "la.gflops") {
			t.Errorf("%s: output lacks %q or the per-layer table:\n%s", c.name, c.verdict, out.String())
		}
	}
}

// TestQuartileSpread checks the quartiles against Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartileSpread(t *testing.T) {
	x := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(x); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestCheckEnv(t *testing.T) {
	e := machineEnv()
	if err := checkEnv(e); err != nil {
		t.Skipf("the test environment itself is refused: %v", err)
	}
	t.Setenv("LA90_NUM_THREADS", "1")
	if checkEnv(e) == nil {
		t.Error("LA90_NUM_THREADS was accepted")
	}
}
