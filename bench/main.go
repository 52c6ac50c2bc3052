// Command bench is the repository's benchmark: a single-process, closed-loop
// harness (one caller; the next call is issued when the previous returns)
// that drives the public la drivers with the options a user gets by default,
// on inputs it generates from -seed, verifies every result and reports the
// metrics named in BENCHMARK.json. See README.md.
//
//	go run -C bench . [-workload name] [-seed n] [-seconds s] [-trace 0|1]
//	                  [-out result.json] [-spans trace.json]
//	go run -C bench . -compare old.json new.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// A report is the result file of one run.
type report struct {
	Env     env       `json:"env"`
	Results []*result `json:"results"`
}

// errWorse is returned by -compare when a gated metric regressed.
var errWorse = errors.New("at least one end-to-end metric is worse")

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload (default: all six)")
	seed := fs.Int64("seed", 1998, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "measuring time per workload")
	trace := fs.Int("trace", 0, "1: also replay the layers below la with spans and report the per-layer metrics")
	rounds := fs.Int("rounds", 6, "rounds the measuring time is split into; results are verified after each")
	scale := fs.Float64("scale", 1, "scale of the problem dimensions (the smoke test uses 0.05)")
	out := fs.String("out", "", "write the result JSON to this file")
	spans := fs.String("spans", "", "with -trace 1: write the spans to this file")
	allowEnv := fs.Bool("allow-env", false, "run although LA90_* variables or GOMAXPROCS change what is measured")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || *rounds < 1 || *scale <= 0 {
		return errors.New("need -trace 0|1, -seconds > 0, -rounds >= 1, -scale > 0")
	}
	if *spans != "" && *trace == 0 {
		return errors.New("-spans needs -trace 1")
	}
	cfg := config{workloads: workloadDefs, seed: *seed, seconds: *seconds, rounds: *rounds, scale: *scale, trace: *trace == 1}
	if *workload != "" {
		def, ok := findWorkload(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		cfg.workloads = []workloadDef{def}
	}
	e := machineEnv()
	e.AllowEnv = *allowEnv
	if err := checkEnv(e); err != nil && !*allowEnv {
		return err
	}
	rep, tr := runBench(cfg, e, stdout)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			return err
		}
	}
	if *spans != "" {
		return writeSpans(*spans, rep.Env, tr)
	}
	return nil
}

// runBench runs every workload of cfg in turn and prints, per workload, each
// metric by name with its unit and then the one-line JSON result.
func runBench(cfg config, e env, stdout io.Writer) (*report, *tracer) {
	e.Seed, e.Seconds, e.Rounds, e.Scale, e.Trace = cfg.seed, cfg.seconds, cfg.rounds, cfg.scale, cfg.trace
	r := &runner{cfg: cfg, env: e}
	defs := endToEnd
	if cfg.trace {
		r.tr = newTracer()
		defs = perLayer
	}
	rep := &report{Env: e}
	for _, def := range cfg.workloads {
		res := r.run(def)
		rep.Results = append(rep.Results, res)
		printResult(stdout, res)
		line := struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
		for _, d := range defs {
			line.Metrics[d.name] = res.Metrics[d.name]
		}
		text, _ := json.Marshal(line) // a struct of numbers and strings cannot fail to encode
		fmt.Fprintf(stdout, "%s\n", text)
	}
	return rep, r.tr
}

func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s (threads %d) ==\n", res.Workload, res.Threads)
	row := func(name string, value any, unit string) { fmt.Fprintf(w, "%-28s %14v %s\n", name, value, unit) }
	for i, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if m, ok := res.Metrics[d.name]; ok {
			row(d.name, fmt.Sprintf("%.6g", m.Value), m.Unit)
		}
		if i == len(endToEnd)-1 {
			row("fail_frac", fmt.Sprintf("%.6g", res.FailFrac), "ratio")
		}
	}
	row("la.out_hash", res.OutHash, "fnv1a64")
}

// writeSpans writes the trace as one JSON object with one span per line.
func writeSpans(path string, e env, tr *tracer) error {
	var b bytes.Buffer
	head, err := json.Marshal(e)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "{\"env\": %s,\n\"dropped\": %d,\n\"spans\": [\n", head, tr.dropped)
	for i, s := range tr.spans {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		b.Write(line)
		if i < len(tr.spans)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
