package main

// Per-call execution-context flags. Every benchmark leg routes its la driver
// calls through benchLaOpts() and its direct blas/lapack calls through
// benchCfg(), so -threads and -config exercise exactly the per-call path a
// library user gets from la.WithThreads / la.WithConfig.
//
//	la90bench -lapack -threads 1
//	la90bench -blas -config mc=128,kc=128,nc=1024
//	la90bench -example3 -threads 2 -config nbgetrf=96,small=0

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/la"
)

var (
	threadsFlag = flag.Int("threads", 0, "per-call Level-3 worker budget (0 = process default)")
	configFlag  = flag.String("config", "", "per-call tuning overrides: comma-separated key=value pairs ("+configKeys()+")")
)

// configKeys lists the -config keys: the integer rows of core.Knobs.
func configKeys() string {
	var names []string
	for i := range core.Knobs {
		if core.Knobs[i].IsInt() {
			names = append(names, core.Knobs[i].Name)
		}
	}
	return strings.Join(names, ", ")
}

// parseBenchConfig builds the la.Config overlay from -threads and -config.
func parseBenchConfig() la.Config {
	var c la.Config
	if *threadsFlag > 0 {
		c.Threads = *threadsFlag
	}
	if *configFlag == "" {
		return c
	}
	for _, kv := range strings.Split(*configFlag, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		k := core.KnobByName(strings.ToLower(strings.TrimSpace(key)))
		if !ok || k == nil || !k.IsInt() {
			fmt.Fprintf(os.Stderr, "la90bench: bad -config entry %q (keys: %s)\n", kv, configKeys())
			os.Exit(2)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil {
			fmt.Fprintf(os.Stderr, "la90bench: bad -config value %q: %v\n", kv, err)
			os.Exit(2)
		}
		if n == 0 && k.Lo == 0 {
			n = -1 // la.Config: negative disables, 0 inherits
		}
		k.Set(&c, n)
	}
	return c
}

var (
	benchCfgOnce sync.Once
	benchCfgVal  *core.Config
	benchOptsVal []la.Opt
)

// benchInit resolves the flag overlay once, after flag.Parse: as an la
// option for the driver legs, and applied to the process default the same
// way la.WithConfig does for the legs that drive blas/lapack directly.
func benchInit() {
	over := parseBenchConfig()
	benchOptsVal = []la.Opt{la.WithConfig(over)}
	benchCfgVal = core.Default().With(func(c *core.Config) { c.Overlay(&over) })
}

// benchCfg returns the per-run execution context for direct blas/lapack
// calls.
func benchCfg() *core.Config {
	benchCfgOnce.Do(benchInit)
	return benchCfgVal
}

// benchLaOpts returns the per-call options every la driver call in the
// benchmark legs appends.
func benchLaOpts() []la.Opt {
	benchCfgOnce.Do(benchInit)
	return benchOptsVal
}
