package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// env is the machine and the settings a result was measured with.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	MTThreads  int     `json:"mt_threads"`
	CPUModel   string  `json:"cpu_model"`
	LLCBytes   int64   `json:"llc_bytes"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Rounds     int     `json:"rounds"`
	Scale      float64 `json:"scale"`
	Trace      bool    `json:"trace"`
	AllowEnv   bool    `json:"allow_env"`
}

const fallbackLLC = 32 << 20

func machineEnv() env {
	nproc := runtime.NumCPU()
	return env{
		NProc:      nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		MTThreads:  min(nproc, 4),
		CPUModel:   cpuModel(),
		LLCBytes:   llcBytes(),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
	}
}

// checkEnv reports what would make this run measure something other than the
// library's defaults: any LA90_* tuning variable, or fewer Go processors
// than the multi-threaded workload asks threads for.
func checkEnv(e env) error {
	var bad []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "LA90_") {
			bad = append(bad, kv)
		}
	}
	if e.GOMAXPROCS < e.MTThreads {
		bad = append(bad, fmt.Sprintf("GOMAXPROCS=%d is below the %d threads of the _mt workload", e.GOMAXPROCS, e.MTThreads))
	}
	if len(bad) > 0 {
		return fmt.Errorf("environment would change what is measured (pass -allow-env to run anyway): %s", strings.Join(bad, "; "))
	}
	return nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// llcBytes returns the size of cpu0's highest-level cache as sysfs states it.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var size int64
	topLevel := 0
	for _, dir := range dirs {
		level, err := strconv.Atoi(readTrim(filepath.Join(dir, "level")))
		if err != nil || level < topLevel {
			continue
		}
		text := readTrim(filepath.Join(dir, "size"))
		mult := int64(1)
		switch {
		case strings.HasSuffix(text, "K"):
			mult, text = 1<<10, strings.TrimSuffix(text, "K")
		case strings.HasSuffix(text, "M"):
			mult, text = 1<<20, strings.TrimSuffix(text, "M")
		}
		if v, err := strconv.ParseInt(text, 10, 64); err == nil && v > 0 {
			topLevel, size = level, v*mult
		}
	}
	if size == 0 {
		return fallbackLLC
	}
	return size
}

// gitCommit reads the checked-out commit from the repository the benchmark
// sits in, without starting a process; "unknown" outside a git checkout.
func gitCommit() string {
	for _, root := range []string{".", ".."} {
		head := readTrim(filepath.Join(root, ".git", "HEAD"))
		if head == "" {
			continue
		}
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			head = readTrim(filepath.Join(root, ".git", ref))
		}
		if head != "" {
			return head
		}
	}
	return "unknown"
}

func readTrim(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}

func shapeN(n int) string { return fmt.Sprintf("n=%d", n) }

func byteSize(b int64) string { return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20)) }
