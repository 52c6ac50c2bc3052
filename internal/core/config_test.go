package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestKnobTable checks the table against the struct it describes, by
// reflection (the library itself never reflects): every int field of Tuning
// is addressed by exactly one row's ptr, every default lies inside
// its row's range, and names and environment names are unique.
func TestKnobTable(t *testing.T) {
	var probe Tuning
	base := baseConfig()
	rv := reflect.ValueOf(&probe).Elem()
	owners := map[uintptr]int{}
	names, envs := map[string]bool{}, map[string]bool{}
	for i := range Knobs {
		k := &Knobs[i]
		if names[k.Name] || k.Name == "" {
			t.Errorf("row %d: name %q empty or repeated", i, k.Name)
		}
		names[k.Name] = true
		if k.Env != "" {
			if envs[k.Env] || !strings.HasPrefix(k.Env, "LA90_") {
				t.Errorf("%s: env %q repeated or not LA90_*", k.Name, k.Env)
			}
			envs[k.Env] = true
		}
		if k.Doc == "" {
			t.Errorf("%s: no doc", k.Name)
		}
		if k.ptr != nil && k.flag != nil {
			t.Errorf("%s: both an integer and a boolean row", k.Name)
		}
		if k.ptr == nil {
			if k.Env == "" {
				t.Errorf("%s: a non-integer row needs an env", k.Name)
			}
			continue
		}
		owners[reflect.ValueOf(k.ptr(&probe)).Pointer()]++
		if def := k.Value(&base.Tuning); def < k.Lo || def > k.Hi {
			t.Errorf("%s: default %d outside [%d, %d]", k.Name, def, k.Lo, k.Hi)
		}
	}
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		if f.Kind() != reflect.Int {
			t.Errorf("Tuning.%s is not an int", rv.Type().Field(i).Name)
			continue
		}
		if n := owners[f.Addr().Pointer()]; n != 1 {
			t.Errorf("Tuning.%s is addressed by %d rows, want exactly 1", rv.Type().Field(i).Name, n)
		}
	}
}

// TestFromEnvEveryKnob round-trips every environment row of the table,
// one subtest per variable. Integer rows: an in-range value lands on its
// field, values below and above the range clamp,
// garbage keeps the default — the EnvInt hardening policy. Boolean rows:
// the one rule, set and not "0" means on.
func TestFromEnvEveryKnob(t *testing.T) {
	base := baseConfig()
	for i := range Knobs {
		k := &Knobs[i]
		switch {
		case k.Env == "":
		case k.IsInt():
			t.Run(k.Env, func(t *testing.T) { testEnvIntRow(t, k, &base.Tuning) })
		default:
			t.Run(k.Env, func(t *testing.T) { testEnvBoolRow(t, k) })
		}
	}
}

func testEnvIntRow(t *testing.T, k *Knob, base *Tuning) {
	def := k.Value(base)
	in := k.Lo + (k.Hi-k.Lo)/3
	for _, tc := range []struct {
		set  string
		want int
	}{
		{strconv.Itoa(in), in},
		{strconv.Itoa(k.Lo - 1), k.Lo},
		{"-7", k.Lo},
		{"1099511627776", k.Hi}, // 1<<40
		{"banana", def},
		{"", def},
	} {
		t.Setenv(k.Env, tc.set)
		got := FromEnv(baseConfig())
		if v := k.Value(&got.Tuning); v != tc.want {
			t.Errorf("%s=%q: got %d, want %d", k.Env, tc.set, v, tc.want)
		}
	}
}

func testEnvBoolRow(t *testing.T, k *Knob) {
	for _, tc := range []struct {
		set  string
		want bool
	}{{"", false}, {"0", false}, {"1", true}, {"yes", true}} {
		t.Setenv(k.Env, tc.set)
		if got := EnvFlag(k.Env); got != tc.want {
			t.Errorf("EnvFlag(%s=%q) = %v, want %v", k.Env, tc.set, got, tc.want)
		}
		if k.flag == nil {
			continue // startup-only row: its owner calls EnvFlag
		}
		c := FromEnv(baseConfig())
		if got := *k.flag(&c); got != tc.want {
			t.Errorf("%s=%q: policy %v, want %v", k.Env, tc.set, got, tc.want)
		}
	}
}

// TestOverlay pins the per-call overlay rule behind la.WithConfig: zero
// inherits, positive replaces, negative disables a knob whose range starts
// at 0 and is ignored elsewhere.
func TestOverlay(t *testing.T) {
	base := baseConfig().Tuning
	got := base
	got.Overlay(&Tuning{})
	if got != base {
		t.Errorf("zero overlay changed the tuning: %+v", got)
	}
	got.Overlay(&Tuning{GemmMC: 128, GemmSmallDim: -1, GemmKC: -5})
	want := base
	want.GemmMC, want.GemmSmallDim = 128, 0
	if got != want {
		t.Errorf("overlay: got %+v, want %+v", got, want)
	}
}

// TestReadmeConfigurationTable checks the README "Configuration" table
// against Knobs row by row: name, environment variable, range, default and
// description are all derived from the table, so the documentation cannot
// drift from the code.
func TestReadmeConfigurationTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Configuration\n")
	if !ok {
		t.Fatal(`README.md has no "## Configuration" section`)
	}
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "## ") {
			break
		}
		if strings.HasPrefix(line, "| `") {
			rows = append(rows, line)
		}
	}
	base := baseConfig()
	var want []string
	for i := range Knobs {
		k := &Knobs[i]
		env, rng, def := "—", "on/off", "off"
		if k.Env != "" {
			env = "`" + k.Env + "`"
		}
		if k.IsInt() {
			rng = fmt.Sprintf("%d–%d", k.Lo, k.Hi)
			def = strconv.Itoa(k.Value(&base.Tuning))
			if k.Name == "threads" {
				def = "GOMAXPROCS"
			}
		}
		want = append(want, fmt.Sprintf("| `%s` | %s | %s | %s | %s |", k.Name, env, rng, def, k.Doc))
	}
	if len(rows) != len(want) {
		t.Errorf("README table has %d rows, core.Knobs has %d", len(rows), len(want))
	}
	for i := 0; i < min(len(rows), len(want)); i++ {
		if rows[i] != want[i] {
			t.Errorf("README row %d:\n got  %s\n want %s", i, rows[i], want[i])
		}
	}
	if t.Failed() {
		t.Log("expected table:\n" + strings.Join(want, "\n"))
	}
}

func TestUpdateDefaultIsolatedFromSnapshots(t *testing.T) {
	saved := *Default()
	defer ResetDefault(saved)

	snap := Default()
	before := snap.GemmMC
	UpdateDefault(func(c *Config) { c.GemmMC = 128 })
	if snap.GemmMC != before {
		t.Fatalf("captured snapshot mutated by UpdateDefault: %d", snap.GemmMC)
	}
	if Default().GemmMC != 128 {
		t.Fatalf("default not updated: %d", Default().GemmMC)
	}
}

func TestWithClampsAndPreservesReceiver(t *testing.T) {
	base := Default()
	derived := base.With(func(c *Config) { c.Threads = -5; c.GemmKC = 1 << 30 })
	if derived.Threads != 1 || derived.GemmKC != MaxBlockDim {
		t.Fatalf("derived not clamped: %+v", derived)
	}
	if base.Threads == 1 && base == derived {
		t.Fatal("With returned the receiver")
	}
}

// TestWithThreadsMemo: the Config derived from the default is kept and handed
// out again, a replaced default never gets the derivation of the old one, a
// Config that is not the default is derived afresh, and none of it allocates
// on the repeated call.
func TestWithThreadsMemo(t *testing.T) {
	saved := *Default()
	defer ResetDefault(saved)

	base := Default()
	d := base.WithThreads(3)
	if d.Threads != 3 || d.GemmKC != base.GemmKC || d == base {
		t.Fatalf("derived %+v from %+v", d, base)
	}
	if base.WithThreads(3) != d {
		t.Fatal("the default's derivation was not kept")
	}
	if got := base.WithThreads(MaxThreads + 5).Threads; got != MaxThreads {
		t.Fatalf("not clamped: %d", got)
	}
	if n := testing.AllocsPerRun(100, func() { Default().WithThreads(2) }); n != 0 {
		t.Fatalf("repeated derivation allocates %v times", n)
	}

	UpdateDefault(func(c *Config) { c.GemmKC = 128 })
	if got := Default().WithThreads(2); got.GemmKC != 128 || got.Threads != 2 {
		t.Fatalf("derivation of the new default is %+v", got)
	}
	if got := base.WithThreads(2); got.GemmKC != base.GemmKC {
		t.Fatalf("derivation of the old snapshot is %+v", got)
	}
	own := &Config{Tuning: base.Tuning}
	if a, b := own.WithThreads(2), own.WithThreads(2); a == b || a.Threads != 2 {
		t.Fatal("a Config that is not the default was memoised")
	}
}

func TestCheckpoint(t *testing.T) {
	var nilCfg *Config
	nilCfg.Checkpoint() // must not panic
	(&Config{}).Checkpoint()

	ctx, cancel := context.WithCancel(context.Background())
	cfg := Default().With(func(c *Config) { c.Ctx = ctx })
	cfg.Checkpoint() // live context: no panic
	cancel()
	defer func() {
		r := recover()
		ce, ok := r.(*CancelError)
		if !ok {
			t.Fatalf("expected *CancelError panic, got %v", r)
		}
		if !errors.Is(ce, context.Canceled) {
			t.Fatalf("CancelError does not unwrap to context.Canceled: %v", ce)
		}
	}()
	cfg.Checkpoint()
}
