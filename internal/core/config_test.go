package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestKnobTable checks the table's own rules: names and environment names
// are unique and LA90_*, every row has a doc, and the worker budget's
// default lies inside its range.
func TestKnobTable(t *testing.T) {
	names, envs := map[string]bool{}, map[string]bool{}
	for _, k := range Knobs {
		if names[k.Name] || k.Name == "" {
			t.Errorf("name %q empty or repeated", k.Name)
		}
		names[k.Name] = true
		if envs[k.Env] || !strings.HasPrefix(k.Env, "LA90_") {
			t.Errorf("%s: env %q repeated or not LA90_*", k.Name, k.Env)
		}
		envs[k.Env] = true
		if k.Doc == "" {
			t.Errorf("%s: no doc", k.Name)
		}
	}
	if def := baseConfig().Threads; def < 1 || def > MaxThreads {
		t.Errorf("threads: default %d outside [1, %d]", def, MaxThreads)
	}
}

// TestFromEnvEveryKnob round-trips every row of the table, one subtest per
// variable. The worker budget: an in-range value lands on its field, values
// below and above [1, MaxThreads] clamp, garbage keeps the default — the
// EnvInt hardening policy. The switches: the one rule, set and not "0" means
// on.
func TestFromEnvEveryKnob(t *testing.T) {
	for i := range Knobs {
		k := &Knobs[i]
		t.Run(k.Env, func(t *testing.T) {
			switch k.Name {
			case "threads":
				testEnvThreadsRow(t, k)
			case "check":
				testEnvBoolRow(t, k, func(c *Config) bool { return c.CheckInputs })
			case "noasm":
				testEnvBoolRow(t, k, nil) // startup-only row: its owner calls EnvFlag
			default:
				t.Fatalf("row %s has no round trip here", k.Name)
			}
		})
	}
}

func testEnvThreadsRow(t *testing.T, k *Knob) {
	def := baseConfig().Threads
	for _, tc := range []struct {
		set  string
		want int
	}{
		{"341", 341},
		{"0", 1},
		{"-7", 1},
		{"1099511627776", MaxThreads}, // 1<<40
		{"banana", def},
		{"", def},
	} {
		t.Setenv(k.Env, tc.set)
		got := FromEnv(baseConfig())
		if v := got.Threads; v != tc.want {
			t.Errorf("%s=%q: got %d, want %d", k.Env, tc.set, v, tc.want)
		}
	}
}

func testEnvBoolRow(t *testing.T, k *Knob, field func(*Config) bool) {
	for _, tc := range []struct {
		set  string
		want bool
	}{{"", false}, {"0", false}, {"1", true}, {"yes", true}} {
		t.Setenv(k.Env, tc.set)
		if got := EnvFlag(k.Env); got != tc.want {
			t.Errorf("EnvFlag(%s=%q) = %v, want %v", k.Env, tc.set, got, tc.want)
		}
		if field == nil {
			continue
		}
		c := FromEnv(baseConfig())
		if got := field(&c); got != tc.want {
			t.Errorf("%s=%q: policy %v, want %v", k.Env, tc.set, got, tc.want)
		}
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
	var want []string
	for _, k := range Knobs {
		rng, def := "on/off", "off"
		if k.Name == "threads" {
			rng, def = fmt.Sprintf("1–%d", MaxThreads), "GOMAXPROCS"
		}
		want = append(want, fmt.Sprintf("| `%s` | `%s` | %s | %s | %s |", k.Name, k.Env, rng, def, k.Doc))
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
	before := snap.CheckInputs
	UpdateDefault(func(c *Config) { c.CheckInputs = !before })
	if snap.CheckInputs != before {
		t.Fatalf("captured snapshot mutated by UpdateDefault: %v", snap.CheckInputs)
	}
	if Default().CheckInputs == before {
		t.Fatalf("default not updated: %v", Default().CheckInputs)
	}
}

func TestWithClampsAndPreservesReceiver(t *testing.T) {
	base := Default()
	derived := base.With(func(c *Config) { c.Threads = -5; c.CheckInputs = !base.CheckInputs })
	if derived.Threads != 1 || derived.CheckInputs == base.CheckInputs {
		t.Fatalf("derived clamps the budget only: %+v", derived)
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
	if d.Threads != 3 || d.CheckInputs != base.CheckInputs || d == base {
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

	UpdateDefault(func(c *Config) { c.CheckInputs = !base.CheckInputs })
	if got := Default().WithThreads(2); got.CheckInputs == base.CheckInputs || got.Threads != 2 {
		t.Fatalf("derivation of the new default is %+v", got)
	}
	if got := base.WithThreads(2); got.CheckInputs != base.CheckInputs {
		t.Fatalf("derivation of the old snapshot is %+v", got)
	}
	own := new(Config)
	*own = *base
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
