package cliflags

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// parse registers the shared flags on a fresh FlagSet and parses args.
func parse(t *testing.T, args ...string) *Common {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs, "seed")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestObservabilityLifecycle(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "snap.prom")
	timelinePath := filepath.Join(dir, "timeline.json")
	c := parse(t, "-http", "127.0.0.1:0", "-metrics", metricsPath, "-timeline", timelinePath)

	var logs []string
	obs, err := c.StartObservability("test", func(format string, args ...any) {
		logs = append(logs, format)
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs.Reg == nil || obs.Timeline == nil {
		t.Fatal("registry or timeline missing with -http and -timeline set")
	}
	if len(logs) == 0 || !strings.Contains(logs[0], "live observability") {
		t.Fatalf("listen address not logged: %v", logs)
	}

	knobs, err := c.Knobs()
	if err != nil {
		t.Fatal(err)
	}
	k := obs.Knobs(knobs)
	if k.Metrics != obs.Reg || k.Timeline != obs.Timeline {
		t.Fatal("Knobs did not attach the observability surfaces")
	}

	rs := obs.MeasureRun(func() {
		obs.Reg.Counter("worked_total").Inc()
		obs.Timeline.Span("run", "run", 0)()
	})
	if rs.Elapsed < 0 {
		t.Fatalf("bad run stats: %+v", rs)
	}
	if !strings.Contains(rs.String(), "peak heap") {
		t.Fatalf("run summary format changed: %q", rs)
	}

	if err := obs.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"worked_total 1", "run_wall_seconds", "peak_heap_bytes"} {
		if !strings.Contains(string(snap), want) {
			t.Errorf("metrics snapshot missing %q:\n%s", want, snap)
		}
	}
	tl, err := os.ReadFile(timelinePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tl), `"ph":"X"`) {
		t.Errorf("timeline not chrome trace JSON:\n%s", tl)
	}
}

func TestObservabilityServerServes(t *testing.T) {
	c := parse(t, "-http", "127.0.0.1:0")
	var addr string
	obs, err := c.StartObservability("test", func(format string, args ...any) {
		if len(args) == 1 {
			if s, ok := args[0].(string); ok {
				addr = strings.TrimSuffix(strings.TrimPrefix(s, "http://"), "/")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()
	if addr == "" {
		t.Fatal("no address logged")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
}

func TestObservabilityOffByDefault(t *testing.T) {
	c := parse(t)
	obs, err := c.StartObservability("test", func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	if obs.Reg == nil {
		t.Fatal("run registry must always exist (the run summary records into it)")
	}
	if obs.Timeline != nil {
		t.Fatal("timeline allocated with nothing to render it")
	}
	if err := obs.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestObservabilityProfiles: -cpuprofile and -memprofile profile the
// run between StartObservability and Close, which writes both files.
func TestObservabilityProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	c := parse(t, "-cpuprofile", cpu, "-memprofile", mem)
	obs, err := c.StartObservability("test", func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(mem); !os.IsNotExist(err) {
		t.Fatalf("heap profile written before Close: %v", err)
	}
	if err := obs.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: no profile written (%v)", path, err)
		}
	}
	// A second run can profile again: Close stopped the CPU profile.
	obs, err = c.StartObservability("test", func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestProgressFinalLineOnce drives an instrumented two-cell run over the
// Obs registry, as the CLIs do: with -progress, Close prints the final
// "label: n/n done" line exactly once, as the last line; without it,
// nothing is printed.
func TestProgressFinalLineOnce(t *testing.T) {
	for _, on := range []bool{true, false} {
		var args []string
		if on {
			args = append(args, "-progress")
		}
		c := parse(t, args...)
		var out bytes.Buffer
		obs, err := c.startObservability("test", &out, func(string, ...any) {})
		if err != nil {
			t.Fatal(err)
		}
		base := core.Options{Horizon: sim.Hour}
		specs := []engine.Spec{
			engine.NewSpec(0, workload.Profile2019("a", 20), base, 1),
			engine.NewSpec(1, workload.Profile2019("b", 20), base, 1),
		}
		ri := engine.NewRunInstruments(obs.Reg, obs.Timeline, len(specs))
		ri.Apply(specs)
		engine.Run(specs, ri.Wrap(engine.Options{Parallelism: 2}))
		if err := obs.Close(); err != nil {
			t.Fatal(err)
		}

		got := out.String()
		if !on {
			if got != "" {
				t.Fatalf("printed without -progress:\n%s", got)
			}
			continue
		}
		if n := strings.Count(got, "test: 2/2 done"); n != 1 {
			t.Fatalf("final line printed %d times, want 1:\n%s", n, got)
		}
		lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
		if last := lines[len(lines)-1]; !strings.HasPrefix(last, "test: 2/2 done, 0 in flight, ") {
			t.Fatalf("last line %q, want the final progress line", last)
		}
	}
}
