package experiments

import (
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis/streaming"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// metric returns the table's entry called name.
func metric(t *testing.T, name string) Metric {
	t.Helper()
	for _, m := range Metrics() {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("no metric %q", name)
	return Metric{}
}

// TestMetricTableShape: names are unique and cpu_util comes first, and
// every entry with a report row has a label and a paper value.
func TestMetricTableShape(t *testing.T) {
	seen := map[string]bool{}
	for i, m := range Metrics() {
		if m.Name == "" || seen[m.Name] {
			t.Fatalf("metric %d: name %q empty or repeated", i, m.Name)
		}
		seen[m.Name] = true
		if m.Value == nil || m.Artifact != "" && m.Format == nil {
			t.Fatalf("metric %s lacks a value, or a format for its row", m.Name)
		}
		if (m.Artifact == "") != (m.Label == "") || (m.Artifact == "") != (m.Paper == "") {
			t.Fatalf("metric %s: artifact %q, label %q, paper %q", m.Name, m.Artifact, m.Label, m.Paper)
		}
	}
	if Metrics()[0].Name != "cpu_util" {
		t.Fatalf("first metric is %q, want cpu_util", Metrics()[0].Name)
	}
}

// TestMetricTableMatchesAccessors evaluates the table on one simulated
// 2019 cell, a lone pool as the fleet builds it, and recomputes its
// metrics from the reducer's figure accessors and the cell's result.
func TestMetricTableMatchesAccessors(t *testing.T) {
	p := workload.Profile2019("b", 40)
	warmup := sim.Hour
	opts := core.Options{Horizon: 4 * sim.Hour, Seed: 11}
	r := streaming.NewCellReducer(core.TraceMeta(p, opts))
	opts.ExtraSinks = []trace.Sink{r}
	res := core.Run(p, opts)
	pool := NewPool(nil, []*streaming.CellReducer{r}, []core.CellResult{*res}, warmup)
	value := func(name string) float64 { return metric(t, name).Value(pool) }

	sumTiers := func(a streaming.TierAverages) (cpu, mem float64) {
		for _, tier := range trace.Tiers() {
			cpu += a.CPU[tier]
			mem += a.Mem[tier]
		}
		return cpu, mem
	}
	wantCPU, wantMem := sumTiers(r.AverageUsageByTier(warmup))
	if value("cpu_util") != wantCPU || value("mem_util") != wantMem {
		t.Fatalf("util metrics (%g, %g) != tier sums (%g, %g)",
			value("cpu_util"), value("mem_util"), wantCPU, wantMem)
	}
	if value("cpu_util") <= 0 || value("cpu_alloc") < value("cpu_util") {
		t.Fatalf("implausible utilization: util %g alloc %g", value("cpu_util"), value("cpu_alloc"))
	}
	term := r.TerminationAccum()
	if got, want := value("evicted_share"), float64(term.Evicted)/float64(term.Collections); got != want {
		t.Fatalf("evicted_share %g, want %g", got, want)
	}
	if got, want := value("kill_rate_with_parent"), float64(term.WithParentKilled)/float64(term.WithParent); got != want {
		t.Fatalf("kill_rate_with_parent %g, want %g", got, want)
	}
	sets := r.AllocSetAccum()
	if got, want := value("mem_util_outside_alloc"), sets.MemUtilOut/sets.WeightOut; got != want {
		t.Fatalf("mem_util_outside_alloc %g, want %g", got, want)
	}
	if got, want := value("preemptions"), float64(res.Sched.Preemptions); got != want {
		t.Fatalf("preemptions %g, want %g", got, want)
	}
	if got, want := value("oom_evictions"), float64(res.Sched.OOMEvictions); got != want {
		t.Fatalf("oom_evictions %g, want %g", got, want)
	}
	// The rates are normalized to paper scale, as Figures 8 and 9 print
	// them.
	var jobs []float64
	for _, x := range r.Rates().JobsPerHour {
		jobs = append(jobs, x*float64(workload.ReferenceMachines)/40)
	}
	if got, want := value("jobs_per_hr_p50"), stats.Quantile(jobs, 0.5); got != want || got <= 0 {
		t.Fatalf("jobs_per_hr_p50 %g, want %g", got, want)
	}
	if value("tasks_per_job_p95") < 1 {
		t.Fatalf("tasks_per_job_p95 %g", value("tasks_per_job_p95"))
	}
}

// TestMetricTableEmptyPool: a pool of empty cells evaluates without a
// panic. Shares of nothing are 0; statistics of no samples are NaN, which
// the fleet's rollup skips.
func TestMetricTableEmptyPool(t *testing.T) {
	empty := func() *streaming.CellReducer {
		return streaming.NewCellReducer(trace.Meta{Duration: 2 * sim.Hour, Machines: 10})
	}
	pool := NewPool(empty(), []*streaming.CellReducer{empty(), empty()}, make([]core.CellResult, 2), 0)
	for i, v := range pool.Values() {
		if v != 0 && !math.IsNaN(v) {
			t.Errorf("empty-pool metric %s = %g, want 0 or NaN", Metrics()[i].Name, v)
		}
	}
}

// TestPaperValuesLiveInTheTable: each paper value the table holds is
// written in no other non-test Go file of the module.
func TestPaperValuesLiveInTheTable(t *testing.T) {
	root := filepath.Join("..", "..")
	var quoted []string
	for _, m := range Metrics() {
		if m.Paper != "" {
			quoted = append(quoted, strconv.Quote(m.Paper))
		}
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "bench" || strings.HasPrefix(d.Name(), ".") && path != root) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			filepath.Base(path) == "metrictable.go" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, q := range quoted {
			if strings.Contains(string(b), q) {
				t.Errorf("%s writes the paper value %s, which the metric table holds", path, q)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
