package fleet

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis/streaming"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/sim"
)

// testConfig is a fleet small enough for unit tests but large enough to
// exercise out-of-order completion under parallelism.
func testConfig(par int) Config {
	return Config{
		Cells:          10,
		MedianMachines: 20,
		Horizon:        sim.Hour,
		Seed:           5,
		Parallelism:    par,
	}
}

// TestFleetRollupParallelismInvariant pins the headline determinism
// claim: the fleet report and the streaming per-cell CSV are
// byte-identical at parallelism 1 and 8 for the same root seed.
func TestFleetRollupParallelismInvariant(t *testing.T) {
	run := func(par int) (*Report, string) {
		var csvBuf bytes.Buffer
		cw := NewCellCSV(&csvBuf)
		cfg := testConfig(par)
		cfg.OnCell = cw.Cell
		rep := Run(cfg)
		if err := cw.Close(); err != nil {
			t.Fatalf("cell CSV: %v", err)
		}
		return rep, csvBuf.String()
	}
	rep1, csv1 := run(1)
	rep8, csv8 := run(8)
	if !reflect.DeepEqual(rep1, rep8) {
		t.Fatalf("fleet report differs across parallelism:\np1: %+v\np8: %+v", rep1, rep8)
	}
	if csv1 != csv8 {
		t.Fatal("per-cell CSV differs across parallelism")
	}
	var text1, text8 bytes.Buffer
	if err := rep1.WriteText(&text1); err != nil {
		t.Fatal(err)
	}
	if err := rep8.WriteText(&text8); err != nil {
		t.Fatal(err)
	}
	if text1.String() != text8.String() {
		t.Fatal("report text differs across parallelism")
	}
}

func TestFleetReportShape(t *testing.T) {
	var cells []CellSummary
	cfg := testConfig(4)
	cfg.OnCell = func(s CellSummary) { cells = append(cells, s) }
	rep := Run(cfg)
	if rep.Cells != cfg.Cells || len(cells) != cfg.Cells {
		t.Fatalf("cells: report %d, observed %d, want %d", rep.Cells, len(cells), cfg.Cells)
	}
	for i, s := range cells {
		if s.Index != i {
			t.Fatalf("cell summaries out of order: %d at position %d", s.Index, i)
		}
		if s.Machines <= 0 || len(s.Scalars) != len(streaming.ScalarNames()) {
			t.Fatalf("cell %d summary malformed: %+v", i, s)
		}
	}
	if rep.TotalMachines <= 0 {
		t.Fatal("no machines accounted")
	}
	names := streaming.ScalarNames()
	if len(rep.Rollup) != len(names) {
		t.Fatalf("rollup has %d metrics, want %d", len(rep.Rollup), len(names))
	}
	for i, m := range rep.Rollup {
		if m.Name != names[i] {
			t.Fatalf("rollup metric %d is %q, want %q", i, m.Name, names[i])
		}
		if m.P50 > m.P90 || m.P90 > m.P99 || m.Min > m.P50 || m.P99 > m.Max {
			t.Fatalf("%s: percentiles out of order: %+v", m.Name, m)
		}
	}
	util := rep.Rollup[0]
	if util.Name != "cpu_util" || util.Mean <= 0 || util.Mean >= 1 {
		t.Fatalf("cpu_util rollup implausible: %+v", util)
	}
}

func TestFleetCSVAndTextOutputs(t *testing.T) {
	rep := Run(testConfig(2))
	var csvBuf, textBuf bytes.Buffer
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 1+len(rep.Rollup) {
		t.Fatalf("rollup CSV has %d lines, want %d", len(lines), 1+len(rep.Rollup))
	}
	if lines[0] != "metric,mean,p50,p90,p99,min,max" {
		t.Fatalf("rollup CSV header %q", lines[0])
	}
	if err := rep.WriteText(&textBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(textBuf.String(), "cpu_util") {
		t.Fatal("report text missing metrics")
	}
}

func TestFleetSpecContract(t *testing.T) {
	cfg := testConfig(1)
	a := cfg.Spec(3)
	b := cfg.Spec(3)
	if a.Profile.Machines != b.Profile.Machines || a.Options.Seed != b.Options.Seed {
		t.Fatal("Spec is not a pure function of (config, index)")
	}
	if a.Profile.Name != "f003" {
		t.Fatalf("cell name %q", a.Profile.Name)
	}
	if len(a.Options.ExtraSinks) != 0 {
		t.Fatal("fleet specs must attach no sink beyond the caller's (a MemTrace would retain rows)")
	}
	if a.Options.IDBase == cfg.Spec(4).Options.IDBase {
		t.Fatal("fleet cells share an ID space")
	}
}

// TestFleetSpecAppliesKnobsToProfile: the fleet's policy and arrival
// overrides land on each cell's profile, the one place core.Run reads
// them, while its registry and timeline stay off the cell's options
// (Run gives each cell a private registry and merges them in order).
func TestFleetSpecAppliesKnobsToProfile(t *testing.T) {
	cfg := Config{RunKnobs: core.RunKnobs{Policy: "best-fit", Arrival: "gamma:cv=2.5",
		Metrics: metrics.NewRegistry(), Timeline: metrics.NewTimeline()}}
	for i := 0; i < 4; i++ {
		spec := cfg.Spec(i)
		if spec.Profile.Policy != scheduler.BestFit || spec.Profile.Arrival != "gamma:cv=2.5" {
			t.Fatalf("cell %d profile: policy %v, arrival %q; want best-fit, gamma:cv=2.5",
				i, spec.Profile.Policy, spec.Profile.Arrival)
		}
		if spec.Options.Metrics != nil || spec.Options.Timeline != nil {
			t.Fatalf("cell %d options carry the fleet's registry or timeline", i)
		}
	}
	if p := (Config{}).Spec(0).Profile; p.Policy != scheduler.LeastAllocated || p.Arrival != "" {
		t.Fatalf("no overrides: policy %v, arrival %q; want the profile defaults", p.Policy, p.Arrival)
	}
}

func TestFleetEmpty(t *testing.T) {
	rep := Run(Config{Cells: 0, Seed: 1})
	if rep.Cells != 0 || rep.TotalMachines != 0 {
		t.Fatalf("empty fleet report: %+v", rep)
	}
	if len(rep.Rollup) != len(streaming.ScalarNames()) {
		t.Fatal("empty fleet rollup missing metric rows")
	}
}
