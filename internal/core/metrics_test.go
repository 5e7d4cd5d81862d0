package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace/tracetest"
	"repro/internal/workload"
)

// TestMetricsDoNotChangeTrace is the determinism contract's pinned
// acceptance test at the cell level: a run with a Registry (and a
// Timeline) attached must produce a trace byte-identical to the same
// run with metrics disabled — instruments observe, they never
// participate (no randomness consumed, no rows written).
func TestMetricsDoNotChangeTrace(t *testing.T) {
	opts := Options{Horizon: 8 * sim.Hour, Seed: 7}
	plain, plainTrace := runRetained(workload.Profile2019("a", 120), opts)

	reg := metrics.NewRegistry()
	opts.Metrics = reg
	opts.Timeline = metrics.NewTimeline()
	opts.TimelineID = 3
	instrumented, instrumentedTrace := runRetained(workload.Profile2019("a", 120), opts)

	if d := tracetest.Diff(plainTrace, instrumentedTrace); d != "" {
		t.Fatalf("%s with metrics enabled", d)
	}
	if plain.Sched != instrumented.Sched {
		t.Fatalf("scheduler stats differ: %+v vs %+v", plain.Sched, instrumented.Sched)
	}

	// And the registry actually observed the run.
	snap := reg.Snapshot()
	if len(snap.Counters) == 0 || len(snap.Hists) == 0 {
		t.Fatalf("instrumented run recorded nothing: %+v", snap)
	}
	if got := reg.Counter("sched_tasks_placed_total").Value(); got != int64(instrumented.Sched.TasksPlaced) {
		t.Fatalf("sched_tasks_placed_total = %d, stats say %d", got, instrumented.Sched.TasksPlaced)
	}
	if reg.Counter("sim_events_total").Value() == 0 {
		t.Fatal("sim_events_total not recorded")
	}
	if reg.Counter("usage_windows_total").Value() == 0 {
		t.Fatal("usage_windows_total not recorded")
	}
	rows := instrumented.Rows
	if got := reg.Counter("trace_rows_usage_total").Value(); got != rows.Usage {
		t.Fatalf("trace_rows_usage_total = %d, row counter says %d", got, rows.Usage)
	}
	if exportedSpans(t, opts.Timeline) == 0 {
		t.Fatal("timeline recorded no spans")
	}
}

// exportedSpans returns the number of events tl exports as a Chrome
// trace.
func exportedSpans(t *testing.T, tl *metrics.Timeline) int {
	t.Helper()
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	return len(events)
}
