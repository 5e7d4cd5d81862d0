package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// tinyScale is the cheap per-case scale the metrics differential tests
// share (matching the per-policy determinism gate's size).
func tinyScale() Scale {
	return Scale{Name: "tiny", Machines2011: 40, Machines2019: 30,
		Horizon: 3 * sim.Hour, Warmup: sim.Hour, Seed: 11}
}

func suiteReport(t *testing.T, sc Scale) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := RunSuite(sc).WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty report")
	}
	return buf.Bytes()
}

// TestMetricsDoNotChangeReport is the suite-level pinned acceptance
// test for the observability contract: enabling the full metrics stack
// (run registry + timeline, per-cell registries, spec-order rollup)
// must leave the report byte-identical to a metrics-off run — at
// parallelism 1 and at parallelism 8.
func TestMetricsDoNotChangeReport(t *testing.T) {
	for _, par := range []int{1, 8} {
		sc := tinyScale()
		sc.Parallelism = par
		plain := suiteReport(t, sc)

		sc = tinyScale()
		sc.Parallelism = par
		reg := metrics.NewRegistry()
		sc.Metrics = reg
		sc.Timeline = metrics.NewTimeline()
		instrumented := suiteReport(t, sc)

		if !bytes.Equal(plain, instrumented) {
			t.Fatalf("parallelism %d: report bytes differ with metrics enabled", par)
		}
		if reg.Counter("sched_tasks_placed_total").Value() == 0 {
			t.Fatalf("parallelism %d: rollup recorded no placements", par)
		}
		if got := reg.Counter("run_cells_done_total").Value(); got != 9 {
			t.Fatalf("parallelism %d: run_cells_done_total = %d, want 9", par, got)
		}
		if exportedSpans(t, sc.Timeline) == 0 {
			t.Fatalf("parallelism %d: timeline recorded no spans", par)
		}
	}
}

// TestMetricsRollupIdenticalAcrossParallelism pins that the rolled-up
// snapshot itself — not just the report — is byte-identical at any
// parallelism: per-cell registries merge in spec order on the
// serialized OnResult path, and a histogram's quantiles and sum are
// read from its sorted samples, so they would agree in any merge order.
func TestMetricsRollupIdenticalAcrossParallelism(t *testing.T) {
	snap := func(par int) []byte {
		sc := tinyScale()
		sc.Parallelism = par
		reg := metrics.NewRegistry()
		sc.Metrics = reg
		RunSuite(sc)
		var buf bytes.Buffer
		if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := snap(1)
	if parallel := snap(8); !bytes.Equal(serial, parallel) {
		t.Fatalf("rollup snapshots differ between parallelism 1 and 8:\n--- p1 ---\n%s\n--- p8 ---\n%s",
			serial, parallel)
	}
}

// TestStreamingMetricsMatchRetained pins that the streaming suite rolls
// up the same scheduler counters as the retained suite — the two paths
// instrument identical simulations.
func TestStreamingMetricsMatchRetained(t *testing.T) {
	run := func(stream bool) int64 {
		sc := tinyScale()
		reg := metrics.NewRegistry()
		sc.Metrics = reg
		if stream {
			if _, err := RunSuiteStreaming(sc, StreamingOptions{}); err != nil {
				t.Fatal(err)
			}
		} else {
			RunSuite(sc)
		}
		return reg.Counter("sched_tasks_placed_total").Value()
	}
	retained, streaming := run(false), run(true)
	if retained == 0 || retained != streaming {
		t.Fatalf("sched_tasks_placed_total: retained %d vs streaming %d", retained, streaming)
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
