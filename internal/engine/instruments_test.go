package engine

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// rollup runs the three-cell test suite instrumented at the given
// parallelism and returns the run registry's Prometheus rendering,
// minus wall-clock series.
func rollup(t *testing.T, parallelism int) string {
	t.Helper()
	reg := metrics.NewRegistry()
	specs := testSpecs(7)
	ri := NewRunInstruments(reg, nil, len(specs))
	ri.Apply(specs)
	Run(specs, ri.Wrap(Options{Parallelism: parallelism}))
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRollupByteIdenticalAcrossParallelism is the determinism gate for
// the metrics rollup itself: per-cell registries merge in spec order on
// the serialized OnResult path, so the run-level snapshot — quantile
// estimates included — is byte-identical at any parallelism.
func TestRollupByteIdenticalAcrossParallelism(t *testing.T) {
	serial := rollup(t, 1)
	for _, par := range []int{2, 8} {
		if got := rollup(t, par); got != serial {
			t.Fatalf("rollup at parallelism %d differs from serial:\n--- p1 ---\n%s\n--- p%d ---\n%s",
				par, serial, par, got)
		}
	}
}

func TestRollupCarriesInstrumentSeries(t *testing.T) {
	out := rollup(t, 4)
	for _, series := range []string{
		"sched_tasks_placed_total", "sched_placement_attempts_total",
		"sim_events_total", "usage_windows_total",
		"trace_rows_instances_total", "sched_pending_queue",
	} {
		if !bytes.Contains([]byte(out), []byte(series)) {
			t.Errorf("rollup missing series %q", series)
		}
	}
	// Progress counters settle: all cells started and done.
	for _, want := range []string{
		"run_cells_total 3", "run_cells_started_total 3", "run_cells_done_total 3",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("rollup missing %q:\n%s", want, out)
		}
	}
}

func TestRunInstrumentsNilIsNoOp(t *testing.T) {
	var ri *RunInstruments
	if got := NewRunInstruments(nil, nil, 3); got != nil {
		t.Fatal("NewRunInstruments(nil, nil) should return nil")
	}
	specs := testSpecs(7)
	ri.Apply(specs)
	o := ri.Cell(1, specs[1].Options)
	if o.Metrics != nil || o.Timeline != nil {
		t.Fatal("nil instruments attached state")
	}
	opts := ri.Wrap(Options{Parallelism: 2})
	if opts.OnStart != nil || opts.OnResult != nil {
		t.Fatal("nil Wrap installed hooks")
	}
}

func TestTimelineRecordsCellSpans(t *testing.T) {
	tl := metrics.NewTimeline()
	specs := testSpecs(7)
	ri := NewRunInstruments(nil, tl, len(specs))
	ri.Apply(specs)
	reduced := 0
	Run(specs, ri.Wrap(Options{
		Parallelism: 2,
		OnResult:    func(int, *core.CellResult) { reduced++ },
	}))
	if reduced != 3 {
		t.Fatalf("caller OnResult ran %d times", reduced)
	}
	// One run span per cell (from core), one "cell" span and one
	// "reduce" span per cell (from the wrapper).
	if got := tl.Len(); got < 3*3 {
		t.Fatalf("timeline has %d spans, want at least 9", got)
	}
}

// TestStalledScrapeDoesNotBlockOnResult wires a real run to a live
// server and stalls a scrape mid-run: the engine's OnResult path (where
// per-cell registries merge into the scraped rollup) must still drain
// at full speed, because handlers render snapshots into local buffers
// and never hold the registry lock while writing to a client.
func TestStalledScrapeDoesNotBlockOnResult(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := metrics.StartServer("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}

	specs := testSpecs(7)
	ri := NewRunInstruments(reg, nil, len(specs))
	ri.Apply(specs)
	done := make(chan struct{})
	go func() {
		Run(specs, ri.Wrap(Options{Parallelism: 2}))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("instrumented run blocked behind a stalled scrape")
	}
	if got := reg.Counter("run_cells_done_total").Value(); got != 3 {
		t.Fatalf("run_cells_done_total = %d, want 3", got)
	}
}

// TestRollupMatchesSchedulerStats cross-checks one rolled-up series
// against the ground truth the per-cell results report.
func TestRollupMatchesSchedulerStats(t *testing.T) {
	reg := metrics.NewRegistry()
	specs := testSpecs(7)
	ri := NewRunInstruments(reg, nil, len(specs))
	ri.Apply(specs)
	var placed int64
	Run(specs, ri.Wrap(Options{OnResult: func(_ int, res *core.CellResult) {
		placed += int64(res.Sched.TasksPlaced)
	}}))
	if got := reg.Counter("sched_tasks_placed_total").Value(); got != placed || placed == 0 {
		t.Fatalf("sched_tasks_placed_total = %d, results say %d", got, placed)
	}
}
