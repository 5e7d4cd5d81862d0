package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestFleetMetricsDoNotChangeReport pins the observe-only contract at
// fleet scale: attaching the full observability stack (registry,
// timeline, live HTTP server) leaves the fleet report identical, and
// the rollup arrives with the fleet's scheduler activity.
func TestFleetMetricsDoNotChangeReport(t *testing.T) {
	plain := mustRun(t, testConfig(4))

	cfg := testConfig(4)
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	cfg.Timeline = metrics.NewTimeline()
	instrumented := mustRun(t, cfg)

	if !reflect.DeepEqual(plain, instrumented) {
		t.Fatalf("fleet report differs with metrics enabled:\nplain: %+v\ninstrumented: %+v",
			plain, instrumented)
	}
	if reg.Counter("sched_tasks_placed_total").Value() == 0 {
		t.Fatal("rollup recorded no placements")
	}
	if got := reg.Counter("run_cells_done_total").Value(); got != int64(cfg.Cells) {
		t.Fatalf("run_cells_done_total = %d, want %d", got, cfg.Cells)
	}
	if got := exportedSpans(t, cfg.Timeline); got < cfg.Cells {
		t.Fatalf("timeline has %d spans, want at least one per cell", got)
	}
}

// TestFleetLiveMetricsScrape is the CI metrics-smoke's in-process twin:
// it scrapes the live /metrics endpoint from inside the run (the OnCell
// hook fires on the engine's OnResult path) and asserts the scrape both
// succeeds mid-run and shows progress counters moving — proving a live
// consumer never deadlocks against the serialized rollup path it
// observes.
func TestFleetLiveMetricsScrape(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := metrics.StartServer("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := testConfig(4)
	cfg.Metrics = reg
	var midRun []string
	cfg.OnCell = func(s CellSummary) {
		// Scrape from the rollup path itself: if a scrape could block the
		// merge (or vice versa) this would deadlock, not just slow down.
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			t.Errorf("cell %d: scrape failed: %v", s.Index, err)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Errorf("cell %d: read failed: %v", s.Index, err)
			return
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("cell %d: status %d", s.Index, resp.StatusCode)
		}
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "run_cells_done_total ") {
				midRun = append(midRun, line)
			}
		}
	}
	mustRun(t, cfg)

	if len(midRun) != cfg.Cells {
		t.Fatalf("captured %d mid-run scrapes, want %d", len(midRun), cfg.Cells)
	}
	// Done counts must be monotone non-decreasing across the in-order
	// scrapes and strictly positive by the last one.
	if midRun[len(midRun)-1] == "run_cells_done_total 0" {
		t.Fatalf("final mid-run scrape shows no progress: %v", midRun)
	}

	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sched_tasks_placed_total") {
		t.Fatal("final snapshot missing scheduler series")
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
