package metrics

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("placed_total").Add(7)
	reg.Gauge("run_cells_total").Set(9)
	reg.Counter("run_cells_started_total").Add(9)
	reg.Counter("run_cells_done_total").Add(4)
	tl := NewTimeline()
	tl.Record("cell", "cell", 0, time.Now(), time.Millisecond)

	srv, err := StartServer("127.0.0.1:0", reg, tl)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	for _, tc := range []struct {
		path, marker string
	}{
		{"/", "cells: 4/9 done, 5 in flight"},
		{"/metrics", "placed_total 7"},
		{"/metrics.json", `"placed_total"`},
		{"/metrics.csv", "placed_total,counter,7"},
		{"/timeline", `"ph":"X"`},
		{"/debug/pprof/", "profiles"},
		{"/debug/vars", "memstats"},
	} {
		code, body := get(t, base+tc.path)
		if code != http.StatusOK {
			t.Errorf("%s: status %d", tc.path, code)
		}
		if !strings.Contains(body, tc.marker) {
			t.Errorf("%s: body missing %q:\n%s", tc.path, tc.marker, body)
		}
	}
	// "/" renders through ProgressLine, the formatter -progress prints.
	// Only the elapsed time and ETA differ between the two calls.
	want, finished := ProgressLine(reg, "cells", time.Second)
	if finished {
		t.Fatal("4/9 cells done reported as finished")
	}
	counts, _, _ := strings.Cut(want, " elapsed")
	counts = counts[:strings.LastIndex(counts, " ")]
	_, body := get(t, base+"/")
	var line string
	for _, l := range strings.Split(body, "\n") {
		if strings.HasPrefix(l, "cells: ") {
			line = l
		}
	}
	if !strings.HasPrefix(line, counts) || !strings.Contains(line, " elapsed, ETA ") {
		t.Errorf("/ progress line %q does not match ProgressLine %q", line, want)
	}
	if line, _ := ProgressLine(NewRegistry(), "cells", time.Second); line != "" {
		t.Errorf("ProgressLine before any cell registered = %q, want empty", line)
	}

	if code, _ := get(t, base+"/nope"); code != http.StatusNotFound {
		t.Errorf("/nope: status %d, want 404", code)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestServerNilTimeline(t *testing.T) {
	srv, err := StartServer("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _ := get(t, "http://"+srv.Addr()+"/timeline"); code != http.StatusNotFound {
		t.Errorf("/timeline without timeline: status %d, want 404", code)
	}
}

// TestStalledScrapeNeverBlocksMerges is the satellite's liveness gate:
// a scraper that opens /metrics and never reads its response must not
// block registry writes or the engine's OnResult-path merges, and
// server shutdown must still complete.
func TestStalledScrapeNeverBlocksMerges(t *testing.T) {
	reg := NewRegistry()
	// A fat registry so the rendered response exceeds trivial sizes.
	for i := 0; i < 200; i++ {
		reg.Counter(fmt.Sprintf("c_%03d_total", i)).Add(int64(i))
		h := reg.Histogram(fmt.Sprintf("h_%03d", i))
		for j := 0; j < 20; j++ {
			h.Observe(float64(j))
		}
	}
	srv, err := StartServer("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Stalled scraper: sends the request, never reads the response.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}

	merged := make(chan struct{})
	go func() {
		// The OnResult-path work: per-cell registries merging into the
		// scraped run registry while the scrape is in flight.
		for i := 0; i < 50; i++ {
			cell := NewRegistry()
			fill(cell, i)
			reg.Merge(cell)
			reg.Counter("c_000_total").Inc()
		}
		close(merged)
	}()
	select {
	case <-merged:
	case <-time.After(5 * time.Second):
		t.Fatal("registry merges blocked behind a stalled scrape")
	}

	conn.Close()
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close after stalled scrape: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not complete after a stalled scrape")
	}
}
