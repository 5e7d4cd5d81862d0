package metrics

import (
	"bytes"
	"context"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is the opt-in live observability endpoint: it serves the
// registry in three formats, the run timeline, Go's pprof and expvar
// debug surfaces, and a plain-text progress/ETA view, so long fleet
// runs can be watched and profiled in flight.
//
// Handlers render from Registry.Snapshot into a local buffer before
// writing, so a slow or stalled scraper holds no registry lock and can
// never block the engine's OnResult merges — only its own connection.
// The server is bounded by the run: Close performs a graceful shutdown
// (with a short drain deadline) when the run completes.
type Server struct {
	reg   *Registry
	tl    *Timeline
	start time.Time
	ln    net.Listener
	srv   *http.Server
	done  chan struct{}
}

// StartServer listens on addr (e.g. ":6060", or ":0" to pick a free
// port — see Addr) and serves:
//
//	/              live progress and ETA (text)
//	/metrics       Prometheus text format
//	/metrics.json  JSON snapshot
//	/metrics.csv   CSV snapshot
//	/timeline      Chrome trace_event JSON (404 when no timeline)
//	/debug/pprof/  Go profiling endpoints
//	/debug/vars    expvar (Go runtime memstats etc.)
//
// tl may be nil. The server runs until Close.
func StartServer(addr string, reg *Registry, tl *Timeline) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{reg: reg, tl: tl, start: time.Now(), ln: ln, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleProgress)
	mux.HandleFunc("/metrics", s.handleSnapshot("text/plain; version=0.0.4", Snapshot.WritePrometheus))
	mux.HandleFunc("/metrics.json", s.handleSnapshot("application/json", Snapshot.WriteJSON))
	mux.HandleFunc("/metrics.csv", s.handleSnapshot("text/csv", Snapshot.WriteCSV))
	mux.HandleFunc("/timeline", s.handleTimeline)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	s.srv = &http.Server{Handler: mux}
	go func() {
		s.srv.Serve(ln)
		close(s.done)
	}()
	return s, nil
}

// Addr returns the listener's address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down gracefully, draining in-flight scrapes
// for up to two seconds before closing remaining connections. It is the
// clean-shutdown bound every CLI defers when the run completes.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		err = s.srv.Close()
	}
	<-s.done
	return err
}

// handleSnapshot renders the registry snapshot through render into a
// buffer and serves it. The snapshot briefly holds the registry lock to
// copy instrument pointers; rendering and the client write hold none.
func (s *Server) handleSnapshot(contentType string, render func(Snapshot, io.Writer) error) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		var buf bytes.Buffer
		if err := render(s.reg.Snapshot(), &buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.Write(buf.Bytes())
	}
}

// handleTimeline serves the run timeline as Chrome trace_event JSON.
func (s *Server) handleTimeline(w http.ResponseWriter, req *http.Request) {
	if s.tl == nil {
		http.NotFound(w, req)
		return
	}
	var buf bytes.Buffer
	if err := s.tl.WriteChromeTrace(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

// handleProgress serves the live progress/ETA view: the ProgressLine
// the CLIs' -progress flag prints, labelled "cells". Before a run
// registers cells it shows the header only.
func (s *Server) handleProgress(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path != "/" {
		http.NotFound(w, req)
		return
	}
	var buf bytes.Buffer
	buf.WriteString("borgsim live\n")
	if line, _ := ProgressLine(s.reg, "cells", time.Since(s.start)); line != "" {
		buf.WriteString(line + "\n")
	}
	fmt.Fprintf(&buf, "\nendpoints: /metrics /metrics.json /metrics.csv /timeline /debug/pprof/ /debug/vars\n")
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(buf.Bytes())
}

// ProgressLine renders a run's progress from the series
// engine.RunInstruments keeps in reg (run_cells_total,
// run_cells_started_total, run_cells_done_total) as one line:
//
//	label: 4/9 done, 5 in flight, 3.2s elapsed, ETA 4s
//
// The ETA appears while some but not all cells are done. line is empty
// until a run registers cells, and for a nil reg; finished reports that
// every registered cell is done.
func ProgressLine(reg *Registry, label string, elapsed time.Duration) (line string, finished bool) {
	if reg == nil {
		return "", false
	}
	total := int64(reg.Gauge("run_cells_total").Value())
	if total <= 0 {
		return "", false
	}
	started := reg.Counter("run_cells_started_total").Value()
	done := reg.Counter("run_cells_done_total").Value()
	line = fmt.Sprintf("%s: %d/%d done, %d in flight, %v elapsed",
		label, done, total, started-done, elapsed.Round(100*time.Millisecond))
	if done > 0 && done < total {
		eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
		line += fmt.Sprintf(", ETA %v", eta.Round(100*time.Millisecond))
	}
	return line, done >= total
}
