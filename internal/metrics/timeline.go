package metrics

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one recorded wall-clock interval of a run: a named piece of
// work (warmup, run, reduce, a whole cell) attributed to a track
// (TID — by convention the cell's spec index).
type Span struct {
	Name  string
	Cat   string
	TID   int
	Start time.Time
	Dur   time.Duration
}

// Timeline collects wall-clock spans from concurrent workers and
// exports them as a Chrome trace_event JSON file (load it in
// chrome://tracing or Perfetto to see where a fleet run's wall time
// went, cell by cell). Timelines observe wall time only — they sit
// outside the simulation's determinism boundary, like ProgressLine's
// elapsed time and ETA.
type Timeline struct {
	mu    sync.Mutex
	begin time.Time
	spans []Span
}

// NewTimeline returns a timeline whose timestamps are relative to now.
func NewTimeline() *Timeline {
	return &Timeline{begin: time.Now()}
}

// Record appends one completed span. Safe for concurrent use.
func (t *Timeline) Record(name, cat string, tid int, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Cat: cat, TID: tid, Start: start, Dur: dur})
	t.mu.Unlock()
}

// Span starts a span now and returns the closure that ends it. Typical
// use: defer tl.Span("run", "cell", i)().
func (t *Timeline) Span(name, cat string, tid int) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.Record(name, cat, tid, start, time.Since(start)) }
}

// Len returns the number of recorded spans.
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// traceEvent is one Chrome trace_event record ("X" = complete event;
// ts/dur in microseconds).
type traceEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
	PID  int    `json:"pid"`
	TID  int    `json:"tid"`
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
}

// WriteChromeTrace renders the timeline as a Chrome trace_event JSON
// array. Spans are sorted by (start, tid, name) so the file is stable
// for a given set of recorded spans regardless of recording order.
func (t *Timeline) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	begin := t.begin
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		if spans[i].TID != spans[j].TID {
			return spans[i].TID < spans[j].TID
		}
		return spans[i].Name < spans[j].Name
	})
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		events[i] = traceEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X", PID: 1, TID: s.TID,
			TS:  s.Start.Sub(begin).Microseconds(),
			Dur: s.Dur.Microseconds(),
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
