// Package metrics is the simulator's observability seam: a registry of
// typed instruments (counters, gauges, exact histograms) that every
// hot layer — scheduler, sim kernel, usage pipeline, engine — reports
// into, with exporters for the Prometheus text format, JSON and CSV, a
// Chrome trace_event run timeline, and an opt-in live HTTP server.
//
// # Determinism contract
//
// Instruments are observers, never participants: they consume no
// randomness, schedule no events, and write no trace rows, so a
// simulation instrumented with a Registry produces byte-identical
// traces and reports to the same run with metrics disabled — at any
// parallelism. The pinned metrics-on/off differential tests in
// internal/core and internal/experiments are CI's acceptance gate for
// that contract; new instrumentation must keep them green.
//
// Counters and gauges are lock-free atomics so live HTTP scrapes read
// mid-run values without stalling simulation. Histograms keep every
// sample: each observation appends under a mutex and costs 8 bytes, so
// they stay OFF allocation-free fast paths: hot code uses counters and
// gauges only, and histogram observations ride existing periodic ticks
// (the usage sampler's 5-minute window, end-of-run summaries), which
// bounds a histogram by windows or cells, never by events.
//
// # Per-cell registries, fleet rollups
//
// Concurrent cells never share a registry. Each cell writes to its own,
// and the engine merges per-cell registries into the run-level rollup
// in spec order on the serialized OnResult path (engine.RunInstruments)
// — the same discipline the streaming reducers use, so rollups are
// deterministic at any parallelism. Every merge is associative and
// exact: counters and gauges add, histograms concatenate their samples,
// and a snapshot summarizes them in sorted order, so any grouping of
// the same cells gives the same snapshot, quantiles and sum included.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is NOT usable — obtain counters from a Registry.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (negative deltas are the caller's bug; the registry
// does not police monotonicity on the hot path).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float64 level.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the current level.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the level by delta. Not atomic against concurrent Add —
// fine for single-writer gauges, which is every gauge in the simulator
// (per-cell registries have one writing goroutine).
func (g *Gauge) Add(delta float64) { g.Set(g.Value() + delta) }

// Value returns the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a distribution that keeps every sample, so its
// quantiles are exact and its merges are order-independent.
// Observations take a mutex; keep histograms off allocation-free fast
// paths (see the package doc).
type Histogram struct {
	mu      sync.Mutex
	samples []float64
}

// Observe records one sample. NaN panics: it has no place in an order.
func (h *Histogram) Observe(x float64) {
	if math.IsNaN(x) {
		panic("metrics: histogram observed NaN")
	}
	h.mu.Lock()
	h.samples = append(h.samples, x)
	h.mu.Unlock()
}

// merge appends other's samples to h. Lock order is receiver then
// source; the engine only ever merges cell→rollup in one direction, so
// the order cannot deadlock.
func (h *Histogram) merge(other *Histogram) {
	h.mu.Lock()
	other.mu.Lock()
	h.samples = append(h.samples, other.samples...)
	other.mu.Unlock()
	h.mu.Unlock()
}

// snapshot returns the histogram's exported view. It takes the samples
// under the lock and sorts a copy outside it, so a live scrape never
// holds a cell's lock while it sorts: appends write only past the
// length read here, so the prefix it reads does not change.
func (h *Histogram) snapshot() HistValue {
	h.mu.Lock()
	xs := h.samples
	h.mu.Unlock()
	s := stats.Summarize(xs)
	return HistValue{Count: int64(s.N), Sum: s.Total, Min: s.Min, Max: s.Max,
		P50: s.Median, P90: s.P90, P99: s.P99}
}

// HistValue is one histogram's snapshot: its count, sum, extremes and
// quantiles, all exact (stats.Summarize of its samples).
type HistValue struct {
	Count         int64
	Sum           float64
	Min, Max      float64
	P50, P90, P99 float64
}

// Registry holds named instruments. Get-or-create lookups take a mutex
// (do them once at setup, not per event); the instruments themselves
// are safe for concurrent use and for live scraping while a run writes.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// checkName panics when name is empty or already bound to another
// instrument kind — a kind collision would emit duplicate series.
func (r *Registry) checkName(name, kind string) {
	if name == "" {
		panic("metrics: empty instrument name")
	}
	for k, m := range map[string]bool{
		"counter":   r.counters[name] != nil,
		"gauge":     r.gauges[name] != nil,
		"histogram": r.hists[name] != nil,
	} {
		if m && k != kind {
			panic(fmt.Sprintf("metrics: %q already registered as a %s", name, k))
		}
	}
}

// Counter returns the named counter, creating it at zero on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	r.checkName(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it at zero on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[name]; g != nil {
		return g
	}
	r.checkName(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it empty on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[name]; h != nil {
		return h
	}
	r.checkName(name, "histogram")
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// Merge folds other into r: counters and gauges add, histograms append
// other's samples. Merging is associative — any grouping of cell
// registries yields the same counters, gauge sums and histogram
// snapshots — which is what makes cell→fleet rollups order-independent.
// The caller must not write to other concurrently.
func (r *Registry) Merge(other *Registry) {
	if other == nil {
		return
	}
	other.mu.Lock()
	cs := make([]namedCounter, 0, len(other.counters))
	for name, c := range other.counters {
		cs = append(cs, namedCounter{name, c})
	}
	gs := make([]namedGauge, 0, len(other.gauges))
	for name, g := range other.gauges {
		gs = append(gs, namedGauge{name, g})
	}
	hs := make([]namedHist, 0, len(other.hists))
	for name, h := range other.hists {
		hs = append(hs, namedHist{name, h})
	}
	other.mu.Unlock()
	for _, nc := range cs {
		r.Counter(nc.name).Add(nc.c.Value())
	}
	for _, ng := range gs {
		r.Gauge(ng.name).Add(ng.g.Value())
	}
	for _, nh := range hs {
		r.Histogram(nh.name).merge(nh.h)
	}
}

type namedCounter struct {
	name string
	c    *Counter
}

type namedGauge struct {
	name string
	g    *Gauge
}

type namedHist struct {
	name string
	h    *Histogram
}

// Snapshot is a point-in-time copy of a registry, sorted by name within
// each kind. Exporters render snapshots, never live registries, so a
// slow consumer (an HTTP scrape, a file write) holds no lock while the
// run continues.
type Snapshot struct {
	Counters []CounterValue `json:"counters"`
	Gauges   []GaugeValue   `json:"gauges"`
	Hists    []HistSnapshot `json:"histograms"`
}

// CounterValue is one counter's snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge's snapshot.
type GaugeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistSnapshot is one histogram's snapshot.
type HistSnapshot struct {
	Name string `json:"name"`
	HistValue
}

// Snapshot copies the registry's current values. The registry lock is
// held only while instrument pointers are collected; counter and gauge
// reads are atomic and histogram snapshots lock per histogram.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	cs := make([]namedCounter, 0, len(r.counters))
	for name, c := range r.counters {
		cs = append(cs, namedCounter{name, c})
	}
	gs := make([]namedGauge, 0, len(r.gauges))
	for name, g := range r.gauges {
		gs = append(gs, namedGauge{name, g})
	}
	hs := make([]namedHist, 0, len(r.hists))
	for name, h := range r.hists {
		hs = append(hs, namedHist{name, h})
	}
	r.mu.Unlock()

	snap := Snapshot{
		Counters: make([]CounterValue, 0, len(cs)),
		Gauges:   make([]GaugeValue, 0, len(gs)),
		Hists:    make([]HistSnapshot, 0, len(hs)),
	}
	for _, nc := range cs {
		snap.Counters = append(snap.Counters, CounterValue{nc.name, nc.c.Value()})
	}
	for _, ng := range gs {
		snap.Gauges = append(snap.Gauges, GaugeValue{ng.name, ng.g.Value()})
	}
	for _, nh := range hs {
		snap.Hists = append(snap.Hists, HistSnapshot{Name: nh.name, HistValue: nh.h.snapshot()})
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Hists, func(i, j int) bool { return snap.Hists[i].Name < snap.Hists[j].Name })
	return snap
}
