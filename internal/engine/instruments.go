package engine

import (
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// RunInstruments threads a run-level observability surface through a
// multi-cell run: each cell simulates against a private
// metrics.Registry (concurrent cells never share one), and the
// registries merge into the run-level rollup in spec order on the
// serialized OnResult path — the same discipline the streaming reducers
// use — so the rolled-up snapshot is byte-identical at any Parallelism.
// A shared metrics.Timeline (wall-clock only, outside the determinism
// boundary) collects one "cell" span per cell plus a "reduce" span
// around the caller's OnResult work.
//
// The run-level registry also carries the live progress counters the
// HTTP endpoint renders: run_cells_total (gauge, += n per run),
// run_cells_started_total and run_cells_done_total (counters).
//
// All methods are nil-receiver safe, so a runner applies
// instrumentation unconditionally; experiments.RunCells is the one
// caller outside tests and bench/ (Cell in its spec closure, Wrap
// around its options).
type RunInstruments struct {
	reg *metrics.Registry
	tl  *metrics.Timeline
	// cells[i] is cell i's private registry, created by Cell(i) and
	// released by its OnResult merge, so the registries alive are those
	// of the cells in flight, however many cells the run has.
	cells []*metrics.Registry
	// starts[i] is cell i's wall-clock start, written by the worker in
	// OnStart and read on the OnResult path (the engine's result-handoff
	// mutex orders the two).
	starts        []time.Time
	started, done *metrics.Counter
}

// NewRunInstruments prepares instrumentation for an n-cell run feeding
// the run-level registry reg and timeline tl. Either may be nil; when
// both are, it returns nil and every method is a no-op.
func NewRunInstruments(reg *metrics.Registry, tl *metrics.Timeline, n int) *RunInstruments {
	if reg == nil && tl == nil {
		return nil
	}
	ri := &RunInstruments{reg: reg, tl: tl, starts: make([]time.Time, n)}
	if reg != nil {
		ri.cells = make([]*metrics.Registry, n)
		reg.Gauge("run_cells_total").Add(float64(n))
		ri.started = reg.Counter("run_cells_started_total")
		ri.done = reg.Counter("run_cells_done_total")
	}
	return ri
}

// Cell returns cell i's options with its instrumentation applied: the
// private per-cell registry (replacing any run-level registry the
// options inherited), created here on the cell's first call, and the
// shared timeline with TID i. Calls for different cells may run
// concurrently.
func (ri *RunInstruments) Cell(i int, o core.Options) core.Options {
	if ri == nil {
		return o
	}
	o.Metrics = nil
	if ri.cells != nil {
		if ri.cells[i] == nil {
			ri.cells[i] = metrics.NewRegistry()
		}
		o.Metrics = ri.cells[i]
	}
	o.Timeline = ri.tl
	o.TimelineID = i
	return o
}

// Apply instruments every spec in place, for a materialized Run. It is
// kept only because the benchmark harness under bench/, which is frozen,
// calls it.
func (ri *RunInstruments) Apply(specs []Spec) {
	if ri == nil {
		return
	}
	for i := range specs {
		specs[i].Options = ri.Cell(i, specs[i].Options)
	}
}

// Wrap decorates the run's hooks with the instrumentation work: OnStart
// counts the cell as started and stamps its wall-clock start; OnResult
// records the cell span, merges the cell's registry into the run
// registry (spec order — OnResult delivery is serialized and in-order),
// releases it, counts the cell done, and wraps the caller's own
// OnResult in a "reduce" span. Wrap must be called at most once per
// run's options.
func (ri *RunInstruments) Wrap(opts Options) Options {
	if ri == nil {
		return opts
	}
	onStart, onResult := opts.OnStart, opts.OnResult
	opts.OnStart = func(i int) {
		if ri.started != nil {
			ri.started.Inc()
		}
		ri.starts[i] = time.Now()
		if onStart != nil {
			onStart(i)
		}
	}
	opts.OnResult = func(i int, res *core.CellResult) {
		if ri.tl != nil && !ri.starts[i].IsZero() {
			ri.tl.Record("cell", "cell", i, ri.starts[i], time.Since(ri.starts[i]))
		}
		if ri.reg != nil {
			ri.reg.Merge(ri.cells[i])
			ri.cells[i] = nil
			ri.done.Inc()
		}
		if onResult != nil {
			if ri.tl == nil {
				onResult(i, res)
				return
			}
			done := ri.tl.Span("reduce", "reduce", i)
			onResult(i, res)
			done()
		}
	}
	return opts
}
