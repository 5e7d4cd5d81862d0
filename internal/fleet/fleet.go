// Package fleet runs warehouse-scale federations: O(100) synthetic
// cells expanded from a fleet spec, simulated in one process on the
// engine's worker pool with bounded memory, and reduced online into a
// fleet-level percentile rollup.
//
// # Fleet sampling
//
// Cell i of a fleet rooted at seed R simulates with engine.DeriveSeed(R,
// i) — exactly the multi-cell suite contract — and draws its profile
// from an independent "fleet-profile" rng stream split off the same
// seed, via workload.SampleFleetProfile: a calibrated 2019 base cell
// plus lognormal machine-count, arrival-rate and tier-mix variation
// around the 2019 medians. Profile and world therefore depend only on
// (R, i): changing fleet-level knobs (parallelism, rollup options)
// never reshuffles which stochastic world a cell index maps to, so
// fleets are reproducible and CRN-comparable.
//
// # Bounded memory and rollup determinism
//
// Cells run through experiments.RunCells one per group: each keeps one
// streaming.CellReducer and no rows, and its reducer is released as soon
// as its metrics are taken (RunCells' doc states the rule), so the
// simulation state held does not grow with the fleet size. A cell's
// metrics are the metric table's (experiments.Metrics) evaluated on the
// cell as a lone 2019 pool; the entries that read the 2011 cell have no
// value there and are left out.
// What grows with the fleet is the metric values themselves: the rollup
// keeps every cell's non-NaN values, at most 27 floats per cell, and
// reads each metric's row from stats.Summarize over them, so its
// quantiles are the same exact order statistics the report and the
// sweep use. The values arrive in spec order through RunCells' in-order
// delivery, and Summarize sorts them anyway, so the
// fleet report is byte-identical at any Parallelism.
package fleet

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/analysis/streaming"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config describes one fleet run.
type Config struct {
	// Cells is the fleet size; zero gives an empty report.
	Cells int
	// MedianMachines is the median of the lognormal machine-count
	// distribution cells draw from; at least 1.
	MedianMachines int
	// Horizon is the per-cell simulated duration; positive. Each cell's
	// utilization and allocation metrics discard the first half as
	// warm-up, and its Figure 6 snapshot is taken at mid-horizon.
	Horizon sim.Time
	// Seed roots the fleet: cell i simulates with DeriveSeed(Seed, i).
	Seed uint64
	// Parallelism bounds the worker pool (engine semantics: <= 0 means
	// GOMAXPROCS). Output is identical at any value.
	Parallelism int
	// RunKnobs carries the shared per-run knobs: Policy/Arrival override
	// every cell's profile (see core.RunKnobs.Apply). Metrics/Timeline,
	// when non-nil, receive the fleet-level instrument rollup and run
	// timeline (per-cell registries merged in fleet order; never change
	// the report bytes).
	core.RunKnobs
	// OnCell, when set, observes each cell's summary in fleet order as
	// it completes — the streaming hook per-cell CSV export hangs off.
	OnCell func(CellSummary)
}

// CellSummary is one completed cell's contribution to the fleet view.
type CellSummary struct {
	Index    int
	Name     string
	Machines int
	// Values[k] is the cell's value of the metric Report.Rollup[k] rolls
	// up.
	Values []float64
}

// cellMetrics are the metric table's entries that a lone 2019 cell
// defines, in table order.
func cellMetrics() []experiments.Metric {
	var out []experiments.Metric
	for _, m := range experiments.Metrics() {
		if !m.Uses2011 {
			out = append(out, m)
		}
	}
	return out
}

// MetricRollup is the cross-cell distribution of one metric.
type MetricRollup struct {
	Name                          string
	Mean, P50, P90, P99, Min, Max float64
}

// Report is the fleet-level result: per-metric cross-cell percentiles
// over the per-cell values.
type Report struct {
	Cells         int
	TotalMachines int
	Horizon       sim.Time
	Seed          uint64
	Rollup        []MetricRollup
}

// cellName labels fleet cell i ("f000", "f001", ...).
func cellName(i int) string { return fmt.Sprintf("f%03d", i) }

// Spec expands fleet cell i into its engine spec: sampled profile,
// derived seed and disjoint ID space (RunCells adds the reducer). It is
// exported so tests (and future front-ends) can reproduce exactly the
// spec the fleet would run.
func (cfg Config) Spec(i int) engine.Spec {
	seed := engine.DeriveSeed(cfg.Seed, i)
	p := workload.SampleFleetProfile(cellName(i), cfg.MedianMachines,
		rng.New(seed).Split("fleet-profile"))
	cfg.RunKnobs.Apply(p)
	return engine.Spec{
		Profile: p,
		Options: core.Options{
			Horizon: cfg.Horizon,
			Seed:    seed,
			IDBase:  engine.IDBase(i),
		},
	}
}

// Check rejects a negative cell count, a median below one machine and a
// horizon that is not positive.
func (cfg Config) Check() error {
	switch {
	case cfg.Cells < 0:
		return fmt.Errorf("fleet: %d cells; want 0 or more", cfg.Cells)
	case cfg.MedianMachines < 1:
		return fmt.Errorf("fleet: median of %d machines; want at least 1", cfg.MedianMachines)
	case cfg.Horizon <= 0:
		return fmt.Errorf("fleet: horizon %v; want a positive duration", cfg.Horizon)
	}
	return nil
}

// Run simulates the fleet and returns its rollup report. It returns
// Check's error before any cell runs.
func Run(cfg Config) (*Report, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	metrics := cellMetrics()
	samples := make([][]float64, len(metrics))
	rep := &Report{Cells: cfg.Cells, Horizon: cfg.Horizon, Seed: cfg.Seed}
	warmup := cfg.Horizon / 2
	experiments.RunCells(cfg.Cells, 1, cfg.Spec, cfg.RunKnobs, cfg.Parallelism,
		func(i int, rs []*streaming.CellReducer, results []core.CellResult) {
			pool := experiments.NewPool(nil, rs, results, warmup)
			values := make([]float64, len(metrics))
			for j, m := range metrics {
				values[j] = m.Value(pool)
				if !math.IsNaN(values[j]) {
					samples[j] = append(samples[j], values[j])
				}
			}
			p := results[0].Profile
			rep.TotalMachines += p.Machines
			if cfg.OnCell != nil {
				cfg.OnCell(CellSummary{Index: i, Name: p.Name, Machines: p.Machines, Values: values})
			}
		})
	rep.Rollup = make([]MetricRollup, len(metrics))
	for i, m := range metrics {
		st := stats.Summarize(samples[i])
		rep.Rollup[i] = MetricRollup{Name: m.Name, Mean: st.Mean,
			P50: st.Median, P90: st.P90, P99: st.P99, Min: st.Min, Max: st.Max}
	}
	return rep, nil
}

// WriteText renders the fleet report as an aligned text table.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "fleet: %d cells, %d machines, horizon %s, seed %d\n",
		r.Cells, r.TotalMachines, r.Horizon, r.Seed); err != nil {
		return err
	}
	return report.Table(w, rollupHeaders, r.rows(report.F))
}

// WriteCSV writes the rollup in machine-readable long form.
func (r *Report) WriteCSV(w io.Writer) error {
	return report.WriteCSV(w, rollupHeaders, r.rows(ftoa))
}

// rollupHeaders are the rollup's columns.
var rollupHeaders = []string{"metric", "mean", "p50", "p90", "p99", "min", "max"}

// rows gives one row per rollup metric, its numbers formatted by format.
func (r *Report) rows(format func(float64) string) [][]string {
	rows := make([][]string, len(r.Rollup))
	for i, m := range r.Rollup {
		rows[i] = []string{m.Name}
		for _, v := range []float64{m.Mean, m.P50, m.P90, m.P99, m.Min, m.Max} {
			rows[i] = append(rows[i], format(v))
		}
	}
	return rows
}

// CellCSV streams per-cell metric rows to CSV — plug its Cell method
// into Config.OnCell. Rows arrive in fleet order, so the file is
// deterministic for a given (config, seed) at any parallelism.
type CellCSV struct {
	w   *csv.Writer
	err error
}

// NewCellCSV returns a streaming per-cell CSV writer, its header
// written.
func NewCellCSV(w io.Writer) *CellCSV {
	c := &CellCSV{w: csv.NewWriter(w)}
	header := []string{"cell", "machines"}
	for _, m := range cellMetrics() {
		header = append(header, m.Name)
	}
	c.err = c.w.Write(header)
	return c
}

// Cell appends one cell's row.
func (c *CellCSV) Cell(s CellSummary) {
	if c.err != nil {
		return
	}
	rec := []string{s.Name, strconv.Itoa(s.Machines)}
	for _, v := range s.Values {
		rec = append(rec, ftoa(v))
	}
	c.err = c.w.Write(rec)
}

// Close flushes the writer and reports the first error encountered.
func (c *CellCSV) Close() error {
	c.w.Flush()
	if c.err != nil {
		return c.err
	}
	return c.w.Error()
}

// ftoa formats a float at full round-trip precision, keeping CSV output
// byte-comparable across runs.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
