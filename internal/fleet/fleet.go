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
// Cells are streamed through engine.RunStream: specs (profile + one
// streaming.CellReducer sink, no rows kept) materialize as workers pick
// up indices and are released as soon as each cell's scalars have been
// folded into the rollup, so peak state is O(Parallelism) cells — not
// O(fleet). The rollup itself is one mergeable t-digest
// (stats.Digest) per scalar metric, fed in spec order by the engine's
// in-order OnResult delivery; digests are deterministic sequential
// code, so the fleet report is byte-identical at any Parallelism.
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
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config describes one fleet run.
type Config struct {
	// Cells is the fleet size.
	Cells int
	// MedianMachines is the median of the lognormal machine-count
	// distribution cells draw from; <= 0 means 60 (the many-cell suite's
	// per-cell size, keeping O(100)-cell fleets inside CI memory).
	MedianMachines int
	// Horizon is the per-cell simulated duration; 0 means 4 hours. Each
	// cell's scalars discard the first half as warm-up, and its Figure 6
	// snapshot is taken at mid-horizon.
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
	Scalars  []streaming.Scalar
}

// MetricRollup is the cross-cell distribution of one scalar metric.
type MetricRollup struct {
	Name                          string
	Mean, P50, P90, P99, Min, Max float64
}

// Report is the fleet-level result: per-metric cross-cell percentiles
// over the per-cell scalar values.
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
// derived seed, disjoint ID space, and the given sinks as its only
// ones. It is exported so tests (and future front-ends) can reproduce
// exactly the spec the fleet would run.
func (cfg Config) Spec(i int, sinks ...trace.Sink) engine.Spec {
	seed := engine.DeriveSeed(cfg.Seed, i)
	p := workload.SampleFleetProfile(cellName(i), cfg.medianMachines(),
		rng.New(seed).Split("fleet-profile"))
	cfg.RunKnobs.Apply(p)
	return engine.Spec{
		Profile: p,
		Options: core.Options{
			Horizon:    cfg.horizon(),
			Seed:       seed,
			IDBase:     engine.IDBase(i),
			ExtraSinks: sinks,
		},
	}
}

func (cfg Config) medianMachines() int {
	if cfg.MedianMachines <= 0 {
		return 60
	}
	return cfg.MedianMachines
}

func (cfg Config) horizon() sim.Time {
	if cfg.Horizon <= 0 {
		return 4 * sim.Hour
	}
	return cfg.Horizon
}

// Run simulates the fleet and returns its rollup report.
func Run(cfg Config) *Report {
	n := cfg.Cells
	names := streaming.ScalarNames()
	digests := make([]*stats.Digest, len(names))
	sums := make([]float64, len(names))
	for i := range digests {
		digests[i] = stats.NewDigest(stats.DefaultCompression)
	}
	rep := &Report{Cells: n, Horizon: cfg.horizon(), Seed: cfg.Seed}
	if n == 0 {
		rep.Rollup = rollup(names, digests, sums, 0)
		return rep
	}

	// reducers[i] is created with cell i's spec and released once its
	// scalars are rolled up: the engine's mutex-ordered handoff from the
	// building worker to the delivering worker covers the slot.
	reducers := make([]*streaming.CellReducer, n)
	warmup := cfg.horizon() / 2
	ri := engine.NewRunInstruments(cfg.Metrics, cfg.Timeline, n)
	engine.RunStream(n, func(i int) engine.Spec {
		spec := cfg.Spec(i)
		spec.Options = ri.Cell(i, spec.Options)
		reducers[i] = streaming.NewCellReducer(core.TraceMeta(spec.Profile, spec.Options))
		spec.Options.ExtraSinks = append(spec.Options.ExtraSinks, reducers[i])
		return spec
	}, ri.Wrap(engine.Options{
		Parallelism: cfg.Parallelism,
		OnResult: func(i int, res *core.CellResult) {
			scalars := reducers[i].Scalars(warmup)
			reducers[i] = nil
			rep.TotalMachines += res.Profile.Machines
			for j, s := range scalars {
				if math.IsNaN(s.Value) {
					continue
				}
				digests[j].Add(s.Value)
				sums[j] += s.Value
			}
			if cfg.OnCell != nil {
				cfg.OnCell(CellSummary{
					Index: i, Name: res.Profile.Name,
					Machines: res.Profile.Machines, Scalars: scalars,
				})
			}
		},
	}))
	rep.Rollup = rollup(names, digests, sums, n)
	return rep
}

// rollup folds the per-metric digests into the report rows.
func rollup(names []string, digests []*stats.Digest, sums []float64, cells int) []MetricRollup {
	out := make([]MetricRollup, len(names))
	for i, name := range names {
		d := digests[i]
		r := MetricRollup{Name: name}
		if c := d.Count(); c > 0 {
			r.Mean = sums[i] / float64(c)
			r.P50 = d.Quantile(0.50)
			r.P90 = d.Quantile(0.90)
			r.P99 = d.Quantile(0.99)
			r.Min = d.Min()
			r.Max = d.Max()
		}
		out[i] = r
	}
	return out
}

// WriteText renders the fleet report as an aligned text table.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "fleet: %d cells, %d machines, horizon %s, seed %d\n",
		r.Cells, r.TotalMachines, r.Horizon, r.Seed); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-18s %10s %10s %10s %10s %10s %10s\n",
		"metric", "mean", "p50", "p90", "p99", "min", "max"); err != nil {
		return err
	}
	for _, m := range r.Rollup {
		if _, err := fmt.Fprintf(w, "%-18s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g\n",
			m.Name, m.Mean, m.P50, m.P90, m.P99, m.Min, m.Max); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes the rollup in machine-readable long form.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"metric", "mean", "p50", "p90", "p99", "min", "max"}); err != nil {
		return err
	}
	for _, m := range r.Rollup {
		rec := []string{m.Name}
		for _, v := range []float64{m.Mean, m.P50, m.P90, m.P99, m.Min, m.Max} {
			rec = append(rec, ftoa(v))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CellCSV streams per-cell scalar rows to CSV — plug its Cell method
// into Config.OnCell. Rows arrive in fleet order, so the file is
// deterministic for a given (config, seed) at any parallelism.
type CellCSV struct {
	w      *csv.Writer
	header bool
	err    error
}

// NewCellCSV returns a streaming per-cell CSV writer.
func NewCellCSV(w io.Writer) *CellCSV { return &CellCSV{w: csv.NewWriter(w)} }

// Cell appends one cell's row, writing the header first on first use.
func (c *CellCSV) Cell(s CellSummary) {
	if c.err != nil {
		return
	}
	if !c.header {
		c.header = true
		rec := []string{"cell", "machines"}
		for _, sc := range s.Scalars {
			rec = append(rec, sc.Name)
		}
		if c.err = c.w.Write(rec); c.err != nil {
			return
		}
	}
	rec := []string{s.Name, strconv.Itoa(s.Machines)}
	for _, sc := range s.Scalars {
		rec = append(rec, ftoa(sc.Value))
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
