// Package sweep runs seed × profile parameter sweeps on the multi-cell
// engine and reduces them to cross-seed statistics. The paper's headline
// observations (tier mix, utilization, overcommit behavior) are
// single-trace numbers; a sweep quantifies their run-to-run variance and
// parameter sensitivity: N root-seed replicates × M named profile
// variants, each point simulating the full nine-cell suite (the 2011
// cell plus the 2019 cells a–h), with every figure folded online by
// streaming reducers — a sweep cell costs its reducer state, never a
// retained trace. The reducers alive at once are one grid point's plus
// those of the cells started and not yet delivered: the running cells
// and the finished ones waiting behind a slower cell (see
// engine.RunStream), so the count depends on Parallelism and on how
// unequal the cells are, not on the number of grid points.
//
// # Grid contract
//
// The grid expands through the engine's published helpers: grid point
// (run, variant, cell) simulates with seed engine.DeriveGridSeed(root,
// run, cell) and ID space engine.IDBase(flat grid index). Seeds depend
// only on (root, run, cell) — never on the variant list — so variant A
// and variant B of replicate run face the same stochastic world (common
// random numbers), and adding a variant to a sweep never changes any
// other variant's numbers. Same root seed + same definition ⇒ the same
// Result — and byte-identical report — at any Parallelism.
//
// # Statistics
//
// Each grid point reduces to one metric vector: the metric table
// (experiments.Metrics) evaluated over the point's nine cells, exactly as
// the suite report evaluates it, so cross-era metrics such as Figure 8's
// 2019/2011 rate ratio exist per point. Across the N replicates of a
// variant, every metric gets a stats.CrossRun: mean, sample stddev,
// min/max, and the 95% Student-t confidence half-width.
package sweep

import (
	"fmt"

	"repro/internal/analysis/streaming"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Variant is one named profile overlay: Apply mutates the freshly built
// cell profiles of a grid point (arrival-rate multipliers, machine-count
// scaling, tier-mix shifts, overcommit or admission-ceiling settings, …)
// before simulation. A nil Apply is the identity (baseline) variant.
type Variant struct {
	Name  string
	Apply func(*workload.CellProfile)
}

// Def defines a sweep.
type Def struct {
	// Scale is the base suite scale (machine counts, horizon, warmup);
	// Scale.Seed is the sweep's root seed, and Scale.Replay (if set)
	// replays the same recorded per-cell workloads at every grid
	// point — fixing the workload itself across variants, CRN beyond
	// seeds. Scale.Parallelism bounds the one engine worker pool the
	// whole grid runs through; <= 0 means GOMAXPROCS. It never changes
	// the result.
	Scale experiments.Scale
	// Seeds is the number of root-seed replicates (N ≥ 1).
	Seeds int
	// Variants are the profile overlays to compare; empty means just the
	// baseline.
	Variants []Variant
}

// VariantStats is one variant's cross-seed outcome.
type VariantStats struct {
	Name string
	// PerSeed[r][m] is metric m of replicate run r.
	PerSeed [][]float64
	// Stats[m] summarizes metric m across the replicates.
	Stats []stats.CrossRun
	// Diffs[m] summarizes the per-replicate paired difference of metric m
	// against the sweep's baseline variant (this variant minus baseline,
	// replicate by replicate). Because replicate r of every variant shares
	// grid seeds (common random numbers), the paired Student-t CI on the
	// difference is the statistically right — and typically much tighter —
	// comparison. Nil for the baseline variant itself.
	Diffs []stats.CrossRun
	// UnpairedCI95[m] is the Welch two-sample 95% half-width on the same
	// mean difference, ignoring the pairing — the counterfactual interval
	// the CRN discipline beats. Nil exactly when Diffs is.
	UnpairedCI95 []float64
}

// column gathers metric m across the variant's replicates.
func (v *VariantStats) column(m int) []float64 {
	xs := make([]float64, len(v.PerSeed))
	for run, vec := range v.PerSeed {
		xs[run] = vec[m]
	}
	return xs
}

// Result is a finished sweep: the definition it ran, the metric table's
// names, and per-variant cross-seed statistics. All rendering
// (WriteReport, WriteCSVs) is a pure function of this value.
type Result struct {
	Def      Def
	Metrics  []string
	Cells    int // suite cells simulated per grid point
	Variants []VariantStats
	// Baseline indexes the comparison anchor in Variants for the paired
	// differences: the first variant named "baseline" when present,
	// otherwise the first variant.
	Baseline int
}

// Run expands the sweep's seed × variant × cell grid, simulates every
// point through the engine with per-spec streaming reducers (no trace is
// ever retained), and aggregates cross-seed statistics.
func Run(d Def) (*Result, error) {
	if d.Seeds <= 0 {
		return nil, fmt.Errorf("sweep: Seeds must be >= 1, got %d", d.Seeds)
	}
	variants := d.Variants
	if len(variants) == 0 {
		variants = []Variant{Baseline()}
	}
	names := make(map[string]bool, len(variants))
	for i, v := range variants {
		if v.Name == "" {
			return nil, fmt.Errorf("sweep: variant %d has no name", i)
		}
		if names[v.Name] {
			return nil, fmt.Errorf("sweep: duplicate variant %q — report rows and CSV keys would be ambiguous", v.Name)
		}
		names[v.Name] = true
	}

	cells := len(experiments.SuiteProfiles(d.Scale))
	specs := make([]engine.Spec, 0, d.Seeds*len(variants)*cells)
	base := core.Options{Horizon: d.Scale.Horizon, TimelineWarmup: d.Scale.Warmup}
	for run := 0; run < d.Seeds; run++ {
		for _, v := range variants {
			for c, p := range experiments.SuiteProfiles(d.Scale) {
				if v.Apply != nil {
					v.Apply(p)
				}
				spec := engine.NewGridSpec(run, c, len(specs), p, base, d.Scale.Seed)
				if c < len(d.Scale.Replay) {
					// The same recorded workload at every grid point of
					// cell c: variants then differ only in what the
					// scheduler does with identical arrivals.
					spec.Options.Replay = d.Scale.Replay[c]
				}
				specs = append(specs, spec)
			}
		}
	}

	res := &Result{Def: d, Cells: cells}
	for _, m := range experiments.Metrics() {
		res.Metrics = append(res.Metrics, m.Name)
	}
	res.Def.Variants = variants
	res.Variants = make([]VariantStats, len(variants))
	for vi, v := range variants {
		res.Variants[vi] = VariantStats{Name: v.Name, PerSeed: make([][]float64, d.Seeds)}
	}

	// The grid streams through the engine like a fleet: a cell's reducer
	// is made as a worker picks the cell up and kept only until the last
	// cell of its grid point arrives, in grid order; the point's metric
	// vector is then evaluated and its reducers dropped, so the live
	// reducers are one point's plus those of the cells the engine has
	// started and not yet delivered. Grid points feed the
	// sweep-level registry/timeline like suite cells feed a suite's: one
	// private registry per point, merged in grid order, one timeline row
	// per flat index. reducers[i] is written by the worker that builds
	// cell i and read by the one delivering it: the engine's
	// mutex-ordered handoff between them covers the slot.
	reducers := make([]*streaming.CellReducer, len(specs))
	var results []core.CellResult // the current point's, in cell order
	ri := engine.NewRunInstruments(d.Scale.Metrics, d.Scale.Timeline, len(specs))
	engine.RunStream(len(specs), func(i int) engine.Spec {
		spec := specs[i]
		spec.Options = ri.Cell(i, spec.Options)
		reducers[i] = experiments.NewCellReducerFor(spec)
		spec.Options.ExtraSinks = append(spec.Options.ExtraSinks, reducers[i])
		return spec
	}, ri.Wrap(engine.Options{
		Parallelism: d.Scale.Parallelism,
		OnResult: func(i int, cell *core.CellResult) {
			results = append(results, *cell)
			if i%cells != cells-1 {
				return
			}
			first := i + 1 - cells
			suite := &experiments.Suite{Scale: d.Scale, R2011: reducers[first],
				R2019: reducers[first+1 : i+1], Stats: results}
			point := i / cells
			res.Variants[point%len(variants)].PerSeed[point/len(variants)] = suite.Pool().Values()
			clear(reducers[first : i+1])
			results = nil
		},
	}))

	for vi := range res.Variants {
		vs := &res.Variants[vi]
		vs.Stats = make([]stats.CrossRun, len(res.Metrics))
		for m := range res.Metrics {
			vs.Stats[m] = stats.SummarizeRuns(vs.column(m))
		}
	}

	// Paired differences against the baseline anchor: replicate r of every
	// variant shares seeds (see the grid contract), so the per-replicate
	// difference cancels common noise and its paired-t CI is the right
	// comparison interval.
	for i, v := range variants {
		if v.Name == "baseline" {
			res.Baseline = i
			break
		}
	}
	anchor := &res.Variants[res.Baseline]
	for vi := range res.Variants {
		if vi == res.Baseline {
			continue
		}
		vs := &res.Variants[vi]
		vs.Diffs = make([]stats.CrossRun, len(res.Metrics))
		vs.UnpairedCI95 = make([]float64, len(res.Metrics))
		for m := range res.Metrics {
			xs, ys := anchor.column(m), vs.column(m)
			diff, err := stats.PairedDiff(xs, ys)
			if err != nil {
				return nil, err
			}
			vs.Diffs[m] = diff
			vs.UnpairedCI95[m] = stats.UnpairedDiffCI95(xs, ys)
		}
	}
	return res, nil
}
