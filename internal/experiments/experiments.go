// Package experiments regenerates every table and figure of the paper's
// evaluation from freshly simulated traces: Table 1, Figures 1–14 and
// Table 2, plus the §5.1 and §5.2 statistics. It is the engine behind
// cmd/borgexperiments and the repository's benchmark suite.
//
// Both run functions attach one streaming.CellReducer per cell, and the
// report renders from those reducers alone. RunSuiteStreaming folds every
// row online and keeps none, so memory stays bounded by the number of
// jobs rather than the number of trace rows; RunSuite also attaches one
// trace.MemTrace per cell and returns them in Suite.Traces, for callers
// that read the rows. Both give byte-identical reports for the same scale
// and seed.
package experiments

import (
	"fmt"
	"path/filepath"

	"repro/internal/analysis/streaming"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scale sets the simulated size of the reproduction. The paper's cells
// have 12,000 machines for a month; everything here is calibrated to scale
// linearly, and rates are reported both raw and normalized back to paper
// scale.
type Scale struct {
	Name         string
	Machines2011 int
	Machines2019 int // per cell, 8 cells
	Horizon      sim.Time
	Warmup       sim.Time // excluded from time-averaged figures
	Seed         uint64
	// Parallelism bounds how many cells simulate concurrently (engine
	// worker pool); <= 0 means GOMAXPROCS. Output is identical at every
	// setting — per-cell seeds derive from Seed via engine.DeriveSeed.
	Parallelism int
	// RunKnobs carries the shared per-run knobs. Policy and Arrival,
	// parsed, override every cell profile's placement policy / arrival
	// process (nil keeps each profile's own; SuiteProfiles applies
	// them). Metrics/Timeline, when non-nil, receive the suite's
	// instrument rollup and run timeline (each cell gets a private
	// registry, merged in spec order — see engine.RunInstruments); they
	// never change the report or trace bytes.
	core.RunKnobs
	// RecordWorkload captures every cell's arrival/job stream into its
	// CellResult.Workload (see SaveWorkloads for persisting a suite's
	// recordings).
	RecordWorkload bool
	// Replay holds per-cell recordings, index-aligned with SuiteSpecs
	// (0 = the 2011 cell, then 2019 a–h): a non-nil entry replays that
	// recording instead of generating cell i's workload. LoadWorkloads
	// rebuilds this slice from a recorded directory.
	Replay []*workload.Recording
}

// SmallScale is quick enough for tests and benchmarks.
func SmallScale() Scale {
	return Scale{Name: "small", Machines2011: 120, Machines2019: 100,
		Horizon: 12 * sim.Hour, Warmup: 4 * sim.Hour, Seed: 1}
}

// DefaultScale is borgexperiments' default scale, the one the
// benchmark's suite workloads run.
func DefaultScale() Scale {
	return Scale{Name: "default", Machines2011: 300, Machines2019: 250,
		Horizon: 24 * sim.Hour, Warmup: 8 * sim.Hour, Seed: 1}
}

// LargeScale stresses the simulator further (slower, closer asymptotics).
func LargeScale() Scale {
	return Scale{Name: "large", Machines2011: 600, Machines2019: 400,
		Horizon: 48 * sim.Hour, Warmup: 16 * sim.Hour, Seed: 1}
}

// ScaleByName returns the scale a -scale flag names: small, default or
// large.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "small":
		return SmallScale(), nil
	case "default":
		return DefaultScale(), nil
	case "large":
		return LargeScale(), nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q", name)
}

// SuiteProfiles builds the suite's nine cell profiles — the 2011 cell at
// index 0, then the 2019 cells a–h. Every call constructs fresh profile
// values, so callers (parameter-sweep variants in particular) may mutate
// them freely without affecting other runs.
func SuiteProfiles(sc Scale) []*workload.CellProfile {
	profiles := make([]*workload.CellProfile, 0, 9)
	profiles = append(profiles, workload.Profile2011(sc.Machines2011))
	for _, cell := range workload.Cells2019() {
		profiles = append(profiles, workload.Profile2019(cell, sc.Machines2019))
	}
	for _, p := range profiles {
		sc.RunKnobs.Apply(p)
	}
	return profiles
}

// SuiteSpecs builds the suite's nine cell specs — the 2011 cell at index
// 0, then the eight 2019 cells a–h — with seeds and ID spaces assigned
// per the engine contracts.
func SuiteSpecs(sc Scale) []engine.Spec {
	// Policy and Arrival act at the profile level (SuiteProfiles), and
	// Metrics/Timeline are applied per cell by engine.RunInstruments in the
	// run functions, so no knob rides the per-cell options.
	// TimelineWarmup is inert until a timeline is attached.
	base := core.Options{Horizon: sc.Horizon, RecordWorkload: sc.RecordWorkload,
		TimelineWarmup: sc.Warmup}
	profiles := SuiteProfiles(sc)
	specs := make([]engine.Spec, 0, len(profiles))
	for i, p := range profiles {
		spec := engine.NewSpec(i, p, base, sc.Seed)
		if i < len(sc.Replay) {
			spec.Options.Replay = sc.Replay[i]
		}
		specs = append(specs, spec)
	}
	return specs
}

// Suite is one simulated run of the nine cells: one streaming reducer per
// cell, from which every figure renders, and each cell's CellResult.
type Suite struct {
	Scale Scale
	R2011 *streaming.CellReducer
	R2019 []*streaming.CellReducer // cells a–h in order
	Stats []core.CellResult        // index 0 is the 2011 cell
	// Traces holds every cell's rows, index-aligned with Stats, after
	// RunSuite; it is nil after RunSuiteStreaming.
	Traces []*trace.MemTrace
}

// StreamingSuite is Suite's former name. It is kept only because the
// benchmark harness under bench/, which is frozen, names it in a struct
// literal.
type StreamingSuite = Suite

// StreamingOptions configures a RunSuiteStreaming run.
type StreamingOptions struct {
	// ExportDir, when non-empty, additionally writes each cell's trace as
	// sharded CSV while simulating: one subdirectory per cell (named
	// cell-<index>-<name>), each in the trace.DirSink layout.
	ExportDir string
}

// NewCellReducerFor builds the streaming reducer matching one cell spec,
// with the metadata core.TraceMeta gives that cell.
func NewCellReducerFor(spec engine.Spec) *streaming.CellReducer {
	return streaming.NewCellReducer(core.TraceMeta(spec.Profile, spec.Options))
}

// ShardDirName names cell i's export shard (index 0 is the 2011 cell).
func ShardDirName(i int, cell string) string {
	return fmt.Sprintf("cell-%d-%s", i, cell)
}

// RunSuite simulates the 2011 cell and the eight 2019 cells, sc.Parallelism
// cells at a time, folding every row through the cells' reducers and also
// keeping each cell's rows in Traces[i].
func RunSuite(sc Scale) *Suite {
	s, err := runSuite(sc, true, StreamingOptions{})
	if err != nil {
		// Only an export shard can fail, and this run writes none.
		panic(err)
	}
	return s
}

// RunSuiteStreaming is RunSuite without the kept rows: every trace row
// streams through the per-cell reducer (and optional CSV export shard)
// and is dropped, so memory stays bounded by per-job reducer state
// instead of growing with the horizon.
func RunSuiteStreaming(sc Scale, opts StreamingOptions) (*Suite, error) {
	return runSuite(sc, false, opts)
}

// runSuite is the body of RunSuite and RunSuiteStreaming; retain attaches
// a MemTrace to every cell.
func runSuite(sc Scale, retain bool, opts StreamingOptions) (*Suite, error) {
	specs := SuiteSpecs(sc)
	reducers := make([]*streaming.CellReducer, len(specs))
	engine.AttachSinks(specs, func(i int) trace.Sink {
		reducers[i] = NewCellReducerFor(specs[i])
		return reducers[i]
	})
	s := &Suite{Scale: sc, R2011: reducers[0], R2019: reducers[1:]}
	if retain {
		s.Traces = make([]*trace.MemTrace, len(specs))
		engine.AttachSinks(specs, func(i int) trace.Sink {
			s.Traces[i] = trace.NewMemTrace(reducers[i].Meta())
			return s.Traces[i]
		})
	}
	var exports []*trace.DirSink
	for i := range specs {
		if opts.ExportDir != "" {
			shard := filepath.Join(opts.ExportDir, ShardDirName(i, specs[i].Profile.Name))
			ds, err := trace.NewDirSink(shard, reducers[i].Meta())
			if err != nil {
				closeExports(exports)
				return nil, err
			}
			exports = append(exports, ds)
			specs[i].Options.ExtraSinks = append(specs[i].Options.ExtraSinks, ds)
		}
	}

	ri := engine.NewRunInstruments(sc.Metrics, sc.Timeline, len(specs))
	ri.Apply(specs)
	results := engine.Run(specs, ri.Wrap(engine.Options{Parallelism: sc.Parallelism}))
	for _, r := range results {
		s.Stats = append(s.Stats, *r)
	}
	for _, ds := range exports {
		if err := ds.Close(); err != nil {
			closeExports(exports)
			return nil, err
		}
	}
	return s, nil
}

func closeExports(exports []*trace.DirSink) {
	for _, ds := range exports {
		ds.Close()
	}
}
