package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/analysis/streaming"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRunCellsDeliversGroupsInOrder: at parallelism 1 and 4, RunCells
// hands every group to done exactly once, in index order, with size
// distinct reducers and results belonging to the group's own cells.
func TestRunCellsDeliversGroupsInOrder(t *testing.T) {
	const n, size = 6, 2
	cells := workload.Cells2019()
	for _, par := range []int{1, 4} {
		seen := map[*streaming.CellReducer]bool{}
		var groups []int
		// done runs on an engine worker, so it reports with Errorf:
		// Fatalf there would stop the worker, not the test.
		RunCells(n, size, func(i int) engine.Spec {
			p := workload.Profile2019(cells[i%len(cells)], 10)
			return engine.NewSpec(i, p, core.Options{Horizon: sim.Hour}, 5)
		}, core.RunKnobs{}, par, func(g int, rs []*streaming.CellReducer, results []core.CellResult) {
			groups = append(groups, g)
			if len(rs) != size || len(results) != size {
				t.Errorf("parallel %d group %d: %d reducers, %d results, want %d", par, g, len(rs), len(results), size)
				return
			}
			for k, r := range rs {
				want := cells[(g*size+k)%len(cells)]
				switch {
				case r == nil || seen[r]:
					t.Errorf("parallel %d group %d: reducer %d is nil or repeated", par, g, k)
				case r.Meta().Cell != want || results[k].Profile.Name != want:
					t.Errorf("parallel %d group %d slot %d: reducer of cell %q, result of %q, want %q",
						par, g, k, r.Meta().Cell, results[k].Profile.Name, want)
				case results[k].Rows.Total() == 0:
					t.Errorf("parallel %d group %d slot %d: cell emitted no rows", par, g, k)
				}
				seen[r] = true
			}
		})
		if fmt.Sprint(groups) != "[0 1 2]" {
			t.Fatalf("parallel %d: groups delivered %v, want [0 1 2]", par, groups)
		}
	}
}

// TestRunCellsRejectsRaggedGroups: a cell count that is not a multiple
// of the group size, or a size below 1, panics before any cell runs.
func TestRunCellsRejectsRaggedGroups(t *testing.T) {
	for _, tc := range []struct{ n, size int }{{7, 3}, {1, 2}, {4, 0}, {4, -2}} {
		built := false
		func() {
			defer func() {
				if recover() == nil || built {
					t.Errorf("RunCells(%d, %d): no panic, or one after building a spec", tc.n, tc.size)
				}
			}()
			RunCells(tc.n, tc.size, func(int) engine.Spec {
				built = true
				return engine.Spec{}
			}, core.RunKnobs{}, 1, func(int, []*streaming.CellReducer, []core.CellResult) {})
		}()
	}
}

// benchWiredSuite runs the suite the way the benchmark harness's traced
// suite (bench/workloads.go, tracedStreamingSuite) wires it, less the
// timing sink it puts in front of each reducer: reducers through
// engine.AttachSinks, NoMemTrace set, RunInstruments.Apply and a
// materialized engine.Run.
func benchWiredSuite(sc Scale) *Suite {
	specs := SuiteSpecs(sc)
	reducers := make([]*streaming.CellReducer, len(specs))
	engine.AttachSinks(specs, func(i int) trace.Sink {
		reducers[i] = NewCellReducerFor(specs[i])
		return reducers[i]
	})
	for i := range specs {
		specs[i].Options.NoMemTrace = true
	}
	ri := engine.NewRunInstruments(sc.Metrics, sc.Timeline, len(specs))
	ri.Apply(specs)
	results := engine.Run(specs, ri.Wrap(engine.Options{Parallelism: sc.Parallelism}))
	s := &Suite{Scale: sc, R2011: reducers[0], R2019: reducers[1:]}
	for _, r := range results {
		s.Stats = append(s.Stats, *r)
	}
	return s
}

// TestBenchWiringMatchesRunSuiteStreaming: the benchmark's own wiring and
// RunSuiteStreaming, which runs through RunCells, render byte-identical
// reports at parallelism 1 and 3, so the benchmark's traced run measures
// the product path.
func TestBenchWiringMatchesRunSuiteStreaming(t *testing.T) {
	for _, par := range []int{1, 3} {
		sc := streamScale()
		sc.Parallelism = par
		sc.Metrics, sc.Timeline = metrics.NewRegistry(), metrics.NewTimeline()
		var bench, product bytes.Buffer
		if err := benchWiredSuite(sc).WriteReport(&bench); err != nil {
			t.Fatal(err)
		}
		s, err := RunSuiteStreaming(sc, StreamingOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteReport(&product); err != nil {
			t.Fatal(err)
		}
		if bench.Len() == 0 || !bytes.Equal(bench.Bytes(), product.Bytes()) {
			t.Fatalf("parallel %d: bench wiring's report (%d bytes) differs from RunSuiteStreaming's (%d bytes)",
				par, bench.Len(), product.Len())
		}
	}
}
