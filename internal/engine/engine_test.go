package engine

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/workload"
)

// testSpecs builds a small three-cell run.
func testSpecs(root uint64) []Spec {
	base := core.Options{Horizon: 2 * sim.Hour}
	return []Spec{
		NewSpec(0, workload.Profile2019("a", 40), base, root),
		NewSpec(1, workload.Profile2019("b", 40), base, root),
		NewSpec(2, workload.Profile2011(50), base, root),
	}
}

// retain attaches a fresh MemTrace to every spec and returns them,
// index-aligned with specs.
func retain(specs []Spec) []*trace.MemTrace {
	traces := make([]*trace.MemTrace, len(specs))
	AttachSinks(specs, func(i int) trace.Sink {
		traces[i] = trace.NewMemTrace(core.TraceMeta(specs[i].Profile, specs[i].Options))
		return traces[i]
	})
	return traces
}

// sameTrace compares every row of two traces.
func sameTrace(t *testing.T, cell string, a, b *trace.MemTrace) {
	t.Helper()
	if d := tracetest.Diff(a, b); d != "" {
		t.Fatalf("cell %s: %s", cell, d)
	}
}

func TestParallelismDoesNotChangeTraces(t *testing.T) {
	specs := testSpecs(7)
	serialTraces := retain(specs)
	serial := Run(specs, Options{Parallelism: 1})
	for _, par := range []int{2, 8} {
		specs := testSpecs(7)
		parallelTraces := retain(specs)
		parallel := Run(specs, Options{Parallelism: par})
		if len(parallel) != len(serial) {
			t.Fatalf("result count %d", len(parallel))
		}
		for i := range serial {
			sameTrace(t, serial[i].Profile.Name, serialTraces[i], parallelTraces[i])
			if serial[i].Rows != parallel[i].Rows {
				t.Fatalf("cell %d row counts differ", i)
			}
		}
	}
}

func TestOnResultStreamsInSpecOrder(t *testing.T) {
	var order []int
	Run(testSpecs(3), Options{
		Parallelism: 8,
		OnResult: func(i int, res *core.CellResult) {
			order = append(order, i)
			if res == nil || res.Rows.Total() == 0 {
				t.Errorf("empty result at %d", i)
			}
		},
	})
	if len(order) != 3 {
		t.Fatalf("callbacks: %v", order)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("out-of-order delivery: %v", order)
		}
	}
}

func TestDeriveSeedStableAndDistinct(t *testing.T) {
	// The contract is stability: these values must never change, or every
	// regenerated trace silently shifts.
	if got := DeriveSeed(1, 0); got != DeriveSeed(1, 0) {
		t.Fatal("unstable")
	}
	seen := map[uint64]int{}
	for root := uint64(0); root < 8; root++ {
		for cell := 0; cell < 64; cell++ {
			s := DeriveSeed(root, cell)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %d (%d)", s, prev)
			}
			seen[s] = cell
		}
	}
}

func TestIDBaseDisjoint(t *testing.T) {
	if IDBase(0) != 0 || IDBase(1) != 1<<32 || IDBase(9) != 9<<32 {
		t.Fatalf("IDBase values: %d %d %d", IDBase(0), IDBase(1), IDBase(9))
	}
}

func TestEmptyRun(t *testing.T) {
	if res := Run(nil, Options{}); len(res) != 0 {
		t.Fatalf("got %v", res)
	}
}

// TestAttachSinksPerCell pins the per-cell sink idiom: AttachSinks gives
// every spec its own sink (no lock needed), nil sinks are skipped,
// and counts per cell match the engine's row accounting at full
// parallelism — the configuration the race detector exercises in CI.
func TestAttachSinksPerCell(t *testing.T) {
	specs := testSpecs(9)
	counters := make([]*trace.CountingSink, len(specs))
	AttachSinks(specs, func(i int) trace.Sink {
		if i == 1 {
			return nil // spec 1 keeps its pipeline unchanged
		}
		counters[i] = &trace.CountingSink{}
		return counters[i]
	})
	results := Run(specs, Options{Parallelism: len(specs)})
	for i, res := range results {
		if i == 1 {
			if counters[i] != nil {
				t.Fatal("nil sink was attached")
			}
			continue
		}
		if counters[i].Counts() != res.Rows {
			t.Fatalf("cell %d: sink saw %+v, engine counted %+v", i, counters[i].Counts(), res.Rows)
		}
	}
}

// TestDeriveGridSeed pins the 2-D sweep seed contract: composition of
// DeriveSeed (so replicate roots and cell seeds follow the published
// 1-D contract), collision-freedom over a realistic grid, and — by
// construction — independence from anything but (root, run, cell).
func TestDeriveGridSeed(t *testing.T) {
	if got, want := DeriveGridSeed(7, 3, 5), DeriveSeed(DeriveSeed(7, 3), 5); got != want {
		t.Fatalf("DeriveGridSeed(7,3,5)=%d, want DeriveSeed composition %d", got, want)
	}
	seen := make(map[uint64][2]int)
	for run := 0; run < 64; run++ {
		for cell := 0; cell < 16; cell++ {
			s := DeriveGridSeed(1, run, cell)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: (%d,%d) and (%d,%d)", run, cell, prev[0], prev[1])
			}
			seen[s] = [2]int{run, cell}
		}
	}
}

// TestSlowOnResultStallsOnlyDeliveringWorker pins the delivery
// invariant behind the drain loop: while one worker is stuck inside a
// slow OnResult callback, the rest of the pool keeps simulating. The
// callback for cell 0 refuses to return until every cell has reported
// OnStart — which can only happen if the non-delivering worker kept
// draining the queue.
func TestSlowOnResultStallsOnlyDeliveringWorker(t *testing.T) {
	const n = 4
	started := make(chan int, n)
	base := core.Options{Horizon: sim.Hour}
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = NewSpec(i, workload.Profile2019("a", 20), base, 5)
	}
	var order []int
	Run(specs, Options{
		Parallelism: 2,
		OnStart:     func(i int) { started <- i },
		OnResult: func(i int, res *core.CellResult) {
			order = append(order, i)
			if i != 0 {
				return
			}
			deadline := time.After(30 * time.Second)
			for seen := 0; seen < n; {
				select {
				case <-started:
					seen++
				case <-deadline:
					t.Error("pool stalled: not every cell started while OnResult(0) was blocked")
					return
				}
			}
		},
	})
	if len(order) != n {
		t.Fatalf("delivered %d results, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("out-of-order delivery under slow consumer: %v", order)
		}
	}
}

// TestRunStreamMatchesRun checks the streaming pool against the
// materialized one: same per-cell row counts in the same order at
// parallelism 1 and 8, with every cell's OnStart firing exactly once.
func TestRunStreamMatchesRun(t *testing.T) {
	const n = 6
	base := core.Options{Horizon: sim.Hour}
	mk := func(i int) Spec { return NewSpec(i, workload.Profile2019("a", 20), base, 11) }
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = mk(i)
	}
	want := Run(specs, Options{Parallelism: 1})
	for _, par := range []int{1, 8} {
		starts := make([]int32, n)
		var order []int
		var rows []trace.RowCounts
		RunStream(n, mk, Options{
			Parallelism: par,
			OnStart:     func(i int) { atomic.AddInt32(&starts[i], 1) },
			OnResult: func(i int, res *core.CellResult) {
				order = append(order, i)
				rows = append(rows, res.Rows)
			},
		})
		if len(order) != n {
			t.Fatalf("par %d: delivered %d results, want %d", par, len(order), n)
		}
		for i := range order {
			if order[i] != i {
				t.Fatalf("par %d: out-of-order delivery %v", par, order)
			}
			if rows[i] != want[i].Rows {
				t.Fatalf("par %d: cell %d rows %+v, want %+v", par, i, rows[i], want[i].Rows)
			}
			if starts[i] != 1 {
				t.Fatalf("par %d: cell %d started %d times", par, i, starts[i])
			}
		}
	}
}

// TestDeriveSeedFleetScaleDistinct extends the seed-contract coverage to
// fleet-sized index ranges: thousands of cells per root, grid seeds
// included, all pairwise distinct — a collision would silently correlate
// two cells' worlds.
func TestDeriveSeedFleetScaleDistinct(t *testing.T) {
	seen := make(map[uint64]string, 20000)
	record := func(s uint64, what string) {
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %s and %s", what, prev)
		}
		seen[s] = what
	}
	for _, root := range []uint64{1, 42} {
		for cell := 0; cell < 4096; cell++ {
			record(DeriveSeed(root, cell), "plain")
		}
	}
	for run := 0; run < 16; run++ {
		for cell := 0; cell < 512; cell++ {
			record(DeriveGridSeed(7, run, cell), "grid")
		}
	}
}

// TestNewGridSpec checks grid specs carry the grid seed and the flat
// index's disjoint ID space.
func TestNewGridSpec(t *testing.T) {
	p := workload.Profile2019("a", 10)
	base := core.Options{Horizon: 2 * sim.Hour, DisableAutopilot: true}
	spec := NewGridSpec(2, 4, 23, p, base, 9)
	if spec.Options.Seed != DeriveGridSeed(9, 2, 4) {
		t.Fatalf("grid spec seed %d", spec.Options.Seed)
	}
	if spec.Options.IDBase != IDBase(23) {
		t.Fatalf("grid spec ID base %d", spec.Options.IDBase)
	}
	if spec.Profile != p || !spec.Options.DisableAutopilot || spec.Options.Horizon != 2*sim.Hour {
		t.Fatal("grid spec dropped base options or profile")
	}
}
