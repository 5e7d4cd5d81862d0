package streaming

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fixture runs one cell with both a streaming reducer attached to the
// live sink pipeline and full MemTrace retention, so every reducer
// product can be compared against the post-hoc path on the exact same
// rows.
type fixture struct {
	tr  *trace.MemTrace
	red *CellReducer
	at  sim.Time
}

var (
	fixOnce          sync.Once
	fix2019, fix2011 *fixture
)

func runFixture(p *workload.CellProfile, horizon sim.Time, seed uint64) *fixture {
	at := horizon / 2
	red := NewCellReducer(Config{
		Meta: trace.Meta{
			Era: p.Era, Cell: p.Name, Duration: horizon,
			Machines: p.Machines, Seed: seed,
		},
		SnapshotAt: at,
	})
	res := core.Run(p, core.Options{
		Horizon:    horizon,
		Seed:       seed,
		ExtraSinks: []trace.Sink{red},
	})
	return &fixture{tr: res.Trace, red: red, at: at}
}

func fixtures(t *testing.T) (*fixture, *fixture) {
	t.Helper()
	fixOnce.Do(func() {
		fix2019 = runFixture(workload.Profile2019("a", 120), 10*sim.Hour, 42)
		fix2011 = runFixture(workload.Profile2011(120), 10*sim.Hour, 43)
	})
	return fix2019, fix2011
}

// diff asserts got == want via reflect.DeepEqual with a labelled failure.
func diff(t *testing.T, label string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: streaming reducer diverges from post-hoc analysis\n got: %+v\nwant: %+v", label, got, want)
	}
}

func TestReducerMatchesPostHoc(t *testing.T) {
	f19, f11 := fixtures(t)
	for _, f := range []*fixture{f19, f11} {
		cell := f.tr.Meta.Cell
		diff(t, cell+" shapes", f.red.MachineShapes(), analysis.MachineShapes(f.tr))
		diff(t, cell+" usage series", f.red.UsageSeries(), analysis.UsageSeries(f.tr))
		diff(t, cell+" allocation series", f.red.AllocationSeries(), analysis.AllocationSeries(f.tr))
		diff(t, cell+" tier averages", f.red.AverageUsageByTier(2*sim.Hour),
			analysis.AverageUsageByTier(f.tr, 2*sim.Hour))
		cpu, mem := f.red.MachineUtilization()
		wantCPU, wantMem := analysis.MachineUtilization(f.tr, f.at)
		diff(t, cell+" utilization cpu", cpu, wantCPU)
		diff(t, cell+" utilization mem", mem, wantMem)
		diff(t, cell+" transitions", f.red.Transitions(), analysis.Transitions(f.tr))
		diff(t, cell+" inventory", f.red.Inventory(), analysis.InventoryOf(f.tr))
		diff(t, cell+" allocset accum", f.red.AllocSetAccum(), analysis.AllocSetAccumOf(f.tr))
		diff(t, cell+" termination accum", f.red.TerminationAccum(), analysis.TerminationAccumOf(f.tr))
		diff(t, cell+" rates", f.red.Rates(), analysis.RatesOf(f.tr))
		diff(t, cell+" delays", f.red.Delays(), analysis.DelaysOf(f.tr))
		diff(t, cell+" tasks per job", f.red.TasksPerJob(), analysis.TasksPerJobOf(f.tr))
		diff(t, cell+" integrals", f.red.UsageIntegrals(), analysis.JobUsageIntegralsOf(f.tr))
		diff(t, cell+" slack", f.red.SlackSamples(), analysis.SlackSamplesOf(f.tr))
	}
}

// TestReplayMatchesLive pins the ordering contract: replaying a retained
// trace table-by-table through a fresh reducer yields the same state as
// consuming the live interleaved stream.
func TestReplayMatchesLive(t *testing.T) {
	f19, _ := fixtures(t)
	replayed := Replay(f19.tr, Config{Meta: f19.tr.Meta, SnapshotAt: f19.at})
	diff(t, "usage series", replayed.UsageSeries(), f19.red.UsageSeries())
	diff(t, "transitions", replayed.Transitions(), f19.red.Transitions())
	diff(t, "rates", replayed.Rates(), f19.red.Rates())
	diff(t, "integrals", replayed.UsageIntegrals(), f19.red.UsageIntegrals())
	diff(t, "allocset accum", replayed.AllocSetAccum(), f19.red.AllocSetAccum())
	cpu, mem := replayed.MachineUtilization()
	liveCPU, liveMem := f19.red.MachineUtilization()
	diff(t, "utilization cpu", cpu, liveCPU)
	diff(t, "utilization mem", mem, liveMem)
}

func TestRowAfterFinalizePanics(t *testing.T) {
	r := NewCellReducer(Config{Meta: trace.Meta{Duration: sim.Hour}})
	r.CollectionEvent(trace.CollectionEvent{Collection: 1, Type: trace.EventSubmit})
	_ = r.Transitions() // finalizes
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on row after finalize")
		}
	}()
	r.CollectionEvent(trace.CollectionEvent{Collection: 1, Type: trace.EventFinish})
}

func TestReducerStateIsBounded(t *testing.T) {
	f19, _ := fixtures(t)
	// The reducer must have dropped the usage table: its state tracks
	// collections and instances, not rows.
	if len(f19.red.colls) == 0 || f19.red.numInstances() == 0 {
		t.Fatalf("reducer state empty: %s", f19.red.Counts())
	}
	if rows := len(f19.tr.UsageRecords); rows <= len(f19.red.colls) {
		t.Skipf("fixture too small to demonstrate reduction (usage rows %d)", rows)
	}
}

// seededReducer returns a reducer that has seen one machine, one
// autoscaled job with n instances (submitted and scheduled), and the
// first usage batch for them, plus that batch for replaying.
func seededReducer(n int) (*CellReducer, []trace.UsageRecord) {
	r := NewCellReducer(Config{Meta: trace.Meta{Duration: 4 * sim.Hour}, SnapshotAt: sim.Hour})
	r.MachineEvent(trace.MachineEvent{Machine: 1, Type: trace.MachineAdd, Capacity: trace.Resources{CPU: 1, Mem: 1}})
	r.CollectionEvent(trace.CollectionEvent{Collection: 1, Type: trace.EventSubmit,
		CollectionType: trace.CollectionJob, Tier: trace.TierProduction, Scaling: trace.ScalingFull})
	r.CollectionEvent(trace.CollectionEvent{Time: sim.Second, Collection: 1, Type: trace.EventEnable,
		CollectionType: trace.CollectionJob, Tier: trace.TierProduction, Scaling: trace.ScalingFull})
	recs := make([]trace.UsageRecord, n)
	for i := range recs {
		key := trace.InstanceKey{Collection: 1, Index: int32(i)}
		r.InstanceEvent(trace.InstanceEvent{Key: key, Type: trace.EventSubmit})
		r.InstanceEvent(trace.InstanceEvent{Time: sim.Minute, Key: key, Type: trace.EventSchedule, Machine: 1})
		recs[i] = trace.UsageRecord{
			Start: sim.Hour - sim.SampleWindow/2, End: sim.Hour + sim.SampleWindow/2,
			Key: key, Machine: 1, Tier: trace.TierProduction,
			AvgUsage: trace.Resources{CPU: 0.01, Mem: 0.02},
			MaxUsage: trace.Resources{CPU: 0.02, Mem: 0.02},
			Limit:    trace.Resources{CPU: 0.05, Mem: 0.05},
		}
	}
	r.UsageBatch(recs)
	return r, recs
}

// TestReducerSteadyStateZeroAllocs pins the package doc's promise that
// per-row work is allocation-free in steady state: instance events and a
// usage batch for instances already seen allocate nothing. The one
// exception is the per-row slack vector, which grows with every usage
// row by design; the test reserves its capacity so only the reducer's
// own state is measured.
func TestReducerSteadyStateZeroAllocs(t *testing.T) {
	const n = 32
	r, recs := seededReducer(n)
	const runs = 100
	r.slack[trace.ScalingFull] = make([]float64, 0, (runs+2)*n)
	now := sim.Hour
	row := func() {
		for i := int32(0); i < n; i++ {
			key := trace.InstanceKey{Collection: 1, Index: i}
			r.InstanceEvent(trace.InstanceEvent{Time: now, Key: key, Type: trace.EventUpdateRunning})
			r.InstanceEvent(trace.InstanceEvent{Time: now, Key: key, Type: trace.EventEvict})
			r.InstanceEvent(trace.InstanceEvent{Time: now, Key: key, Type: trace.EventSubmit})
			r.InstanceEvent(trace.InstanceEvent{Time: now, Key: key, Type: trace.EventSchedule})
		}
		r.UsageBatch(recs)
	}
	if avg := testing.AllocsPerRun(runs, row); avg != 0 {
		t.Fatalf("steady-state reducer rows: %.2f allocs per round, want 0", avg)
	}
	if got := r.numInstances(); got != n {
		t.Fatalf("instances %d, want %d", got, n)
	}
}

// TestReducerHostileIndexBoundedHeap: an instance index far beyond the
// instances seen (or negative) must not size the collection's instance
// table, yet still be tracked as a distinct instance.
func TestReducerHostileIndexBoundedHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, _ := seededReducer(4)
	for _, idx := range []int32{math.MaxInt32, -1, math.MaxInt32, math.MaxInt32 - 1} {
		r.InstanceEvent(trace.InstanceEvent{Key: trace.InstanceKey{Collection: 1, Index: idx}, Type: trace.EventSubmit})
	}
	_ = r.Transitions() // finalize
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("hostile index allocated %d bytes", grew)
	}
	if got := r.numInstances(); got != 4+3 {
		t.Fatalf("instances %d, want 7", got)
	}
	var resubmits int
	for _, tr := range r.Transitions() {
		if tr.From == "SUBMIT" && tr.To == "SUBMIT" {
			resubmits = tr.Count
		}
	}
	if resubmits != 1 {
		t.Fatalf("SUBMIT->SUBMIT %d, want 1 (the repeated MaxInt32 index)", resubmits)
	}
}
