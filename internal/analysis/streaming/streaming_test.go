package streaming

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fixture runs one cell with both a streaming reducer attached to the
// live sink pipeline and full MemTrace retention, so a replayed reducer
// can be compared with the live one on the exact same rows.
type fixture struct {
	tr  *trace.MemTrace
	red *CellReducer
}

var (
	fixOnce          sync.Once
	fix2019, fix2011 *fixture
)

func runFixture(p *workload.CellProfile, horizon sim.Time, seed uint64) *fixture {
	opts := core.Options{Horizon: horizon, Seed: seed}
	fix := &fixture{tr: trace.NewMemTrace(core.TraceMeta(p, opts)), red: NewCellReducer(core.TraceMeta(p, opts))}
	opts.ExtraSinks = []trace.Sink{fix.red, fix.tr}
	core.Run(p, opts)
	return fix
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
		t.Errorf("%s: replayed reducer diverges from the live one\n got: %+v\nwant: %+v", label, got, want)
	}
}

// products names every reducer product, each as one printable value.
func products(r *CellReducer) map[string]any {
	cpu, mem := r.MachineUtilization()
	return map[string]any{
		"shapes":             r.MachineShapes(),
		"usage series":       r.UsageSeries(),
		"allocation series":  r.AllocationSeries(),
		"usage by tier":      r.AverageUsageByTier(2 * sim.Hour),
		"allocation by tier": r.AverageAllocationByTier(2 * sim.Hour),
		"utilization cpu":    cpu,
		"utilization mem":    mem,
		"transitions":        r.Transitions(),
		"inventory":          r.Inventory(),
		"allocset accum":     r.AllocSetAccum(),
		"termination accum":  r.TerminationAccum(),
		"rates":              r.Rates(),
		"delays":             r.Delays(),
		"tasks per job":      r.TasksPerJob(),
		"integrals":          r.UsageIntegrals(),
		"slack":              slackByMode(r),
	}
}

// slackByMode concatenates each strategy's slack chunks, keyed like the
// per-strategy sample map the pinned hashes were taken from (strategies
// with samples only).
func slackByMode(r *CellReducer) map[trace.VerticalScaling][]float64 {
	out := make(map[trace.VerticalScaling][]float64)
	for mode := range trace.VerticalScaling(numScalingModes) {
		if parts := r.SlackSamples(mode); len(parts) > 0 {
			out[mode] = slices.Concat(parts...)
		}
	}
	return out
}

// TestReducerMatchesPostHoc pins every reducer product on both fixtures
// to the SHA-256 of fmt.Sprint of the answer an independent post-hoc
// implementation computed over the retained trace. fmt prints floats
// exactly and sorts map keys, so a hash match is bit-level agreement.
func TestReducerMatchesPostHoc(t *testing.T) {
	pinned := []struct{ cell, product, sha256 string }{
		{"a", "shapes", "54cc5740e18b37984a39a19014727f89e7f938062b69cf84ae4a2d758424ada0"},
		{"a", "usage series", "981aff7f6b87647c954945c6af50652558613de31cf73ef8da8adf1bc8a86d99"},
		{"a", "allocation series", "cb8dcabe5b6ef5f7e2ed212b31bed0e44d7a2048cde958ec73f4502588d67da1"},
		{"a", "usage by tier", "384f7b853b24a4e57f9d446387d10d1703f833cbe736cc0092fb8f724fb4a419"},
		{"a", "allocation by tier", "cb9a51cd7b732ecf9621f98d386401ffb5534d4158d36de87db377edc4884c09"},
		{"a", "utilization cpu", "342832d61b5c386cfcdef9507a81a1d7874fe5eaa2f93d6747d449f97eb4e385"},
		{"a", "utilization mem", "63b2c9bde98a8ae59672eb80a551e8d2697f4375880b8629078bf1e8353befa0"},
		{"a", "transitions", "5455e92116d72568f944e31bced4739b0a476a87670dcfda3e9f3542107d9a91"},
		{"a", "inventory", "e5bef7c4b03ec260f19fb6b151e8ac6becb4a11089b600253f2d4ac937ede781"},
		{"a", "allocset accum", "3fb02363975c60eb7e714c848178f1953de325c19c8b200bfc38b2f6ea53e5c0"},
		{"a", "termination accum", "57c0a04ac1087f530a5f666915364a23ba4f64194f61406d2e79f6a735f72b99"},
		{"a", "rates", "3c7a625821322b9801ca7c533f06dcb3f5df097b582ef92748f7a858c76e2390"},
		{"a", "delays", "8a0344089185eb74c79d168169ac3bbb8cc8ab96811a1a8f53f79225c6e22d12"},
		{"a", "tasks per job", "1da0c27a3f33c59f563dd270b6cd19730cdbbbe3b005e8d618b49e0ea7da3e62"},
		{"a", "integrals", "cf18c235658bc20ba7bb4744cbe1609afcc11275467091e22ce8434d857b9a3f"},
		{"a", "slack", "45dea7a76a1b4c5a7b89f9951a2529e932474ec8ee6d03b2ac0662f99fe9ee8d"},
		{"2011", "shapes", "888f6b3d44ba7549f053615c13ee0d0483f6908fbac80d9c2d5327f86667d955"},
		{"2011", "usage series", "79d3ba3d8b2e7bbdbf969751ed28188bad93252e8529edd5f7c0460fcfee7b68"},
		{"2011", "allocation series", "e0bbfc5dd13c266619fc113326cddff7c8e8cc124087f63079549d8a8ac3ddd4"},
		{"2011", "usage by tier", "003e5f74f329c449ea7fba3c24fad71f2c56f28eb6e64ed6224add9d36efca44"},
		{"2011", "allocation by tier", "0689be5040e3868fc8a99767c898409282c11590a09a504b714876965166485d"},
		{"2011", "utilization cpu", "7eed4f7ea97d55f75e2505ccceb5c27e87c2d4fc1a50205e041e6063288592d0"},
		{"2011", "utilization mem", "674a8c454293eb9dddf334e85b13a0d7ffbca1bcecafd4ce7d7604c100326144"},
		{"2011", "transitions", "5a556076ecfdf47288c1531e55711c982b0f43c6e03eb605b9cd7affb679fbaf"},
		{"2011", "inventory", "599356da606ed0c37494e8c0359851fc638a001c9daec4cf6c26644c97dc48f4"},
		{"2011", "allocset accum", "45ca0ca42cd2105891cd8046153ec97f1c70ce588825be7db599f8fd358c5a7d"},
		{"2011", "termination accum", "e9b7a7ee672f3d10af7807db3410e016ab53840752b20edd9943966e2ddb8298"},
		{"2011", "rates", "094cf1b5a25ea8b1af97d4ad2ca7b1d07326da35e22bd68807050f0194cef429"},
		{"2011", "delays", "41318b541f5e2299fc7b79c8122f63439407e6c29b84cb55b11abd52eabfd37c"},
		{"2011", "tasks per job", "ff794762400e426129b45eafbd8ff4a14eb01788426a4d07fc3b0212ee8ea7df"},
		{"2011", "integrals", "9813c49d98a871368f7aada65b285984b5c5f03395112ae3bfd23448d26b61a2"},
		{"2011", "slack", "760b9ee43f6d9ec9184d0ce8306cf283abade1e74494cc1e6dc148a1681570c4"},
	}
	f19, f11 := fixtures(t)
	got := map[string]map[string]any{"a": products(f19.red), "2011": products(f11.red)}
	if n := len(got["a"]) + len(got["2011"]); n != len(pinned) {
		t.Fatalf("%d products, %d pinned: pin every product", n, len(pinned))
	}
	for _, p := range pinned {
		v, ok := got[p.cell][p.product]
		if !ok {
			t.Errorf("cell %s: no product %q", p.cell, p.product)
			continue
		}
		if h := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(v)))); h != p.sha256 {
			t.Errorf("cell %s %s: sha256 %s, want %s", p.cell, p.product, h, p.sha256)
		}
	}
}

// TestReducerDropsRemovedMachines: a REMOVE takes a machine out of the
// capacity snapshot every machine product is computed from.
func TestReducerDropsRemovedMachines(t *testing.T) {
	r := NewCellReducer(trace.Meta{Duration: sim.Hour})
	one := trace.Resources{CPU: 1, Mem: 1}
	r.MachineEvent(trace.MachineEvent{Machine: 1, Type: trace.MachineAdd, Capacity: one})
	r.MachineEvent(trace.MachineEvent{Machine: 2, Type: trace.MachineAdd, Capacity: one})
	r.MachineEvent(trace.MachineEvent{Time: 500, Machine: 2, Type: trace.MachineRemove})
	if n := r.Inventory().Machines; n != 1 {
		t.Fatalf("machines after remove %d, want 1", n)
	}
	if cpu, _ := r.MachineUtilization(); len(cpu) != 1 {
		t.Fatalf("utilization samples %d, want 1", len(cpu))
	}
}

// TestReplayMatchesLive pins the ordering contract: replaying a retained
// trace table-by-table through a fresh reducer yields the same state as
// consuming the live interleaved stream.
func TestReplayMatchesLive(t *testing.T) {
	f19, _ := fixtures(t)
	replayed := Replay(f19.tr)
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

// TestReducerProductsInvariantUnderRelabeling pins a metamorphic
// relation: collection IDs and cell order are labels, not inputs, so
// shifting every cell's ID base to engine.IDBase(7), or reversing the
// order of the specs passed to engine.Run, leaves every reducer product
// of every cell unchanged.
func TestReducerProductsInvariantUnderRelabeling(t *testing.T) {
	profiles := []*workload.CellProfile{workload.Profile2019("a", 120), workload.Profile2011(120)}
	run := func(order []int, idBase func(cell int) trace.CollectionID) []map[string]any {
		reducers := make([]*CellReducer, len(profiles))
		specs := make([]engine.Spec, 0, len(order))
		for _, i := range order {
			opts := core.Options{Horizon: 6 * sim.Hour, Seed: 42, IDBase: idBase(i)}
			reducers[i] = NewCellReducer(core.TraceMeta(profiles[i], opts))
			opts.ExtraSinks = []trace.Sink{reducers[i]}
			specs = append(specs, engine.Spec{Profile: profiles[i], Options: opts})
		}
		engine.Run(specs, engine.Options{Parallelism: 2})
		out := make([]map[string]any, len(reducers))
		for i, r := range reducers {
			out[i] = products(r)
		}
		return out
	}
	want := run([]int{0, 1}, engine.IDBase)
	for _, c := range []struct {
		name string
		got  []map[string]any
	}{
		{"IDBase(7)", run([]int{0, 1}, func(int) trace.CollectionID { return engine.IDBase(7) })},
		{"reversed specs", run([]int{1, 0}, engine.IDBase)},
	} {
		for i := range profiles {
			for name, w := range want[i] {
				if !reflect.DeepEqual(c.got[i][name], w) {
					t.Errorf("%s: cell %s product %q changed", c.name, profiles[i].Name, name)
				}
			}
		}
	}
}

func TestRowAfterFinalizePanics(t *testing.T) {
	r := NewCellReducer(trace.Meta{Duration: sim.Hour})
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
	if rows := f19.tr.UsageRecords.Len(); rows <= len(f19.red.colls) {
		t.Skipf("fixture too small to demonstrate reduction (usage rows %d)", rows)
	}
}

// seededReducer returns a reducer that has seen one machine, one
// autoscaled job with n instances (submitted and scheduled), and the
// first usage batch for them, plus that batch for replaying.
func seededReducer(n int) (*CellReducer, []trace.UsageRecord) {
	r := NewCellReducer(trace.Meta{Duration: 2 * sim.Hour})
	r.MachineEvent(trace.MachineEvent{Machine: 1, Type: trace.MachineAdd, Capacity: trace.Resources{CPU: 1, Mem: 1}})
	attrs := trace.CollectionAttrs{CollectionType: trace.CollectionJob, Tier: trace.TierProduction, Scaling: trace.ScalingFull}
	r.CollectionEvent(trace.CollectionEvent{Collection: 1, Type: trace.EventSubmit, CollectionAttrs: attrs})
	r.CollectionEvent(trace.CollectionEvent{Time: sim.Second, Collection: 1, Type: trace.EventEnable, CollectionAttrs: attrs})
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
// usage batch for instances already seen allocate nothing per round. The
// slack store's chunk starts are amortized over the rows that fill each
// chunk; TestReducerSlackStoredOnce bounds their bytes.
func TestReducerSteadyStateZeroAllocs(t *testing.T) {
	const n = 32
	r, recs := seededReducer(n)
	const runs = 100
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

// TestReducerSlackStoredOnce: the slack store writes each sample once.
// Feeding N job usage rows, more than one full chunk's worth, allocates
// at most N samples plus one chunk: no sample is copied by growth, and
// nothing else on the usage path allocates per row.
func TestReducerSlackStoredOnce(t *testing.T) {
	const (
		n         = 64
		rows      = 100_000            // several full slack chunks
		chunkSize = 8 * slackChunkRows // one full slack chunk of float64
	)
	r, recs := seededReducer(n)
	stored := r.slack[trace.ScalingFull].Len()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for fed := 0; fed < rows; fed += n {
		r.UsageBatch(recs)
	}
	runtime.ReadMemStats(&after)
	fed := r.slack[trace.ScalingFull].Len() - stored
	if fed < rows {
		t.Fatalf("stored %d slack samples, want %d", fed, rows)
	}
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*fed+chunkSize); grew > limit {
		t.Fatalf("%d slack samples allocated %d bytes, want at most %d", fed, grew, limit)
	}
}

// TestInstStateSize pins instState at three bytes: one exists per
// instance a cell has ever seen.
func TestInstStateSize(t *testing.T) {
	if size := unsafe.Sizeof(instState{}); size != 3 {
		t.Fatalf("instState is %d bytes, want 3", size)
	}
	for _, ev := range []trace.EventType{-1, trace.NumEventTypes, 256 + trace.EventSubmit} {
		if code := eventCode(ev); code != badEvent {
			t.Fatalf("eventCode(%d) = %d, want badEvent", ev, code)
		}
	}
	for ev := range trace.NumEventTypes {
		if code := eventCode(ev); trace.EventType(code) != ev {
			t.Fatalf("eventCode(%v) = %d", ev, code)
		}
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
