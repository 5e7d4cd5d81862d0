package scheduler

import (
	"testing"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestScoreCacheMatchesRecompute is the invalidation property test for the
// equivalence-class score cache: after every randomized cell mutation
// (place, evict, limit update, usage sample), the cached score must equal
// a from-scratch recomputation bit for bit — the cache is memoization,
// never approximation.
func TestScoreCacheMatchesRecompute(t *testing.T) {
	s, cell := benchCell(8, 6, trace.TierMid, 110,
		trace.Resources{CPU: 0.05, Mem: 0.05}, trace.Resources{CPU: 0.03, Mem: 0.03},
		defaultOC)
	tasks := []*Task{
		benchTask(trace.Resources{CPU: 0.1, Mem: 0.1}, 120, trace.TierProduction),
		benchTask(trace.Resources{CPU: 0.02, Mem: 0.04}, 0, trace.TierFree),
		benchTask(trace.Resources{CPU: 0.2, Mem: 0.05}, 110, trace.TierBestEffortBatch),
	}
	src := rng.New(5)
	ids := cell.MachineIDs()
	next := trace.CollectionID(100000)
	extra := make(map[trace.MachineID][]trace.InstanceKey)
	var hits, misses int

	for step := 0; step < 3000; step++ {
		mid := ids[src.Intn(len(ids))]
		m := cell.Machine(mid)
		switch op := src.Intn(4); {
		case op == 0: // place a new resident
			key := trace.InstanceKey{Collection: next}
			next++
			cell.Place(mid, &cluster.Resident{
				Key:   key,
				Limit: trace.Resources{CPU: src.Float64() * 0.05, Mem: src.Float64() * 0.05},
			})
			extra[mid] = append(extra[mid], key)
		case op == 1 && len(extra[mid]) > 0: // evict one again
			keys := extra[mid]
			cell.Remove(mid, keys[len(keys)-1])
			extra[mid] = keys[:len(keys)-1]
		case op == 2 && len(extra[mid]) > 0: // autopilot-style limit update
			keys := extra[mid]
			cell.UpdateLimit(mid, keys[src.Intn(len(keys))],
				trace.Resources{CPU: src.Float64() * 0.05, Mem: src.Float64() * 0.05})
		default: // usage sample on any resident
			rs := m.LiveResidents()
			if len(rs) > 0 {
				m.SetResidentUsage(rs[src.Intn(len(rs))],
					trace.Resources{CPU: src.Float64() * 0.05, Mem: src.Float64() * 0.05})
			}
		}

		// Score a random (task, machine) pair twice through the cache —
		// the second lookup is guaranteed cached — and compare both
		// against direct recomputation.
		tt := tasks[src.Intn(len(tasks))]
		vm := cell.Machine(ids[src.Intn(len(ids))])
		usage := vm.UsageTotal()
		class := s.classID(tt)
		first, firstHit := s.cachedScore(vm, tt, usage, class)
		cached, cachedHit := s.cachedScore(vm, tt, usage, class)
		if firstHit {
			hits++
		} else {
			misses++
		}
		if !cachedHit {
			t.Fatalf("step %d: immediate re-probe missed the cache", step)
		}
		want := s.cfg.Policy.score(vm, tt.Request, usage)
		if first != want || cached != want {
			t.Fatalf("step %d: cached score %v/%v, recomputed %v (machine %d gen %d)",
				step, first, cached, want, vm.ID, vm.Gen())
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("degenerate cache exercise: hits=%d misses=%d", hits, misses)
	}
}

// TestClassIDStableAndDistinct checks equivalence-class interning: same
// shape/tier/band shares an ID, any differing component splits it, and
// IDs stay monotonic across a table clear so stale cache slots can never
// alias a fresh class.
func TestClassIDStableAndDistinct(t *testing.T) {
	s, _ := benchCell(1, 0, trace.TierMid, 110,
		trace.Resources{}, trace.Resources{}, strictOC)
	base := benchTask(trace.Resources{CPU: 0.1, Mem: 0.1}, 120, trace.TierProduction)
	same := benchTask(trace.Resources{CPU: 0.1, Mem: 0.1}, 125, trace.TierProduction) // same band of ten
	if s.classID(base) != s.classID(same) {
		t.Fatal("identical class interned to different IDs")
	}
	for _, other := range []*Task{
		benchTask(trace.Resources{CPU: 0.2, Mem: 0.1}, 120, trace.TierProduction), // shape
		benchTask(trace.Resources{CPU: 0.1, Mem: 0.1}, 120, trace.TierMid),        // tier
		benchTask(trace.Resources{CPU: 0.1, Mem: 0.1}, 200, trace.TierProduction), // band
	} {
		if s.classID(other) == s.classID(base) {
			t.Fatalf("distinct class shares ID: %+v", other.Request)
		}
	}
	id := s.classID(base)
	s.clearClassIDs() // the path classID takes on hitting maxClassIDs
	if again := s.classID(base); again <= id {
		t.Fatalf("class ID not monotonic across clear: %d then %d", id, again)
	}
	if s.classID(same) != s.classID(base) {
		t.Fatal("a task cached before the clear kept its stale class ID")
	}
}

// TestClassIDFollowsRequestUpdate: a task's cached class ID must not
// outlive its request. After UpdateTaskRequest the task interns to the
// new shape's class, the one a fresh task of that shape gets.
func TestClassIDFollowsRequestUpdate(t *testing.T) {
	s, _ := benchCell(1, 0, trace.TierMid, 110,
		trace.Resources{}, trace.Resources{}, strictOC)
	task := benchTask(trace.Resources{CPU: 0.1, Mem: 0.1}, 120, trace.TierProduction)
	before := s.classID(task)
	grown := trace.Resources{CPU: 0.3, Mem: 0.1}
	s.UpdateTaskRequest(task, grown)
	after := s.classID(task)
	if after == before {
		t.Fatal("class ID unchanged after the request changed")
	}
	if fresh := s.classID(benchTask(grown, 120, trace.TierProduction)); fresh != after {
		t.Fatalf("updated task has class %d, a fresh task of its shape %d", after, fresh)
	}
	s.UpdateTaskRequest(task, trace.Resources{CPU: 0.1, Mem: 0.1})
	if back := s.classID(task); back != before {
		t.Fatalf("restored request interned to %d, want the original %d", back, before)
	}
}

// TestPlacementSteadyStateZeroAllocs is the CI allocation guard: one
// steady-state placement cycle — candidate scoring, placing the chosen
// resident, and unplacing it — must not allocate.
func TestPlacementSteadyStateZeroAllocs(t *testing.T) {
	s, cell := benchCell(64, 8, trace.TierMid, 110,
		trace.Resources{CPU: 0.03, Mem: 0.03}, trace.Resources{CPU: 0.02, Mem: 0.02},
		defaultOC)
	task := benchTask(trace.Resources{CPU: 0.1, Mem: 0.1}, 120, trace.TierProduction)
	cycle := func() {
		m := s.pickMachine(task)
		if m == nil {
			t.Fatal("no feasible machine")
		}
		cell.Place(m.ID, s.takeResident(task.Key, task.Request, task.Job.Priority, task.Job.Tier))
		s.releaseResident(cell.Remove(m.ID, task.Key))
	}
	for i := 0; i < 100; i++ {
		cycle() // warm the pool, class table, and score slots
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("steady-state placement allocates %.1f allocs/op, want 0", avg)
	}
}

// TestInstrumentedPlacementZeroAllocs repeats the steady-state guard with
// a caller-supplied metrics registry wired into the scheduler: live
// counters and the pending-queue gauge must add only atomic operations to
// the placement cycle, never allocations.
func TestInstrumentedPlacementZeroAllocs(t *testing.T) {
	reg := metrics.NewRegistry()
	cell := cluster.NewCell("bench", defaultOC)
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.Batch = false
	cfg.ServiceTime = dist.Deterministic{Value: 0.001}
	cfg.Metrics = reg
	s := New(cfg, cell, k, trace.NopSink{}, rng.New(7))
	id := trace.CollectionID(1)
	for i := 0; i < 64; i++ {
		m := cell.AddMachine(trace.Resources{CPU: 1, Mem: 1}, "P0")
		for r := 0; r < 8; r++ {
			cell.Place(m.ID, &cluster.Resident{
				Key:      trace.InstanceKey{Collection: id},
				Limit:    trace.Resources{CPU: 0.03, Mem: 0.03},
				Priority: 110,
				Tier:     trace.TierMid,
				Usage:    trace.Resources{CPU: 0.02, Mem: 0.02},
			})
			id++
		}
	}
	task := benchTask(trace.Resources{CPU: 0.1, Mem: 0.1}, 120, trace.TierProduction)
	cycle := func() {
		m := s.pickMachine(task)
		if m == nil {
			t.Fatal("no feasible machine")
		}
		cell.Place(m.ID, s.takeResident(task.Key, task.Request, task.Job.Priority, task.Job.Tier))
		s.releaseResident(cell.Remove(m.ID, task.Key))
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("instrumented placement allocates %.1f allocs/op, want 0", avg)
	}
	if reg.Counter("sched_score_cache_hits_total").Value() == 0 {
		t.Fatal("instrumented cycles recorded no score-cache hits")
	}
}

// TestPreemptionProbeZeroAllocs guards the preemption scan: probing the
// cached victim order of unpreemptable machines must not allocate.
func TestPreemptionProbeZeroAllocs(t *testing.T) {
	s, _ := benchCell(32, 20, trace.TierProduction, 120,
		trace.Resources{CPU: 0.05, Mem: 0.05}, trace.Resources{CPU: 0.03, Mem: 0.03},
		strictOC)
	task := benchTask(trace.Resources{CPU: 0.5, Mem: 0.5}, 200, trace.TierProduction)
	probe := func() {
		if m := s.tryPreemption(task); m != nil {
			t.Fatal("preemption should be impossible")
		}
	}
	for i := 0; i < 50; i++ {
		probe()
	}
	if avg := testing.AllocsPerRun(200, probe); avg != 0 {
		t.Fatalf("preemption probe allocates %.1f allocs/op, want 0", avg)
	}
}

// TestEvictMachineZeroAllocs guards machine maintenance: once warm,
// evicting a machine's non-production residents and placing them back
// allocates nothing. The walk copies the resident list into a scratch
// slice, so no eviction makes the machine copy its own list.
func TestEvictMachineZeroAllocs(t *testing.T) {
	cell := cluster.NewCell("evict", defaultOC)
	m := cell.AddMachine(trace.Resources{CPU: 1, Mem: 1}, "P0")
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.Batch = false
	cfg.ServiceTime = dist.Deterministic{Value: 0.001}
	s := New(cfg, cell, k, trace.NopSink{}, rng.New(7))
	j := NewJob(1)
	j.Type = trace.CollectionJob
	j.Tier = trace.TierFree
	for i := 0; i < 8; i++ {
		j.AddTask(&Task{Request: trace.Resources{CPU: 0.1, Mem: 0.1}, Duration: 100 * sim.Hour})
	}
	k.At(0, sim.Func(func(sim.Time) { s.Submit(j) }))
	k.RunUntil(sim.Minute)
	cycle := func() {
		s.EvictMachine(m.ID)
		if m.NumResidents() != 0 {
			t.Fatalf("%d residents survived maintenance", m.NumResidents())
		}
		k.RunUntil(k.Now() + sim.Minute)
		if m.NumResidents() != len(j.Tasks) {
			t.Fatalf("%d of %d tasks placed back", m.NumResidents(), len(j.Tasks))
		}
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("machine maintenance allocates %.1f allocs/op, want 0", avg)
	}
}

// TestTaskSize pins Task within the 192-byte size class: a job's task
// array costs this much per task, and every job of a run allocates one.
// A field added past the bound must earn its bytes or share a word.
func TestTaskSize(t *testing.T) {
	const maxTaskBytes = 192
	if size := unsafe.Sizeof(Task{}); size > maxTaskBytes {
		t.Fatalf("Task is %d bytes, want at most %d", size, maxTaskBytes)
	}
}
