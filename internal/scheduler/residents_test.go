package scheduler

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

func res(c, m float64) trace.Resources { return trace.Resources{CPU: c, Mem: m} }

// residentRig returns a scheduler over a cell of n machines of the given
// capacity under oc, for tests that place residents directly.
func residentRig(oc cluster.OvercommitPolicy, n int, capacity trace.Resources) (*Scheduler, []trace.MachineID) {
	cell := cluster.NewCell("residents", oc)
	for i := 0; i < n; i++ {
		cell.AddMachine(capacity, "P0")
	}
	return New(fastConfig(), cell, sim.NewKernel(), tracetest.NopSink{}, rng.New(1), nil), cell.MachineIDs()
}

// near reports whether a and b agree within 1e-9 in both dimensions.
func near(a, b trace.Resources) bool {
	const eps = 1e-9
	return a.CPU > b.CPU-eps && a.CPU < b.CPU+eps && a.Mem > b.Mem-eps && a.Mem < b.Mem+eps
}

// residentTasks returns the tasks in machine id's slots, in victim order.
func residentTasks(s *Scheduler, id trace.MachineID) []*Task {
	var ts []*Task
	for _, sl := range s.Residents(id) {
		ts = append(ts, sl.Task)
	}
	return ts
}

// victimLess orders tasks as victim order does: priority, then
// collection, then index.
func victimLess(a, b *Task) bool {
	if a.Job.Priority != b.Job.Priority {
		return a.Job.Priority < b.Job.Priority
	}
	ka, kb := a.Key(), b.Key()
	if ka.Collection != kb.Collection {
		return ka.Collection < kb.Collection
	}
	return ka.Index < kb.Index
}

func TestPlaceRemoveAccounting(t *testing.T) {
	s, ids := residentRig(strictOC, 1, res(1, 1))
	id := ids[0]
	task := residentTask(trace.InstanceKey{Collection: 1, Index: 0}, 120, trace.TierProduction, res(0.3, 0.2))
	s.place(task, id)
	if s.Allocated(id) != res(0.3, 0.2) {
		t.Fatalf("allocated %v", s.Allocated(id))
	}
	if len(s.Residents(id)) != 1 || task.Machine != id {
		t.Fatalf("%d residents, task on machine %d", len(s.Residents(id)), task.Machine)
	}
	r := s.on(id)
	if i, ok := r.search(120, task.Key()); !ok || r.slots[i].Task != task {
		t.Fatal("resident lookup")
	}
	if _, ok := r.search(121, task.Key()); ok {
		t.Fatal("resident found under another priority")
	}
	s.remove(task)
	if s.Allocated(id) != res(0, 0) || len(s.Residents(id)) != 0 || task.Machine != 0 {
		t.Fatalf("post-remove state %v %d, task on machine %d", s.Allocated(id), len(s.Residents(id)), task.Machine)
	}
}

func TestPlacePanics(t *testing.T) {
	s, ids := residentRig(strictOC, 1, res(1, 1))
	id := ids[0]
	task := residentTask(trace.InstanceKey{Collection: 1}, 0, trace.TierFree, res(0, 0))
	s.place(task, id)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	// claiming returns a task that claims machine on but is not there.
	claiming := func(key trace.InstanceKey, priority int, on trace.MachineID) *Task {
		c := residentTask(key, priority, trace.TierFree, res(0.1, 0.1))
		c.Machine = on
		return c
	}
	missing := claiming(trace.InstanceKey{Collection: 9}, 0, id)
	mustPanic("duplicate place", func() { s.place(task, id) })
	mustPanic("unknown machine", func() { s.place(residentTask(trace.InstanceKey{Collection: 2}, 0, trace.TierFree, res(0, 0)), 999) })
	mustPanic("remove missing", func() { s.remove(missing) })
	mustPanic("remove under another priority", func() { s.remove(claiming(task.Key(), 1, id)) })
	mustPanic("remove unknown machine", func() { s.remove(claiming(task.Key(), 0, 999)) })
	mustPanic("update missing", func() { s.UpdateTaskRequest(missing, res(0, 0)) })
}

func TestResidentsOrderedByPriority(t *testing.T) {
	s, ids := residentRig(strictOC, 1, res(1, 1))
	for i, prio := range []int{200, 0, 110} {
		s.place(residentTask(trace.InstanceKey{Collection: trace.CollectionID(i + 1)}, prio, trace.TierFree, res(0, 0)), ids[0])
	}
	rs := s.Residents(ids[0])
	if rs[0].Task.Job.Priority != 0 || rs[1].Task.Job.Priority != 110 || rs[2].Task.Job.Priority != 200 {
		t.Fatalf("victim order %v", residentTasks(s, ids[0]))
	}
}

// TestUpdateTaskRequestMovesAllocation: a request change through
// UpdateTaskRequest moves the machine's allocation with it, and an
// alloc-hosted task, which counts a zero machine limit, moves nothing.
func TestUpdateTaskRequestMovesAllocation(t *testing.T) {
	s, ids := residentRig(strictOC, 1, res(1, 1))
	id := ids[0]
	task := residentTask(trace.InstanceKey{Collection: 1}, 0, trace.TierFree, res(0.5, 0.5))
	s.place(task, id)
	s.UpdateTaskRequest(task, res(0.2, 0.3))
	if s.Allocated(id) != res(0.2, 0.3) {
		t.Fatalf("allocated after update %v", s.Allocated(id))
	}
	if task.Request != res(0.2, 0.3) {
		t.Fatal("task request not updated")
	}
	hosted := residentTask(trace.InstanceKey{Collection: 2}, 0, trace.TierFree, res(0.1, 0.1))
	hosted.AllocInstance = &AllocInstance{Machine: id}
	s.place(hosted, id)
	s.UpdateTaskRequest(hosted, res(0.4, 0.4))
	if s.Allocated(id) != res(0.2, 0.3) || hosted.Request != res(0.4, 0.4) {
		t.Fatalf("alloc-hosted update: allocated %v, request %v", s.Allocated(id), hosted.Request)
	}
}

func TestUsageTotal(t *testing.T) {
	s, ids := residentRig(strictOC, 1, res(1, 1))
	for i, u := range []trace.Resources{res(0.1, 0.2), res(0.3, 0.1)} {
		task := residentTask(trace.InstanceKey{Collection: trace.CollectionID(i + 1)}, 0, trace.TierFree, res(0, 0))
		s.place(task, ids[0])
		s.SetUsage(task, i, u)
	}
	if got := s.UsageTotal(ids[0]); !near(got, res(0.4, 0.3)) {
		t.Fatalf("usage total %v", got)
	}
}

// TestSetUsageMaintainsAggregate: SetUsage keeps the machine's usage sum
// equal to its slots' usage, writes a task's own slot when the position
// it is given is stale (an eviction since the walk shifted the slots
// under it), and the sum returns to exactly zero when the last resident
// leaves.
func TestSetUsageMaintainsAggregate(t *testing.T) {
	s, ids := residentRig(strictOC, 1, res(1, 1))
	id := ids[0]
	var tasks [3]*Task
	for i := range tasks {
		tasks[i] = residentTask(trace.InstanceKey{Collection: trace.CollectionID(i + 1)}, 0, trace.TierFree, res(0, 0))
		s.place(tasks[i], id)
	}
	a, b, c := tasks[0], tasks[1], tasks[2]
	s.SetUsage(a, 0, res(0.1, 0.1))
	s.SetUsage(a, 0, res(0.4, 0.3))
	if got := s.UsageTotal(id); !near(got, res(0.4, 0.3)) {
		t.Fatalf("usage total %v after SetUsage", got)
	}
	if s.Residents(id)[0].Usage() != res(0.4, 0.3) {
		t.Fatal("slot usage not updated")
	}
	// A walk read b at position 1; then a leaves, so b moves to 0 and c
	// to 1. The stale position must not write c's slot.
	s.remove(a)
	s.SetUsage(b, 1, res(0.2, 0.2))
	rs := s.Residents(id)
	if rs[0].Task != b || rs[0].Usage() != res(0.2, 0.2) || rs[1].Usage() != (trace.Resources{}) || !near(s.UsageTotal(id), res(0.2, 0.2)) {
		t.Fatalf("stale position: slot usages %v and %v, total %v; want b's slot written", rs[0].Usage(), rs[1].Usage(), s.UsageTotal(id))
	}
	s.remove(b)
	s.remove(c)
	if s.UsageTotal(id) != res(0, 0) {
		t.Fatalf("usage total %v after removing last resident", s.UsageTotal(id))
	}
}

// Property: after randomized place/remove/request/usage mutation
// sequences, the incrementally maintained sums (allocation, usage) and
// victim order match a from-scratch recomputation of the same state:
// the slots hold a fresh sort of the machine's tasks by (priority, key),
// the allocation is the sum of their machine limits (zero for
// alloc-hosted tasks) and the usage the sum of their slots' usage.
func TestIncrementalStateMatchesRecompute(t *testing.T) {
	src := rng.New(99)
	oc := cluster.OvercommitPolicy{CPUFactor: 1.4, MemFactor: 1.2}
	s, ids := residentRig(oc, 4, res(2, 2))
	var live []*Task
	next := trace.CollectionID(1)
	randRes := func() trace.Resources { return res(src.Float64()*0.3, src.Float64()*0.3) }
	verify := func(step int, id trace.MachineID) {
		var fresh []*Task
		for _, task := range live {
			if task.Machine == id {
				fresh = append(fresh, task)
			}
		}
		sort.Slice(fresh, func(i, j int) bool { return victimLess(fresh[i], fresh[j]) })
		var wantAlloc, wantUsage trace.Resources
		rs := s.Residents(id)
		if len(rs) != len(fresh) {
			t.Fatalf("step %d: %d slots, %d placed", step, len(rs), len(fresh))
		}
		for i := range rs {
			wantAlloc = wantAlloc.Add(machineLimit(rs[i].Task))
			wantUsage = wantUsage.Add(rs[i].Usage())
			if rs[i].Task != fresh[i] {
				t.Fatalf("step %d: victim order differs from a fresh sort at %d", step, i)
			}
		}
		if got := s.Allocated(id); !near(got, wantAlloc) {
			t.Fatalf("step %d: allocated %v, recomputed %v", step, got, wantAlloc)
		}
		if got := s.UsageTotal(id); !near(got, wantUsage) {
			t.Fatalf("step %d: usage total %v, recomputed %v", step, got, wantUsage)
		}
		m := s.cell.Machine(id)
		if m.Ceiling() != oc.AllocationCeiling(m.Capacity) {
			t.Fatalf("step %d: stale ceiling", step)
		}
	}

	for step := 0; step < 4000; step++ {
		switch op := src.Intn(4); {
		case op == 0 || len(live) == 0: // place
			// A few collections with several instances each, so victim
			// order ties on priority and collection and falls to the index.
			key := trace.InstanceKey{Collection: next % 7, Index: int32(next)}
			next++
			task := residentTask(key, src.Intn(8)*45, trace.TierFree, randRes())
			if src.Intn(4) == 0 {
				task.AllocInstance = &AllocInstance{}
			}
			s.place(task, ids[src.Intn(len(ids))])
			s.SetUsage(task, 0, randRes())
			live = append(live, task)
		case op == 1: // remove
			i := src.Intn(len(live))
			s.remove(live[i])
			live[i].AllocInstance = nil
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case op == 2: // request change
			s.UpdateTaskRequest(live[src.Intn(len(live))], randRes())
		default: // usage sample, from a possibly stale walk position
			s.SetUsage(live[src.Intn(len(live))], src.Intn(8), randRes())
		}
		verify(step, ids[src.Intn(len(ids))])
	}
}

// Property: placement/removal keeps allocation equal to the sum of
// resident requests.
func TestAllocationConsistencyProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s, ids := residentRig(strictOC, 1, res(100, 100))
		placed := map[trace.InstanceKey]*Task{}
		next := uint64(1)
		for _, op := range ops {
			if op%2 == 0 || len(placed) == 0 {
				key := trace.InstanceKey{Collection: trace.CollectionID(next)}
				next++
				task := residentTask(key, 0, trace.TierFree, res(float64(op%7)/10, float64(op%5)/10))
				s.place(task, ids[0])
				placed[key] = task
			} else {
				for key, task := range placed {
					s.remove(task)
					delete(placed, key)
					break
				}
			}
		}
		var want trace.Resources
		for _, task := range placed {
			want = want.Add(task.Request)
		}
		return near(s.Allocated(ids[0]), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestResidentLookupMatchesLinearScan: random place, remove and request
// change sequences keep one machine's residents in victim order, and
// every binary-searched lookup agrees with a linear scan of a reference
// list the test keeps itself: a resident is found under its own priority
// and key, and a key that is absent, or present under another priority,
// is not.
func TestResidentLookupMatchesLinearScan(t *testing.T) {
	src := rng.New(7)
	s, ids := residentRig(strictOC, 1, res(100, 100))
	id := ids[0]
	// ref holds the placed tasks in victim order, maintained by linear
	// scans only.
	var ref []*Task
	scan := func(priority int, key trace.InstanceKey) *Task {
		for _, task := range ref {
			if task.Job.Priority == priority && task.Key() == key {
				return task
			}
		}
		return nil
	}
	// Few collections, indices and priorities, so keys collide often.
	randKey := func() (int, trace.InstanceKey) {
		return src.Intn(4) * 100, trace.InstanceKey{Collection: trace.CollectionID(1 + src.Intn(5)), Index: int32(src.Intn(4))}
	}
	for step := 0; step < 3000; step++ {
		prio, key := randKey()
		switch src.Intn(3) {
		case 0: // place, unless that priority and key is already there
			if scan(prio, key) != nil {
				break
			}
			task := residentTask(key, prio, trace.TierFree, res(src.Float64(), src.Float64()))
			s.place(task, id)
			i := 0
			for i < len(ref) && victimLess(ref[i], task) {
				i++
			}
			ref = append(ref[:i], append([]*Task{task}, ref[i:]...)...)
		case 1: // remove a live resident
			if len(ref) == 0 {
				break
			}
			i := src.Intn(len(ref))
			s.remove(ref[i])
			ref = append(ref[:i], ref[i+1:]...)
		default: // change a live resident's request
			if len(ref) == 0 {
				break
			}
			task := ref[src.Intn(len(ref))]
			lim := res(src.Float64(), src.Float64())
			s.UpdateTaskRequest(task, lim)
			if task.Request != lim {
				t.Fatalf("step %d: request %v, want %v", step, task.Request, lim)
			}
		}
		rs := s.Residents(id)
		if len(rs) != len(ref) {
			t.Fatalf("step %d: %d residents, reference has %d", step, len(rs), len(ref))
		}
		for i := range rs {
			if rs[i].Task != ref[i] {
				t.Fatalf("step %d: victim order differs from the reference at %d", step, i)
			}
		}
		r := s.on(id)
		for i := 0; i < 8; i++ {
			prio, key := randKey()
			var got *Task
			if j, ok := r.search(prio, key); ok {
				got = r.slots[j].Task
			}
			if want := scan(prio, key); got != want {
				t.Fatalf("step %d: search(%d, %s) finds %v, linear scan finds %v", step, prio, key, got, want)
			}
		}
	}
}
