package scheduler

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// testRig wires a small cell, kernel, sink and scheduler for tests.
type testRig struct {
	cell  *cluster.Cell
	k     *sim.Kernel
	tr    *trace.MemTrace
	sched *Scheduler
}

// defaultOC is the 2019 profiles' overcommit policy, and strictOC
// allows no overcommit.
var (
	defaultOC = cluster.OvercommitPolicy{CPUFactor: 1.5, MemFactor: 1.45}
	strictOC  = cluster.OvercommitPolicy{CPUFactor: 1, MemFactor: 1}
)

func newRig(t *testing.T, cfg Config, machines int, capacity trace.Resources) *testRig {
	return newRigOC(t, cfg, defaultOC, machines, capacity)
}

// newRigOC is newRig with an explicit overcommit policy.
func newRigOC(t *testing.T, cfg Config, oc cluster.OvercommitPolicy, machines int, capacity trace.Resources) *testRig {
	t.Helper()
	cell := cluster.NewCell("test", oc)
	k := sim.NewKernel()
	tr := trace.NewMemTrace(trace.Meta{Era: trace.Era2019, Cell: "test"})
	for i := 0; i < machines; i++ {
		m := cell.AddMachine(capacity, "P0")
		tr.MachineEvent(trace.MachineEvent{Time: 0, Machine: m.ID, Type: trace.MachineAdd, Capacity: capacity, Platform: "P0"})
	}
	sched := New(cfg, cell, k, tr, rng.New(42))
	return &testRig{cell: cell, k: k, tr: tr, sched: sched}
}

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.ServiceTime = dist.Deterministic{Value: 0.001}
	cfg.Batch = false
	return cfg
}

func mkJob(id trace.CollectionID, priority int, tier trace.Tier, tasks int, req trace.Resources, duration sim.Time) *Job {
	j := NewJob(id)
	j.Type = trace.CollectionJob
	j.Priority = priority
	j.Tier = tier
	j.User = "u"
	for i := 0; i < tasks; i++ {
		j.AddTask(&Task{Request: req, Duration: duration, MeanCPU: req.CPU * 0.5, MeanMem: req.Mem * 0.5, PeakFact: 1.2})
	}
	return j
}

func eventsOfType(tr *trace.MemTrace, id trace.CollectionID, typ trace.EventType) int {
	n := 0
	for ev := range tr.CollectionEvents.All() {
		if ev.Collection == id && ev.Type == typ {
			n++
		}
	}
	return n
}

func instanceEventsOfType(tr *trace.MemTrace, id trace.CollectionID, typ trace.EventType) int {
	n := 0
	for ev := range tr.InstanceEvents.All() {
		if ev.Key.Collection == id && ev.Type == typ {
			n++
		}
	}
	return n
}

func TestSimpleJobLifecycle(t *testing.T) {
	rig := newRig(t, fastConfig(), 4, trace.Resources{CPU: 1, Mem: 1})
	j := mkJob(1, 120, trace.TierProduction, 3, trace.Resources{CPU: 0.2, Mem: 0.2}, 10*sim.Minute)
	rig.k.At(1*sim.Second, sim.Func(func(sim.Time) { rig.sched.Submit(j) }))
	rig.k.RunUntil(1 * sim.Hour)

	if j.State != JobDone || j.FinalType != trace.EventFinish {
		t.Fatalf("job state %v final %v", j.State, j.FinalType)
	}
	if got := eventsOfType(rig.tr, 1, trace.EventSubmit); got != 1 {
		t.Fatalf("collection SUBMITs %d", got)
	}
	if got := eventsOfType(rig.tr, 1, trace.EventEnable); got != 1 {
		t.Fatalf("collection ENABLEs %d", got)
	}
	if got := eventsOfType(rig.tr, 1, trace.EventFinish); got != 1 {
		t.Fatalf("collection FINISHes %d", got)
	}
	if got := instanceEventsOfType(rig.tr, 1, trace.EventSchedule); got != 3 {
		t.Fatalf("instance SCHEDULEs %d", got)
	}
	if got := instanceEventsOfType(rig.tr, 1, trace.EventFinish); got != 3 {
		t.Fatalf("instance FINISHes %d", got)
	}
	// All resources released.
	rig.cell.Machines(func(m *cluster.Machine) {
		if m.NumResidents() != 0 {
			t.Fatalf("machine %d still has residents", m.ID)
		}
		if m.Allocated().CPU != 0 {
			t.Fatalf("machine %d allocation leak %v", m.ID, m.Allocated())
		}
	})
	if j.FirstRun < 0 {
		t.Fatal("FirstRun not recorded")
	}
	// Scheduling delay should be small but positive (service time).
	if d := j.FirstRun - j.ReadyTime; d <= 0 || d > 10*sim.Second {
		t.Fatalf("scheduling delay %v", d)
	}
}

func TestJobDurationRespected(t *testing.T) {
	rig := newRig(t, fastConfig(), 2, trace.Resources{CPU: 1, Mem: 1})
	j := mkJob(1, 120, trace.TierProduction, 1, trace.Resources{CPU: 0.1, Mem: 0.1}, 30*sim.Minute)
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(j) }))
	rig.k.RunUntil(2 * sim.Hour)
	var sched, finish sim.Time
	for ev := range rig.tr.InstanceEvents.All() {
		if ev.Type == trace.EventSchedule {
			sched = ev.Time
		}
		if ev.Type == trace.EventFinish {
			finish = ev.Time
		}
	}
	ran := finish - sched
	if ran != 30*sim.Minute {
		t.Fatalf("task ran %v, want 30m", ran)
	}
}

func TestBatchQueueing(t *testing.T) {
	cfg := fastConfig()
	cfg.Batch = true
	cfg.BatchAllocCeiling = 0.5
	rig := newRig(t, cfg, 4, trace.Resources{CPU: 1, Mem: 1})

	// One job more than a check admits, all well under the ceiling.
	n := batchMaxAdmitPerCheck + 1
	var jobs []*Job
	for i := 1; i <= n; i++ {
		j := mkJob(trace.CollectionID(i), 110, trace.TierBestEffortBatch, 1, trace.Resources{CPU: 0.1, Mem: 0.1}, 20*sim.Minute)
		j.Scheduler = trace.SchedulerBatch
		jobs = append(jobs, j)
	}
	rig.k.At(0, sim.Func(func(sim.Time) {
		for _, j := range jobs {
			rig.sched.Submit(j)
		}
	}))
	rig.k.RunUntil(1 * sim.Hour)

	for _, j := range jobs {
		if got := eventsOfType(rig.tr, j.ID, trace.EventQueue); got != 1 {
			t.Fatalf("job %d QUEUE events %d", j.ID, got)
		}
		if got := eventsOfType(rig.tr, j.ID, trace.EventEnable); got != 1 {
			t.Fatalf("job %d ENABLE events %d", j.ID, got)
		}
	}
	// A check admits at most batchMaxAdmitPerCheck jobs, so the first
	// check admits all but the last job, which waits for the next one.
	var enables []sim.Time
	for ev := range rig.tr.CollectionEvents.All() {
		if ev.Type == trace.EventEnable {
			enables = append(enables, ev.Time)
		}
	}
	if len(enables) != n {
		t.Fatalf("batch admissions %v, want %d", enables, n)
	}
	for _, at := range enables[:n-1] {
		if at != batchCheckPeriod {
			t.Fatalf("batch admissions not capped per check: %v", enables)
		}
	}
	if enables[n-1] != 2*batchCheckPeriod {
		t.Fatalf("last admission at %v, want the second check: %v", enables[n-1], enables)
	}
	if rig.sched.Stats().BatchAdmitted != n {
		t.Fatalf("batch admitted %d", rig.sched.Stats().BatchAdmitted)
	}
}

func TestBatchCeilingHoldsJobs(t *testing.T) {
	cfg := fastConfig()
	cfg.Batch = true
	cfg.BatchAllocCeiling = 0.1
	rig := newRig(t, cfg, 2, trace.Resources{CPU: 1, Mem: 1})

	// First job takes 15% of cell CPU: above the ceiling once running.
	j1 := mkJob(1, 110, trace.TierBestEffortBatch, 3, trace.Resources{CPU: 0.1, Mem: 0.1}, 30*sim.Minute)
	j1.Scheduler = trace.SchedulerBatch
	j2 := mkJob(2, 110, trace.TierBestEffortBatch, 1, trace.Resources{CPU: 0.1, Mem: 0.1}, 10*sim.Minute)
	j2.Scheduler = trace.SchedulerBatch
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(j1); rig.sched.Submit(j2) }))
	rig.k.RunUntil(20 * sim.Minute)

	if j1.State == JobQueued {
		t.Fatal("first job should have been admitted")
	}
	if j2.State != JobQueued {
		t.Fatalf("second job state %v, want still queued", j2.State)
	}
	// After the first job completes, the second is admitted.
	rig.k.RunUntil(2 * sim.Hour)
	if j2.State != JobDone {
		t.Fatalf("second job never completed: %v", j2.State)
	}
}

func TestPriorityOrdering(t *testing.T) {
	cfg := fastConfig()
	cfg.ServiceTime = dist.Deterministic{Value: 1.0} // slow server to build a queue
	rig := newRig(t, cfg, 4, trace.Resources{CPU: 1, Mem: 1})
	free := mkJob(1, 0, trace.TierFree, 2, trace.Resources{CPU: 0.1, Mem: 0.1}, 10*sim.Minute)
	prod := mkJob(2, 200, trace.TierProduction, 2, trace.Resources{CPU: 0.1, Mem: 0.1}, 10*sim.Minute)
	// Free submitted first, but prod must be placed first.
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(free) }))
	rig.k.At(sim.Millisecond, sim.Func(func(sim.Time) { rig.sched.Submit(prod) }))
	rig.k.RunUntil(1 * sim.Hour)

	var firstProd, firstFree sim.Time = -1, -1
	for ev := range rig.tr.InstanceEvents.All() {
		if ev.Type != trace.EventSchedule {
			continue
		}
		if ev.Key.Collection == 2 && firstProd < 0 {
			firstProd = ev.Time
		}
		if ev.Key.Collection == 1 && firstFree < 0 {
			firstFree = ev.Time
		}
	}
	if firstProd < 0 || firstFree < 0 {
		t.Fatal("both jobs must run")
	}
	// The very first placement may be the free task (already in service),
	// but prod must not wait behind both free tasks.
	if firstProd > firstFree {
		prodCount := 0
		for ev := range rig.tr.InstanceEvents.All() {
			if ev.Type == trace.EventSchedule && ev.Time <= firstFree && ev.Key.Collection == 2 {
				prodCount++
			}
		}
		if prodCount == 0 {
			t.Fatalf("prod first at %v, free first at %v: priority inversion", firstProd, firstFree)
		}
	}
}

func TestPreemption(t *testing.T) {
	rig := newRigOC(t, fastConfig(), strictOC, 1, trace.Resources{CPU: 1, Mem: 1})

	filler := mkJob(1, 0, trace.TierFree, 1, trace.Resources{CPU: 0.9, Mem: 0.9}, 5*sim.Hour)
	prod := mkJob(2, 200, trace.TierProduction, 1, trace.Resources{CPU: 0.8, Mem: 0.8}, 30*sim.Minute)
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(filler) }))
	rig.k.At(1*sim.Minute, sim.Func(func(sim.Time) { rig.sched.Submit(prod) }))
	rig.k.RunUntil(8 * sim.Hour)

	if got := instanceEventsOfType(rig.tr, 1, trace.EventEvict); got < 1 {
		t.Fatalf("filler evictions %d, want >= 1", got)
	}
	if rig.sched.Stats().Preemptions < 1 {
		t.Fatalf("preemption count %d", rig.sched.Stats().Preemptions)
	}
	if prod.State != JobDone || prod.FinalType != trace.EventFinish {
		t.Fatalf("prod job %v/%v", prod.State, prod.FinalType)
	}
	// The evicted filler is rescheduled after prod finishes and completes.
	if filler.State != JobDone {
		t.Fatalf("filler state %v", filler.State)
	}
	if got := instanceEventsOfType(rig.tr, 1, trace.EventSubmit); got < 2 {
		t.Fatalf("filler should have re-SUBMIT after eviction, got %d submits", got)
	}
}

// TestFinishedJobsReleased: a terminated job leaves the scheduler's
// tables, whether it finished, was killed with its parent, or was killed
// on arrival because its parent had already terminated, so a long run
// holds only its live jobs.
func TestFinishedJobsReleased(t *testing.T) {
	rig := newRig(t, fastConfig(), 4, trace.Resources{CPU: 1, Mem: 1})
	parent := mkJob(1, 120, trace.TierProduction, 2, trace.Resources{CPU: 0.1, Mem: 0.1}, 10*sim.Minute)
	child := mkJob(2, 110, trace.TierBestEffortBatch, 2, trace.Resources{CPU: 0.1, Mem: 0.1}, 10*sim.Hour)
	child.Parent = 1
	late := mkJob(3, 110, trace.TierBestEffortBatch, 1, trace.Resources{CPU: 0.1, Mem: 0.1}, 10*sim.Hour)
	late.Parent = 1
	live := mkJob(4, 120, trace.TierProduction, 1, trace.Resources{CPU: 0.1, Mem: 0.1}, 10*sim.Hour)
	rig.k.At(0, sim.Func(func(sim.Time) {
		rig.sched.Submit(parent)
		rig.sched.Submit(child)
		rig.sched.Submit(live)
	}))
	rig.k.At(sim.Hour, sim.Func(func(sim.Time) { rig.sched.Submit(late) }))
	rig.k.RunUntil(2 * sim.Hour)

	for _, j := range []*Job{parent, child, late} {
		if j.State != JobDone {
			t.Fatalf("job %d not done: %v", j.ID, j.State)
		}
	}
	if len(rig.sched.jobs) != 1 || rig.sched.jobs[live.ID] != live {
		t.Fatalf("scheduler holds %d jobs, want only the live job %d", len(rig.sched.jobs), live.ID)
	}
}

// killOrder returns the collections whose KILL rows tr holds, in row
// order.
func killOrder(tr *trace.MemTrace) []trace.CollectionID {
	var ids []trace.CollectionID
	for ev := range tr.CollectionEvents.All() {
		if ev.Type == trace.EventKill {
			ids = append(ids, ev.Collection)
		}
	}
	return ids
}

// TestDependentsKilledInSubmissionOrder: the jobs that die with an owner
// come from the live-job table. A parent's three live children, and an
// alloc set's running and still-pending inner jobs, are each KILLed with
// every task when their owner terminates, in submission order.
func TestDependentsKilledInSubmissionOrder(t *testing.T) {
	rig := newRig(t, fastConfig(), 4, trace.Resources{CPU: 1, Mem: 1})
	small := trace.Resources{CPU: 0.1, Mem: 0.1}
	parent := mkJob(1, 120, trace.TierProduction, 1, small, 10*sim.Minute)
	var children []*Job
	for id := trace.CollectionID(2); id <= 4; id++ {
		c := mkJob(id, 110, trace.TierBestEffortBatch, 2, small, 10*sim.Hour)
		c.Parent = parent.ID
		children = append(children, c)
	}
	as := NewJob(10)
	as.Type = trace.CollectionAllocSet
	as.Priority = 200
	as.Tier = trace.TierProduction
	as.AddTask(&Task{Request: trace.Resources{CPU: 0.5, Mem: 0.5}, Duration: 10 * sim.Hour})
	// The instance has room for the first inner job only, so the second
	// stays pending.
	running := mkJob(11, 120, trace.TierProduction, 1, trace.Resources{CPU: 0.3, Mem: 0.3}, 10*sim.Hour)
	pending := mkJob(12, 120, trace.TierProduction, 1, trace.Resources{CPU: 0.3, Mem: 0.3}, 10*sim.Hour)
	running.AllocSet, pending.AllocSet = as.ID, as.ID
	rig.k.At(0, sim.Func(func(sim.Time) {
		rig.sched.Submit(parent)
		for _, c := range children {
			rig.sched.Submit(c)
		}
		rig.sched.Submit(as)
	}))
	rig.k.At(sim.Minute, sim.Func(func(sim.Time) { rig.sched.Submit(running) }))
	rig.k.At(2*sim.Minute, sim.Func(func(sim.Time) { rig.sched.Submit(pending) }))
	rig.k.RunUntil(30 * sim.Minute)

	if running.Tasks[0].State != TaskRunning || pending.Tasks[0].State == TaskRunning {
		t.Fatalf("inner tasks %v and %v, want one running and one pending",
			running.Tasks[0].State, pending.Tasks[0].State)
	}
	if got, want := killOrder(rig.tr), []trace.CollectionID{2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("KILL rows after the parent finished: %v, want %v", got, want)
	}

	rig.sched.KillJob(as, trace.EventKill)
	if got, want := killOrder(rig.tr), []trace.CollectionID{2, 3, 4, 11, 10, 12}; !slices.Equal(got, want) {
		t.Fatalf("KILL rows after the alloc set ended: %v, want %v", got, want)
	}
	for _, j := range append(children, running, pending) {
		if got := instanceEventsOfType(rig.tr, j.ID, trace.EventKill); got != len(j.Tasks) {
			t.Fatalf("job %d: %d instance KILLs, want %d", j.ID, got, len(j.Tasks))
		}
	}
	if len(rig.sched.jobs) != 0 || len(rig.sched.allocs) != 0 {
		t.Fatalf("scheduler holds %d jobs and %d alloc sets, want none", len(rig.sched.jobs), len(rig.sched.allocs))
	}
}

func TestParentChildKillPropagation(t *testing.T) {
	rig := newRig(t, fastConfig(), 4, trace.Resources{CPU: 1, Mem: 1})
	parent := mkJob(1, 120, trace.TierProduction, 1, trace.Resources{CPU: 0.1, Mem: 0.1}, 10*sim.Minute)
	child := mkJob(2, 110, trace.TierBestEffortBatch, 2, trace.Resources{CPU: 0.1, Mem: 0.1}, 10*sim.Hour)
	child.Parent = 1
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(parent); rig.sched.Submit(child) }))
	rig.k.RunUntil(2 * sim.Hour)

	if parent.State != JobDone || parent.FinalType != trace.EventFinish {
		t.Fatalf("parent %v/%v", parent.State, parent.FinalType)
	}
	if child.State != JobDone || child.FinalType != trace.EventKill {
		t.Fatalf("child %v/%v, want killed", child.State, child.FinalType)
	}
	// Child killed promptly after parent exit.
	var parentEnd, childEnd sim.Time
	for ev := range rig.tr.CollectionEvents.All() {
		if ev.Collection == 1 && ev.Type == trace.EventFinish {
			parentEnd = ev.Time
		}
		if ev.Collection == 2 && ev.Type == trace.EventKill {
			childEnd = ev.Time
		}
	}
	if childEnd < parentEnd || childEnd > parentEnd+sim.Minute {
		t.Fatalf("child killed at %v, parent ended %v", childEnd, parentEnd)
	}
}

func TestUserKill(t *testing.T) {
	rig := newRig(t, fastConfig(), 2, trace.Resources{CPU: 1, Mem: 1})
	j := mkJob(1, 120, trace.TierProduction, 2, trace.Resources{CPU: 0.1, Mem: 0.1}, 10*sim.Hour)
	j.Outcome = OutcomeKill
	j.KillAfter = 30 * sim.Minute
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(j) }))
	rig.k.RunUntil(2 * sim.Hour)

	if j.FinalType != trace.EventKill {
		t.Fatalf("final %v", j.FinalType)
	}
	if got := instanceEventsOfType(rig.tr, 1, trace.EventKill); got != 2 {
		t.Fatalf("instance kills %d", got)
	}
	var killTime sim.Time
	for ev := range rig.tr.CollectionEvents.All() {
		if ev.Collection == 1 && ev.Type == trace.EventKill {
			killTime = ev.Time
		}
	}
	if killTime != 30*sim.Minute {
		t.Fatalf("killed at %v", killTime)
	}
}

func TestFailRestartChurn(t *testing.T) {
	rig := newRig(t, fastConfig(), 2, trace.Resources{CPU: 1, Mem: 1})
	j := mkJob(1, 120, trace.TierProduction, 1, trace.Resources{CPU: 0.1, Mem: 0.1}, 30*sim.Minute)
	j.Tasks[0].Restarts = 2
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(j) }))
	rig.k.RunUntil(4 * sim.Hour)

	if got := instanceEventsOfType(rig.tr, 1, trace.EventFail); got != 2 {
		t.Fatalf("FAILs %d, want 2 scripted restarts", got)
	}
	if got := instanceEventsOfType(rig.tr, 1, trace.EventSubmit); got != 3 {
		t.Fatalf("SUBMITs %d, want 1 + 2 resubmits", got)
	}
	if got := instanceEventsOfType(rig.tr, 1, trace.EventSchedule); got != 3 {
		t.Fatalf("SCHEDULEs %d", got)
	}
	if j.FinalType != trace.EventFinish {
		t.Fatalf("final %v", j.FinalType)
	}
	// Total running time across segments equals the scripted duration.
	var running, lastStart sim.Time
	for ev := range rig.tr.InstanceEvents.All() {
		switch ev.Type {
		case trace.EventSchedule:
			lastStart = ev.Time
		case trace.EventFail, trace.EventFinish:
			running += ev.Time - lastStart
		}
	}
	if running != 30*sim.Minute {
		t.Fatalf("total running %v, want 30m", running)
	}
}

func TestOutcomeFail(t *testing.T) {
	rig := newRig(t, fastConfig(), 2, trace.Resources{CPU: 1, Mem: 1})
	j := mkJob(1, 0, trace.TierFree, 1, trace.Resources{CPU: 0.1, Mem: 0.1}, 10*sim.Minute)
	j.Outcome = OutcomeFail
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(j) }))
	rig.k.RunUntil(1 * sim.Hour)
	if j.FinalType != trace.EventFail {
		t.Fatalf("final %v, want FAIL", j.FinalType)
	}
}

func TestEvictMachine(t *testing.T) {
	rig := newRig(t, fastConfig(), 2, trace.Resources{CPU: 1, Mem: 1})
	// Free tier: maintenance always evicts below-production residents.
	j := mkJob(1, 0, trace.TierFree, 4, trace.Resources{CPU: 0.3, Mem: 0.3}, 2*sim.Hour)
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(j) }))
	rig.k.At(30*sim.Minute, sim.Func(func(sim.Time) {
		rig.sched.EvictMachine(rig.cell.MachineIDs()[0])
	}))
	rig.k.RunUntil(6 * sim.Hour)

	if got := instanceEventsOfType(rig.tr, 1, trace.EventEvict); got < 1 {
		t.Fatalf("evictions %d", got)
	}
	if j.State != JobDone || j.FinalType != trace.EventFinish {
		t.Fatalf("job %v/%v — evicted tasks must be rescheduled and finish", j.State, j.FinalType)
	}
	if rig.sched.Stats().MachineEvictions != 1 {
		t.Fatalf("machine evictions %d", rig.sched.Stats().MachineEvictions)
	}
}

func TestHandleMemoryPressure(t *testing.T) {
	rig := newRig(t, fastConfig(), 1, trace.Resources{CPU: 1, Mem: 1})
	low := mkJob(1, 0, trace.TierFree, 1, trace.Resources{CPU: 0.1, Mem: 0.55}, 5*sim.Hour)
	high := mkJob(2, 200, trace.TierProduction, 1, trace.Resources{CPU: 0.1, Mem: 0.55}, 5*sim.Hour)
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(low); rig.sched.Submit(high) }))
	rig.k.RunUntil(10 * sim.Minute)

	// Aggregate pressure: both tasks are within their own limits, but
	// the machine total exceeds capacity.
	m := rig.cell.Machine(rig.cell.MachineIDs()[0])
	for _, r := range m.LiveResidents() {
		m.SetResidentUsage(r, trace.Resources{CPU: 0.1, Mem: 0.52})
	}
	evicted := rig.sched.HandleMemoryPressure(m.ID, m.Capacity.Mem)
	if evicted != 1 {
		t.Fatalf("evicted %d, want exactly 1", evicted)
	}
	// The free-tier task must be the victim, via an EVICT event.
	if got := instanceEventsOfType(rig.tr, 1, trace.EventEvict); got != 1 {
		t.Fatalf("free-tier evictions %d", got)
	}
	if got := instanceEventsOfType(rig.tr, 2, trace.EventEvict); got != 0 {
		t.Fatalf("prod evicted %d times", got)
	}
	if rig.sched.Stats().OOMEvictions != 1 {
		t.Fatalf("oom evictions %d", rig.sched.Stats().OOMEvictions)
	}
}

func TestMemoryPressureOverLimitFails(t *testing.T) {
	rig := newRig(t, fastConfig(), 1, trace.Resources{CPU: 1, Mem: 1})
	// The culprit exceeds its own limit; an innocent prod task shares
	// the machine.
	culprit := mkJob(1, 0, trace.TierFree, 1, trace.Resources{CPU: 0.1, Mem: 0.2}, 5*sim.Hour)
	victim := mkJob(2, 200, trace.TierProduction, 1, trace.Resources{CPU: 0.1, Mem: 0.6}, 5*sim.Hour)
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(culprit); rig.sched.Submit(victim) }))
	rig.k.RunUntil(10 * sim.Minute)

	m := rig.cell.Machine(rig.cell.MachineIDs()[0])
	for _, r := range m.LiveResidents() {
		// Collection 1 ends up over its 0.2 limit; the prod task stays
		// within its own limit but contributes to aggregate pressure.
		m.SetResidentUsage(r, trace.Resources{CPU: 0.1, Mem: 0.55})
	}
	rig.sched.HandleMemoryPressure(m.ID, m.Capacity.Mem)
	// The over-limit task FAILs (§5.2 "fail"); no EVICT for it.
	if got := instanceEventsOfType(rig.tr, 1, trace.EventFail); got != 1 {
		t.Fatalf("culprit FAILs %d, want 1", got)
	}
	if got := instanceEventsOfType(rig.tr, 1, trace.EventEvict); got != 0 {
		t.Fatalf("culprit EVICTs %d, want 0", got)
	}
	if rig.sched.Stats().OOMKills != 1 {
		t.Fatalf("oom kills %d", rig.sched.Stats().OOMKills)
	}
}

func TestAllocSetPlacementAndTeardown(t *testing.T) {
	rig := newRig(t, fastConfig(), 4, trace.Resources{CPU: 1, Mem: 1})

	as := NewJob(1)
	as.Type = trace.CollectionAllocSet
	as.Priority = 200
	as.Tier = trace.TierProduction
	as.User = "u"
	for i := 0; i < 2; i++ {
		as.AddTask(&Task{Request: trace.Resources{CPU: 0.5, Mem: 0.5}, Duration: 5 * sim.Hour})
	}

	inner := mkJob(2, 120, trace.TierProduction, 3, trace.Resources{CPU: 0.2, Mem: 0.2}, 4*sim.Hour)
	inner.AllocSet = 1

	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(as) }))
	rig.k.At(1*sim.Minute, sim.Func(func(sim.Time) { rig.sched.Submit(inner) }))
	rig.k.RunUntil(30 * sim.Minute)

	// Inner tasks must be running inside alloc instances.
	running := 0
	for _, m := range rig.cell.OccupiedMachines() {
		for _, r := range m.LiveResidents() {
			t2 := r.Task.(*Task)
			if t2.Job.ID == 2 {
				running++
				if t2.AllocInstance.Collection != 1 {
					t.Fatalf("inner task %s not in alloc instance: %v", t2.Key, t2.AllocInstance)
				}
			}
		}
	}
	if running != 3 {
		t.Fatalf("running inner tasks %d", running)
	}
	// Machine allocation counts only the alloc set reservations, not the
	// inner tasks.
	var total trace.Resources
	rig.cell.Machines(func(m *cluster.Machine) { total = total.Add(m.Allocated()) })
	if total.CPU < 0.99 || total.CPU > 1.01 {
		t.Fatalf("allocated CPU %v, want ~1.0 (two 0.5 reservations)", total.CPU)
	}
	// Instance events for inner tasks carry the alloc instance reference.
	found := false
	for ev := range rig.tr.InstanceEvents.All() {
		if ev.Key.Collection == 2 && ev.Type == trace.EventSchedule {
			if ev.AllocInstance.Collection != 1 {
				t.Fatalf("schedule event lacks alloc instance: %+v", ev)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no inner schedule events")
	}

	// Tear the alloc set down early; inner jobs must be killed.
	rig.k.At(35*sim.Minute, sim.Func(func(sim.Time) { rig.sched.KillJob(as, trace.EventKill) }))
	rig.k.RunUntil(1 * sim.Hour)
	if inner.State != JobDone || inner.FinalType != trace.EventKill {
		t.Fatalf("inner job %v/%v after alloc set teardown", inner.State, inner.FinalType)
	}
	rig.cell.Machines(func(m *cluster.Machine) {
		if m.NumResidents() != 0 {
			t.Fatalf("machine %d has %d leftover residents", m.ID, m.NumResidents())
		}
	})
}

func TestJobWaitsForAllocSet(t *testing.T) {
	rig := newRig(t, fastConfig(), 2, trace.Resources{CPU: 1, Mem: 1})
	inner := mkJob(2, 120, trace.TierProduction, 1, trace.Resources{CPU: 0.2, Mem: 0.2}, 30*sim.Minute)
	inner.AllocSet = 1 // alloc set not submitted yet
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(inner) }))
	rig.k.RunUntil(10 * sim.Minute)
	if inner.FirstRun >= 0 {
		t.Fatal("inner job ran without its alloc set")
	}
	as := NewJob(1)
	as.Type = trace.CollectionAllocSet
	as.Priority = 200
	as.Tier = trace.TierProduction
	as.AddTask(&Task{Request: trace.Resources{CPU: 0.5, Mem: 0.5}, Duration: 5 * sim.Hour})
	rig.k.At(11*sim.Minute, sim.Func(func(sim.Time) { rig.sched.Submit(as) }))
	rig.k.RunUntil(2 * sim.Hour)
	if inner.State != JobDone || inner.FinalType != trace.EventFinish {
		t.Fatalf("inner %v/%v — should run once alloc set arrives", inner.State, inner.FinalType)
	}
}

func TestInfeasibleTaskRetries(t *testing.T) {
	rig := newRig(t, fastConfig(), 1, trace.Resources{CPU: 0.5, Mem: 0.5})
	// Request larger than any machine: never placeable.
	j := mkJob(1, 0, trace.TierFree, 1, trace.Resources{CPU: 0.9, Mem: 0.9}, 10*sim.Minute)
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(j) }))
	rig.k.RunUntil(5 * sim.Minute)
	if rig.sched.Stats().PlacementRetries < 2 {
		t.Fatalf("retries %d", rig.sched.Stats().PlacementRetries)
	}
	if j.FirstRun >= 0 {
		t.Fatal("impossible task was placed")
	}
}

func TestDuplicateSubmitPanics(t *testing.T) {
	rig := newRig(t, fastConfig(), 1, trace.Resources{CPU: 1, Mem: 1})
	j := mkJob(1, 0, trace.TierFree, 1, trace.Resources{CPU: 0.1, Mem: 0.1}, sim.Minute)
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(j) }))
	rig.k.RunUntil(sim.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate submit did not panic")
		}
	}()
	rig.sched.Submit(j)
}

func TestEmptyJobPanics(t *testing.T) {
	rig := newRig(t, fastConfig(), 1, trace.Resources{CPU: 1, Mem: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("empty job did not panic")
		}
	}()
	rig.sched.Submit(NewJob(9))
}

func TestTraceValidates(t *testing.T) {
	rig := newRig(t, fastConfig(), 4, trace.Resources{CPU: 1, Mem: 1})
	for i := 0; i < 20; i++ {
		id := trace.CollectionID(i + 1)
		tier := trace.TierFree
		prio := 0
		if i%3 == 0 {
			tier, prio = trace.TierProduction, 120
		}
		j := mkJob(id, prio, tier, 1+i%4, trace.Resources{CPU: 0.05, Mem: 0.05}, sim.Time(i+1)*10*sim.Minute)
		if i%5 == 0 {
			j.Tasks[0].Restarts = 1
		}
		delay := sim.Time(i) * 2 * sim.Minute
		rig.k.At(delay, sim.Func(func(sim.Time) { rig.sched.Submit(j) }))
	}
	rig.k.RunUntil(24 * sim.Hour)
	violations := tracetest.Validate(rig.tr)
	if len(violations) != 0 {
		t.Fatalf("trace violations: %v", violations)
	}
}

func TestStringers(t *testing.T) {
	if RandomFit.String() != "random-fit" || BestFit.String() != "best-fit" || LeastAllocated.String() != "least-allocated" {
		t.Fatal("policy strings")
	}
	if OutcomeFinish.String() != "finish" || OutcomeKill.String() != "kill" || OutcomeFail.String() != "fail" {
		t.Fatal("outcome strings")
	}
}
