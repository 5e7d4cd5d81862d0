package scheduler

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// checkBEB asserts the incremental beb allocated fraction matches the
// full recomputed walk to floating-point reassociation noise.
func checkBEB(t *testing.T, s *Scheduler, now sim.Time) {
	t.Helper()
	inc := s.bebAllocatedFraction()
	ref := bebAllocatedFractionRecomputed(s)
	if diff := math.Abs(inc - ref); diff > 1e-9*(1+math.Abs(ref)) {
		t.Fatalf("t=%v: incremental beb fraction %.15g != recomputed %.15g (diff %g)",
			now, inc, ref, diff)
	}
}

// TestBEBAllocIncrementalMatchesRecompute drives a churny best-effort
// batch workload — queued admissions, scripted crash-restarts, user
// kills, maintenance evictions, preemption by production jobs — and
// asserts at every admission-check period that the incrementally
// maintained allocated-CPU sum equals the full recomputed walk it
// replaced.
func TestBEBAllocIncrementalMatchesRecompute(t *testing.T) {
	cfg := fastConfig()
	cfg.Batch = true
	cfg.BatchAllocCeiling = 0.4
	rig := newRig(t, cfg, 6, trace.Resources{CPU: 1, Mem: 1})
	src := rng.New(99)

	id := trace.CollectionID(1)
	for i := 0; i < 60; i++ {
		var j *Job
		switch i % 4 {
		case 0, 1: // batch-queued beb jobs, some with restarts
			j = mkJob(id, 110, trace.TierBestEffortBatch, 1+src.Intn(4),
				trace.Resources{CPU: 0.05 + 0.1*src.Float64(), Mem: 0.05}, sim.Time(10+src.Intn(50))*sim.Minute)
			j.Scheduler = trace.SchedulerBatch
			for i := range j.Specs {
				j.Specs[i].Restarts = src.Intn(2)
			}
		case 2: // beb jobs bypassing the queue, killed mid-flight
			j = mkJob(id, 115, trace.TierBestEffortBatch, 2,
				trace.Resources{CPU: 0.08, Mem: 0.05}, 2*sim.Hour)
			j.KillAfter = sim.Time(5+src.Intn(40)) * sim.Minute
		default: // production jobs that preempt the beb tier
			j = mkJob(id, 200, trace.TierProduction, 2,
				trace.Resources{CPU: 0.3, Mem: 0.3}, sim.Time(20+src.Intn(40))*sim.Minute)
		}
		id++
		at := sim.Time(src.Intn(int(3 * sim.Hour)))
		job := j
		rig.k.At(at, sim.Func(func(sim.Time) { rig.sched.Submit(job) }))
	}
	// Maintenance evictions keep tasks cycling through requeues.
	for i := 0; i < 8; i++ {
		mid := rig.cell.MachineIDs()[src.Intn(6)]
		rig.k.At(sim.Time(src.Intn(int(3*sim.Hour))), sim.Func(func(sim.Time) { rig.sched.EvictMachine(mid) }))
	}
	rig.k.Every(batchCheckPeriod, batchCheckPeriod/2, 4*sim.Hour, func(now sim.Time) {
		checkBEB(t, rig.sched, now)
	})

	rig.k.RunUntil(5 * sim.Hour)
	checkBEB(t, rig.sched, 5*sim.Hour)
	// Every job has terminated by now, so the incremental sum must have
	// cancelled back to (floating-point) zero, not drifted.
	if f := rig.sched.bebAllocatedFraction(); math.Abs(f) > 1e-9 {
		t.Fatalf("beb fraction %g after all jobs ended; want ~0", f)
	}
}

// TestUpdateTaskRequestKeepsBEBSum pins the autopilot integration: a
// request update on a counted task must move the incremental sum by
// exactly the request delta, and emit one UPDATE_RUNNING row carrying
// the new request.
func TestUpdateTaskRequestKeepsBEBSum(t *testing.T) {
	rig := newRig(t, fastConfig(), 2, trace.Resources{CPU: 1, Mem: 1})
	j := mkJob(1, 110, trace.TierBestEffortBatch, 1, trace.Resources{CPU: 0.2, Mem: 0.2}, 2*sim.Hour)
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(j) }))
	rig.k.RunUntil(10 * sim.Minute)

	task := &j.Tasks[0]
	if task.State != TaskRunning {
		t.Fatalf("task state %v; want running", task.State)
	}
	rows := rig.tr.InstanceEvents.Len()
	rig.sched.UpdateTaskRequest(task, trace.Resources{CPU: 0.35, Mem: 0.25})
	want := trace.InstanceEvent{Time: 10 * sim.Minute, Key: task.Key(), Type: trace.EventUpdateRunning,
		Machine: task.Machine, Priority: 110, Tier: trace.TierBestEffortBatch, Request: trace.Resources{CPU: 0.35, Mem: 0.25}}
	var last trace.InstanceEvent
	for ev := range rig.tr.InstanceEvents.All() {
		last = ev
	}
	if n := rig.tr.InstanceEvents.Len(); n != rows+1 || last != want {
		t.Fatalf("after the update: %d new rows, last %+v; want one %+v", n-rows, last, want)
	}
	checkBEB(t, rig.sched, 10*sim.Minute)
	if got := rig.sched.bebAllocatedFraction() * rig.cell.Capacity().CPU; math.Abs(got-0.35) > 1e-12 {
		t.Fatalf("beb CPU sum %g after update; want 0.35", got)
	}

	// A request write that bypasses UpdateTaskRequest leaves the sum
	// stale, but removal subtracts the recorded amount, so the error
	// heals at the task's next transition instead of drifting forever.
	task.Request = trace.Resources{CPU: 0.9, Mem: 0.25}
	rig.sched.KillJob(j, trace.EventKill)
	if f := rig.sched.bebAllocatedFraction(); math.Abs(f) > 1e-12 {
		t.Fatalf("beb fraction %g after kill following a bypassing write; want 0", f)
	}
}

// bebAllocatedFractionRecomputed is the pre-incremental full walk, kept
// as the oracle for the equivalence test: the two must agree to floating-
// point reassociation noise at every admission check. Jobs are visited in
// sorted ID order so the oracle itself is reproducible.
func bebAllocatedFractionRecomputed(s *Scheduler) float64 {
	capacity := s.cell.Capacity().CPU
	if capacity <= 0 {
		return 1
	}
	ids := make([]trace.CollectionID, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	alloc := 0.0
	for _, id := range ids {
		j := s.jobs[id]
		if j.Tier != trace.TierBestEffortBatch || j.State == JobDone || j.State == JobQueued {
			continue
		}
		for _, t := range j.Tasks {
			if t.State == TaskRunning || t.State == TaskPending {
				alloc += t.Request.CPU
			}
		}
	}
	return alloc / capacity
}
