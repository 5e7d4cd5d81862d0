package scheduler

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// These tests cover cross-feature interactions: batch queue × kill,
// autoscaling-field plumbing, eviction of alloc instances, and the
// priority structure of preemption.

func TestKillWhileBatchQueued(t *testing.T) {
	cfg := fastConfig()
	cfg.Batch = true
	cfg.BatchAllocCeiling = 0.5
	rig := newRig(t, cfg, 2, trace.Resources{CPU: 1, Mem: 1})
	j := mkJob(1, 110, trace.TierBestEffortBatch, 1, trace.Resources{CPU: 0.1, Mem: 0.1}, sim.Hour)
	j.Scheduler = trace.SchedulerBatch
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(j) }))
	// Kill before the first admission check fires.
	rig.k.At(batchCheckPeriod/2, sim.Func(func(sim.Time) { rig.sched.KillJob(j, trace.EventKill) }))
	rig.k.RunUntil(30 * sim.Minute)

	if j.State != JobDone || j.FinalType != trace.EventKill {
		t.Fatalf("job %v/%v", j.State, j.FinalType)
	}
	// The queued job must never be enabled or scheduled after its kill.
	if got := eventsOfType(rig.tr, 1, trace.EventEnable); got != 0 {
		t.Fatalf("killed-in-queue job was enabled %d times", got)
	}
	if got := instanceEventsOfType(rig.tr, 1, trace.EventSchedule); got != 0 {
		t.Fatalf("killed-in-queue job was scheduled %d times", got)
	}
}

func TestEvictedAllocInstanceDisplacesInnerTasks(t *testing.T) {
	rig := newRig(t, fastConfig(), 3, trace.Resources{CPU: 1, Mem: 1})
	as := NewJob(1)
	as.Type = trace.CollectionAllocSet
	as.Priority = 200
	as.Tier = trace.TierProduction
	as.AddTask(&Task{Request: trace.Resources{CPU: 0.5, Mem: 0.5}, Duration: 10 * sim.Hour})
	as.AddTask(&Task{Request: trace.Resources{CPU: 0.5, Mem: 0.5}, Duration: 10 * sim.Hour})
	inner := mkJob(2, 120, trace.TierProduction, 2, trace.Resources{CPU: 0.2, Mem: 0.2}, 5*sim.Hour)
	inner.AllocSet = 1
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(as) }))
	rig.k.At(time5m(), sim.Func(func(sim.Time) { rig.sched.Submit(inner) }))

	// Evict one alloc instance directly (as machine maintenance would).
	rig.k.At(30*sim.Minute, sim.Func(func(sim.Time) { rig.sched.Evict(as.Tasks[0]) }))
	rig.k.RunUntil(8 * sim.Hour)

	// The alloc set task is re-placed; inner tasks displaced from the
	// evicted instance are rescheduled into a live reservation — the
	// inner JOB must survive (not be killed).
	if inner.State != JobDone || inner.FinalType != trace.EventFinish {
		t.Fatalf("inner job %v/%v after instance eviction; want it to finish", inner.State, inner.FinalType)
	}
	if got := instanceEventsOfType(rig.tr, 1, trace.EventEvict); got != 1 {
		t.Fatalf("alloc-instance evictions %d", got)
	}
}

func time5m() sim.Time { return 5 * sim.Minute }

func TestProdNeverPreemptsProd(t *testing.T) {
	rig := newRigOC(t, fastConfig(), strictOC, 1, trace.Resources{CPU: 1, Mem: 1})
	lowProd := mkJob(1, 120, trace.TierProduction, 1, trace.Resources{CPU: 0.9, Mem: 0.9}, 3*sim.Hour)
	highProd := mkJob(2, 450, trace.TierProduction, 1, trace.Resources{CPU: 0.9, Mem: 0.9}, sim.Hour)
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(lowProd) }))
	rig.k.At(sim.Minute, sim.Func(func(sim.Time) { rig.sched.Submit(highProd) }))
	rig.k.RunUntil(6 * sim.Hour)

	if got := instanceEventsOfType(rig.tr, 1, trace.EventEvict); got != 0 {
		t.Fatalf("prod-120 task evicted %d times by prod-450 — SLO violation", got)
	}
	// The stronger job still runs, just later.
	if highProd.State != JobDone || highProd.FinalType != trace.EventFinish {
		t.Fatalf("high-prod job %v/%v", highProd.State, highProd.FinalType)
	}
}

func TestPreemptionFreesOnlyWhatIsNeeded(t *testing.T) {
	rig := newRigOC(t, fastConfig(), strictOC, 1, trace.Resources{CPU: 1, Mem: 1})
	// Four small free-tier tasks fill the machine.
	filler := mkJob(1, 0, trace.TierFree, 4, trace.Resources{CPU: 0.24, Mem: 0.24}, 5*sim.Hour)
	// A prod task needing one victim's worth of room.
	prod := mkJob(2, 200, trace.TierProduction, 1, trace.Resources{CPU: 0.2, Mem: 0.2}, sim.Hour)
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(filler) }))
	rig.k.At(sim.Minute, sim.Func(func(sim.Time) { rig.sched.Submit(prod) }))
	rig.k.RunUntil(20 * sim.Minute)

	if got := instanceEventsOfType(rig.tr, 1, trace.EventEvict); got != 1 {
		t.Fatalf("evicted %d filler tasks, want exactly 1", got)
	}
	if prod.FirstRun < 0 {
		t.Fatal("prod task never placed")
	}
}

func TestTaskRestartsSurviveEviction(t *testing.T) {
	rig := newRig(t, fastConfig(), 2, trace.Resources{CPU: 1, Mem: 1})
	j := mkJob(1, 0, trace.TierFree, 1, trace.Resources{CPU: 0.2, Mem: 0.2}, sim.Hour)
	j.Tasks[0].Restarts = 1
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(j) }))
	// Evict mid-first-segment.
	rig.k.At(10*sim.Minute, sim.Func(func(sim.Time) { rig.sched.Evict(j.Tasks[0]) }))
	rig.k.RunUntil(6 * sim.Hour)

	if j.State != JobDone || j.FinalType != trace.EventFinish {
		t.Fatalf("job %v/%v", j.State, j.FinalType)
	}
	// One EVICT, one scripted FAIL, and enough SUBMITs to cover both.
	if got := instanceEventsOfType(rig.tr, 1, trace.EventEvict); got != 1 {
		t.Fatalf("evictions %d", got)
	}
	if got := instanceEventsOfType(rig.tr, 1, trace.EventFail); got != 1 {
		t.Fatalf("fails %d", got)
	}
	if got := instanceEventsOfType(rig.tr, 1, trace.EventSubmit); got != 3 {
		t.Fatalf("submits %d, want 1 original + 2 requeues", got)
	}
	// Total running time is preserved across eviction and restart.
	var running, lastStart sim.Time
	for ev := range rig.tr.InstanceEvents.All() {
		switch ev.Type {
		case trace.EventSchedule:
			lastStart = ev.Time
		case trace.EventEvict, trace.EventFail, trace.EventFinish:
			running += ev.Time - lastStart
		}
	}
	if running != sim.Hour {
		t.Fatalf("total running %v, want 1h", running)
	}
}

func TestUnplaceHookFires(t *testing.T) {
	rig := newRig(t, fastConfig(), 1, trace.Resources{CPU: 1, Mem: 1})
	var hooks int
	var lastStart sim.Time
	rig.sched.UnplaceHook = func(task *Task, runStart sim.Time) {
		hooks++
		lastStart = runStart
	}
	j := mkJob(1, 0, trace.TierFree, 1, trace.Resources{CPU: 0.1, Mem: 0.1}, 10*sim.Minute)
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(j) }))
	rig.k.RunUntil(time30m())
	if hooks != 1 {
		t.Fatalf("unplace hook fired %d times", hooks)
	}
	if lastStart <= 0 {
		t.Fatalf("hook runStart %v", lastStart)
	}
	if n := len(rig.cell.OccupiedMachines()); n != 0 {
		t.Fatalf("%d machines still hold a resident", n)
	}
}

func time30m() sim.Time { return 30 * sim.Minute }

func TestOOMKillTerminalAfterRepeat(t *testing.T) {
	rig := newRig(t, fastConfig(), 1, trace.Resources{CPU: 1, Mem: 1})
	j := mkJob(1, 0, trace.TierFree, 1, trace.Resources{CPU: 0.1, Mem: 0.1}, 5*sim.Hour)
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(j) }))
	rig.k.RunUntil(5 * sim.Minute)
	m := rig.cell.Machine(rig.cell.MachineIDs()[0])

	overLimit := func() {
		for _, r := range m.LiveResidents() {
			m.SetResidentUsage(r, trace.Resources{CPU: 0.1, Mem: 1.5}) // way over its limit
		}
		rig.sched.HandleMemoryPressure(m.ID, m.Capacity.Mem)
	}
	overLimit() // first offense: FAIL + restart
	rig.k.RunUntil(10 * sim.Minute)
	if j.State == JobDone {
		t.Fatal("job dead after first OOM offense; should restart once")
	}
	overLimit() // second offense: terminal FAIL
	rig.k.RunUntil(20 * sim.Minute)
	if j.State != JobDone || j.FinalType != trace.EventFail {
		t.Fatalf("job %v/%v after repeat OOM, want terminal FAIL", j.State, j.FinalType)
	}
	if rig.sched.Stats().OOMKills != 2 {
		t.Fatalf("oom kills %d", rig.sched.Stats().OOMKills)
	}
}
