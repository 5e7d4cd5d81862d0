package scheduler

import (
	"maps"
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

// TestAllocSetEndingKillsItsParentInside covers a recording-only shape:
// an alloc set whose parent job runs inside it (the parent names the set
// before the set exists). When the set's instance ends, by finishing or
// by the set's own kill, it kills the hosted parent, the parent's
// termination kills the set, and that kill reaches the very instance
// being torn down. The instance must leave its machine once, with every
// row emitted once and UnplaceHook fired once per unplaced task.
func TestAllocSetEndingKillsItsParentInside(t *testing.T) {
	for _, tc := range []struct {
		name      string
		killAfter sim.Time
		want      trace.EventType
	}{
		{"finish", 0, trace.EventFinish},
		{"kill", 30 * sim.Minute, trace.EventKill},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newRig(t, fastConfig(), 1, trace.Resources{CPU: 1, Mem: 1})
			parent := mkJob(1, 120, trace.TierProduction, 1, trace.Resources{CPU: 0.2, Mem: 0.2}, 10*sim.Hour)
			parent.AllocSet = 2
			as := NewJob(2)
			as.CollectionType = trace.CollectionAllocSet
			as.Priority = 200
			as.Tier = trace.TierProduction
			as.Parent = 1
			as.KillAfter = tc.killAfter
			as.AddTask(TaskSpec{Request: trace.Resources{CPU: 0.5, Mem: 0.5}, Duration: sim.Hour})
			hooked := map[trace.InstanceKey]int{}
			rig.sched.UnplaceHook = func(t *Task, _ sim.Time) { hooked[t.Key()]++ }
			rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(parent) }))
			rig.k.At(sim.Second, sim.Func(func(sim.Time) { rig.sched.Submit(as) }))
			rig.k.RunUntil(3 * sim.Hour)

			if parent.FinalType != trace.EventKill || as.State != JobDone {
				t.Fatalf("parent ended %v, alloc set state %v; want the parent killed and the set done", parent.FinalType, as.State)
			}
			if parent.FirstRun < 0 {
				t.Fatal("the parent never ran inside the alloc set")
			}
			id := rig.cell.MachineIDs()[0]
			if n, alloc := len(rig.sched.Residents(id)), rig.sched.Allocated(id); n != 0 || alloc != (trace.Resources{}) {
				t.Fatalf("machine keeps %d residents, %v allocated", n, alloc)
			}
			kills := instanceEventsOfType(rig.tr, 2, trace.EventKill)
			finishes := instanceEventsOfType(rig.tr, 2, trace.EventFinish)
			if kills+finishes != 1 {
				t.Fatalf("alloc set instance ended %d times (%d KILL, %d FINISH), want once", kills+finishes, kills, finishes)
			}
			if tc.want == trace.EventKill && kills != 1 {
				t.Fatalf("alloc set instance ended by FINISH, want its own KILL")
			}
			want := map[trace.InstanceKey]int{{Collection: 1}: 1, {Collection: 2}: 1}
			if !maps.Equal(hooked, want) {
				t.Fatalf("UnplaceHook calls per task %v, want %v", hooked, want)
			}
		})
	}
}

func TestEvictedAllocInstanceDisplacesInnerTasks(t *testing.T) {
	rig := newRig(t, fastConfig(), 3, trace.Resources{CPU: 1, Mem: 1})
	as := NewJob(1)
	as.CollectionType = trace.CollectionAllocSet
	as.Priority = 200
	as.Tier = trace.TierProduction
	as.AddTask(TaskSpec{Request: trace.Resources{CPU: 0.5, Mem: 0.5}, Duration: 10 * sim.Hour})
	as.AddTask(TaskSpec{Request: trace.Resources{CPU: 0.5, Mem: 0.5}, Duration: 10 * sim.Hour})
	inner := mkJob(2, 120, trace.TierProduction, 2, trace.Resources{CPU: 0.2, Mem: 0.2}, 5*sim.Hour)
	inner.AllocSet = 1
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(as) }))
	rig.k.At(time5m(), sim.Func(func(sim.Time) { rig.sched.Submit(inner) }))

	// Evict one alloc instance directly (as machine maintenance would).
	rig.k.At(30*sim.Minute, sim.Func(func(sim.Time) { rig.sched.Evict(&as.Tasks[0]) }))
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

// TestEvictMachineSkipsDepartedBeforeCoin: machine maintenance walks a
// copy of the machine's residents. Evicting a free-tier alloc instance
// first (it is weakest) takes the production task it hosts off the
// machine, so when the walk reaches that task it is skipped before any
// production-SLO coin is drawn: the scheduler's random stream does not
// move.
func TestEvictMachineSkipsDepartedBeforeCoin(t *testing.T) {
	rig := newRig(t, fastConfig(), 1, trace.Resources{CPU: 1, Mem: 1})
	as := NewJob(1)
	as.CollectionType = trace.CollectionAllocSet
	as.Tier = trace.TierFree
	as.AddTask(TaskSpec{Request: trace.Resources{CPU: 0.5, Mem: 0.5}, Duration: 10 * sim.Hour})
	inner := mkJob(2, 200, trace.TierProduction, 1, trace.Resources{CPU: 0.2, Mem: 0.2}, 5*sim.Hour)
	inner.AllocSet = 1
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(as) }))
	rig.k.At(time5m(), sim.Func(func(sim.Time) { rig.sched.Submit(inner) }))
	rig.k.RunUntil(10 * sim.Minute)
	id := rig.cell.MachineIDs()[0]
	if n := len(rig.sched.Residents(id)); n != 2 || inner.Tasks[0].AllocInstance == nil {
		t.Fatalf("%d residents, inner task hosted %v; want the instance and its hosted task", n, inner.Tasks[0].AllocInstance != nil)
	}
	before := *rig.sched.src
	rig.sched.EvictMachine(id)
	if *rig.sched.src != before {
		t.Fatal("maintenance drew a coin for a task that had already left the machine")
	}
	if got := instanceEventsOfType(rig.tr, 2, trace.EventEvict); got != 1 {
		t.Fatalf("hosted task evicted %d times, want once (with its instance)", got)
	}
}

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
	j.Specs[0].Restarts = 1
	rig.k.At(0, sim.Func(func(sim.Time) { rig.sched.Submit(j) }))
	// Evict mid-first-segment.
	rig.k.At(10*sim.Minute, sim.Func(func(sim.Time) { rig.sched.Evict(&j.Tasks[0]) }))
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
	for _, id := range rig.cell.MachineIDs() {
		if n := len(rig.sched.Residents(id)); n != 0 {
			t.Fatalf("machine %d still holds %d residents", id, n)
		}
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
		for i, sl := range rig.sched.Residents(m.ID) {
			rig.sched.SetUsage(sl.Task, i, trace.Resources{CPU: 0.1, Mem: 1.5}) // way over its limit
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
