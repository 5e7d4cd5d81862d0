package scheduler

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// killedOnArrivalRowsSHA256 is the hash of killedOnArrivalRows' rows as
// the scheduler wrote them when every submitted job got its task array.
const killedOnArrivalRowsSHA256 = "4e1c43a7796f8421a9bbb49789f574d708dac539e641a8e04edc4ea6d5c53adf"

// killedOnArrivalRows runs children killed on arrival, beside a parent
// that ends and a child that finds its parent live, and returns every
// collection and instance row.
func killedOnArrivalRows(t *testing.T) string {
	rig := newRig(t, testConfig(), 2, trace.Resources{CPU: 1, Mem: 1})
	ended := mkJob(1, 200, trace.TierProduction, 1, trace.Resources{CPU: 0.2, Mem: 0.2}, 10*sim.Minute)
	live := mkJob(2, 200, trace.TierProduction, 2, trace.Resources{CPU: 0.2, Mem: 0.2}, 10*sim.Hour)

	// A batch-scheduled child of the ended parent, with a scripted kill
	// that must never fire and tasks that differ.
	late := NewJob(3)
	late.CollectionType = trace.CollectionJob
	late.Priority = 110
	late.Tier = trace.TierBestEffortBatch
	late.User = "late"
	late.Scheduler = trace.SchedulerBatch
	late.Parent = 1
	late.KillAfter = 20 * sim.Minute
	for i := range 3 {
		f := float64(i + 1)
		late.AddTask(TaskSpec{Request: trace.Resources{CPU: 0.01 * f, Mem: 0.02 * f}, Duration: sim.Time(i+1) * sim.Hour,
			Restarts: i, MeanCPU: 0.005 * f, MeanMem: 0.01 * f, PeakFact: 1 + 0.1*f})
	}
	// A child of a parent that never came, and one of the live parent.
	orphan := mkJob(4, 120, trace.TierMid, 2, trace.Resources{CPU: 0.1, Mem: 0.1}, sim.Hour)
	orphan.Parent = 99
	kept := mkJob(5, 120, trace.TierMid, 2, trace.Resources{CPU: 0.1, Mem: 0.1}, sim.Hour)
	kept.Parent = 2

	for _, s := range []struct {
		at  sim.Time
		job *Job
	}{{0, ended}, {0, live}, {sim.Hour, late}, {sim.Hour, orphan}, {sim.Hour + sim.Second, kept}} {
		rig.k.At(s.at, sim.Func(func(sim.Time) { rig.sched.Submit(s.job) }))
	}
	rig.k.RunUntil(3 * sim.Hour)
	if late.State != JobDone || late.FinalType != trace.EventKill || orphan.FinalType != trace.EventKill {
		t.Fatalf("late child %v/%v, orphan %v: want both killed", late.State, late.FinalType, orphan.FinalType)
	}
	return fmt.Sprint(slices.Collect(rig.tr.CollectionEvents.All()), slices.Collect(rig.tr.InstanceEvents.All()))
}

// TestKilledOnArrivalRowsPinned: a job killed on arrival writes the
// SUBMIT and KILL rows it wrote when it had a task array of its own.
func TestKilledOnArrivalRowsPinned(t *testing.T) {
	if h := fmt.Sprintf("%x", sha256.Sum256([]byte(killedOnArrivalRows(t)))); h != killedOnArrivalRowsSHA256 {
		t.Fatalf("rows sha256 %s, want %s", h, killedOnArrivalRowsSHA256)
	}
}

// TestKilledOnArrivalZeroAllocs: Submit allocates no task state for a
// job killed on arrival, so submitting one allocates the same with 1
// task as with 1,000: nothing. A kept child's Submit does allocate: its
// task array.
func TestKilledOnArrivalZeroAllocs(t *testing.T) {
	const runs = 100
	allocs := func(tasks int, parent trace.CollectionID) float64 {
		cell := cluster.NewCell("test", defaultOC)
		cell.AddMachine(trace.Resources{CPU: 1, Mem: 1}, "P0")
		s := New(fastConfig(), cell, sim.NewKernel(), tracetest.NopSink{}, rng.New(1), nil)
		s.Submit(mkJob(1, 120, trace.TierMid, 1, trace.Resources{CPU: 0.1, Mem: 0.1}, sim.Hour))
		// Every job shares one spec slice, as a source's jobs share its
		// buffer; Submit only reads it.
		specs := mkJob(0, 0, 0, tasks, trace.Resources{CPU: 0.01, Mem: 0.01}, sim.Hour).Specs
		jobs := make([]*Job, runs+1)
		for i := range jobs {
			jobs[i] = NewJob(trace.CollectionID(i + 2))
			jobs[i].Parent = parent
			jobs[i].Specs = specs
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			s.Submit(jobs[next])
			next++
		})
	}
	one, many := allocs(1, 1<<40), allocs(1000, 1<<40)
	if one != 0 || many != 0 {
		t.Fatalf("Submit of a job killed on arrival: %v allocs with 1 task, %v with 1,000; want 0", one, many)
	}
	if kept := allocs(1000, 1); kept < 1 {
		t.Fatalf("Submit of a kept child: %v allocs, want its task array", kept)
	}
}
