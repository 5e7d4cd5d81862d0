package core

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/workload"
)

// runRetained runs p under opts with a MemTrace attached through
// ExtraSinks, the way a caller that wants the rows keeps them.
func runRetained(p *workload.CellProfile, opts Options) (*CellResult, *trace.MemTrace) {
	tr := trace.NewMemTrace(TraceMeta(p, opts))
	opts.ExtraSinks = append(slices.Clip(opts.ExtraSinks), tr)
	return Run(p, opts), tr
}

// smallRun simulates a small 2019 cell; shared across tests via sync once
// semantics would hide determinism issues, so each test runs its own.
func smallRun(t *testing.T, seed uint64) (*CellResult, *trace.MemTrace) {
	t.Helper()
	return runRetained(workload.Profile2019("a", 120), Options{Horizon: 8 * sim.Hour, Seed: seed})
}

func TestRunProducesTrace(t *testing.T) {
	res, tr := smallRun(t, 1)
	if tr.MachineEvents.Len() != 120 {
		t.Fatalf("machine events %d", tr.MachineEvents.Len())
	}
	if tr.CollectionEvents.Len() == 0 || tr.InstanceEvents.Len() == 0 || tr.UsageRecords.Len() == 0 {
		t.Fatalf("empty trace: %s", tr.Counts())
	}
	if res.Sched.JobsSubmitted < 50 {
		t.Fatalf("jobs submitted %d", res.Sched.JobsSubmitted)
	}
	if res.Sched.TasksPlaced == 0 {
		t.Fatal("no tasks placed")
	}
	if res.AutopilotUpdates == 0 {
		t.Fatal("autopilot never adjusted a limit")
	}
}

func TestTraceValidates(t *testing.T) {
	_, tr := smallRun(t, 2)
	violations := tracetest.Validate(tr)
	if len(violations) != 0 {
		t.Fatalf("%d violations, first: %v", len(violations), violations[0])
	}
}

func TestDeterminism(t *testing.T) {
	_, ta := smallRun(t, 7)
	_, tb := smallRun(t, 7)
	if d := tracetest.Diff(ta, tb); d != "" {
		t.Fatal(d)
	}
}

// TestConcurrentCellsMatchSequential: cells simulated at once, each on
// its own fresh Arena, share no state, and each writes the trace it
// writes alone.
func TestConcurrentCellsMatchSequential(t *testing.T) {
	run := func(seed uint64) *trace.MemTrace {
		_, tr := runRetained(workload.Profile2019("a", 60), Options{Horizon: 4 * sim.Hour, Seed: seed})
		return tr
	}
	seeds := []uint64{3, 5, 7, 9}
	concurrent := make([]*trace.MemTrace, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = run(seed)
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		alone := run(seed)
		if d := tracetest.Diff(alone, concurrent[i]); d != "" {
			t.Fatalf("seed %d run beside other cells: %s", seed, d)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	_, a := smallRun(t, 1)
	_, b := smallRun(t, 99)
	if tracetest.Diff(a, b) == "" {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestUtilizationInSaneBand(t *testing.T) {
	_, tr := smallRun(t, 3)
	// Average CPU usage as a fraction of capacity over the second half
	// of the run (post-warmup) should be meaningful but below 1.
	var capCPU float64
	for ev := range tr.MachineEvents.All() {
		if ev.Type == trace.MachineAdd {
			capCPU += ev.Capacity.CPU
		}
	}
	half := tr.Meta.Duration / 2
	var usageHours float64
	for rec := range tr.UsageRecords.All() {
		if rec.Start >= half {
			usageHours += rec.AvgUsage.CPU * (rec.End - rec.Start).Hours()
		}
	}
	if usageHours == 0 {
		t.Fatal("no post-warmup usage")
	}
	frac := usageHours / ((tr.Meta.Duration - half).Hours() * capCPU)
	if frac < 0.10 || frac > 0.95 {
		t.Fatalf("post-warmup CPU utilization %v outside sane band", frac)
	}
}

// TestExtraSinksSeeEverything: every attached sink sees every row Run
// counts.
func TestExtraSinksSeeEverything(t *testing.T) {
	p := workload.Profile2019("b", 80)
	extra := &trace.CountingSink{}
	res, tr := runRetained(p, Options{Horizon: 4 * sim.Hour, Seed: 5, ExtraSinks: []trace.Sink{extra}})
	kept := trace.RowCounts{Collections: int64(tr.CollectionEvents.Len()), Instances: int64(tr.InstanceEvents.Len()),
		Usage: int64(tr.UsageRecords.Len()), Machines: int64(tr.MachineEvents.Len())}
	if extra.Counts() != res.Rows || kept != res.Rows {
		t.Fatalf("sinks missed rows: %+v and %+v, Run counted %+v", extra.Counts(), kept, res.Rows)
	}
}

func TestIDBaseSeparatesCells(t *testing.T) {
	p := workload.Profile2019("a", 60)
	_, a := runRetained(p, Options{Horizon: 2 * sim.Hour, Seed: 1, IDBase: 0})
	_, b := runRetained(p, Options{Horizon: 2 * sim.Hour, Seed: 2, IDBase: 1 << 32})
	for ev := range b.CollectionEvents.All() {
		if ev.Collection <= 1<<32 {
			t.Fatalf("collection id %d below IDBase", ev.Collection)
		}
	}
	for ev := range a.CollectionEvents.All() {
		if ev.Collection >= 1<<32 {
			t.Fatalf("collection id %d above expected range", ev.Collection)
		}
	}
}

// TestUsageDrawSequence pins the usage stream's randomness sequence: one
// resident-window draw takes a normal for CPU noise, a normal for memory
// noise and a uniform for the peak jitter, in that order and nothing
// else. Any change to it moves every usage row and every report byte.
func TestUsageDrawSequence(t *testing.T) {
	p := workload.Profile2019("a", 10)
	u := &usageSampler{p: p, src: rng.New(5)}
	ref := rng.New(5)
	task := &scheduler.Task{TaskSpec: scheduler.TaskSpec{MeanCPU: 0.02, MeanMem: 0.03, PeakFact: 1.8}}
	for i := range 100 {
		avg, jitter := u.draw(task)
		sigma := p.UsageNoiseSigma
		wantCPU := task.MeanCPU * math.Exp(sigma*ref.NormFloat64())
		wantMem := task.MeanMem * math.Exp(sigma*0.3*ref.NormFloat64())
		wantJitter := 1 + (task.PeakFact-1)*(0.7+0.6*ref.Float64())
		if avg.CPU != wantCPU || avg.Mem != wantMem || jitter != wantJitter {
			t.Fatalf("draw %d = (%v, %v), want (%v, %v)", i, avg, jitter,
				trace.Resources{CPU: wantCPU, Mem: wantMem}, wantJitter)
		}
	}
	if u.src.Uint64() != ref.Uint64() {
		t.Fatal("draw consumed a different number of variates than the reference")
	}
}

func Test2011ProfileRuns(t *testing.T) {
	p := workload.Profile2011(120)
	res, tr := runRetained(p, Options{Horizon: 8 * sim.Hour, Seed: 11})
	if tr.Meta.Era != trace.Era2011 {
		t.Fatal("era")
	}
	violations := tracetest.Validate(tr)
	if len(violations) != 0 {
		t.Fatalf("%d violations, first: %v", len(violations), violations[0])
	}
	// No 2019-only features in the event stream.
	for ev := range tr.CollectionEvents.All() {
		if ev.Type == trace.EventQueue {
			t.Fatal("2011 trace has batch QUEUE events")
		}
		if ev.CollectionType == trace.CollectionAllocSet {
			t.Fatal("2011 trace has alloc sets")
		}
	}
	if res.AutopilotUpdates != 0 {
		t.Fatalf("2011 autopilot updates %d", res.AutopilotUpdates)
	}
}

func TestDisableAutopilot(t *testing.T) {
	p := workload.Profile2019("a", 60)
	res, tr := runRetained(p, Options{Horizon: 4 * sim.Hour, Seed: 6, DisableAutopilot: true})
	if res.AutopilotUpdates != 0 {
		t.Fatalf("autopilot updates %d with autopilot disabled", res.AutopilotUpdates)
	}
	for ev := range tr.InstanceEvents.All() {
		if ev.Type == trace.EventUpdateRunning {
			t.Fatal("UPDATE_RUNNING with autopilot disabled")
		}
	}
}

func TestSchedulingDelaysPositive(t *testing.T) {
	_, tr := smallRun(t, 8)
	// For every job with a SCHEDULE, the first SCHEDULE must come at or
	// after the ENABLE.
	enable := map[trace.CollectionID]sim.Time{}
	for ev := range tr.CollectionEvents.All() {
		if ev.Type == trace.EventEnable {
			enable[ev.Collection] = ev.Time
		}
	}
	firstRun := map[trace.CollectionID]sim.Time{}
	for ev := range tr.InstanceEvents.All() {
		if ev.Type == trace.EventSchedule {
			if cur, ok := firstRun[ev.Key.Collection]; !ok || ev.Time < cur {
				firstRun[ev.Key.Collection] = ev.Time
			}
		}
	}
	checked := 0
	for id, fr := range firstRun {
		en, ok := enable[id]
		if !ok {
			continue
		}
		if fr < en {
			t.Fatalf("job %d first run %v before enable %v", id, fr, en)
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("too few jobs checked: %d", checked)
	}
}
