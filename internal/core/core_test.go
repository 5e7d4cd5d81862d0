package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// smallRun simulates a small 2019 cell; shared across tests via sync once
// semantics would hide determinism issues, so each test runs its own.
func smallRun(t *testing.T, seed uint64) *CellResult {
	t.Helper()
	p := workload.Profile2019("a", 120)
	return Run(p, Options{Horizon: 8 * sim.Hour, Seed: seed})
}

func TestRunProducesTrace(t *testing.T) {
	res := smallRun(t, 1)
	tr := res.Trace
	if len(tr.MachineEvents) != 120 {
		t.Fatalf("machine events %d", len(tr.MachineEvents))
	}
	if len(tr.CollectionEvents) == 0 || len(tr.InstanceEvents) == 0 || len(tr.UsageRecords) == 0 {
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
	res := smallRun(t, 2)
	violations := trace.Validate(res.Trace, trace.DefaultValidateOptions())
	if len(violations) != 0 {
		t.Fatalf("%d violations, first: %v", len(violations), violations[0])
	}
}

func TestDeterminism(t *testing.T) {
	a := smallRun(t, 7)
	b := smallRun(t, 7)
	ta, tb := a.Trace, b.Trace
	if len(ta.CollectionEvents) != len(tb.CollectionEvents) ||
		len(ta.InstanceEvents) != len(tb.InstanceEvents) ||
		len(ta.UsageRecords) != len(tb.UsageRecords) {
		t.Fatalf("row counts differ: %s vs %s", ta.Counts(), tb.Counts())
	}
	for i := range ta.CollectionEvents {
		if ta.CollectionEvents[i] != tb.CollectionEvents[i] {
			t.Fatalf("collection event %d differs: %+v vs %+v", i, ta.CollectionEvents[i], tb.CollectionEvents[i])
		}
	}
	for i := range ta.InstanceEvents {
		if ta.InstanceEvents[i] != tb.InstanceEvents[i] {
			t.Fatalf("instance event %d differs", i)
		}
	}
	for i := range ta.UsageRecords {
		if ta.UsageRecords[i] != tb.UsageRecords[i] {
			t.Fatalf("usage record %d differs: %+v vs %+v", i, ta.UsageRecords[i], tb.UsageRecords[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := smallRun(t, 1)
	b := smallRun(t, 99)
	if len(a.Trace.CollectionEvents) == len(b.Trace.CollectionEvents) &&
		len(a.Trace.UsageRecords) == len(b.Trace.UsageRecords) {
		// Counts could coincide; compare content of the first events.
		same := true
		for i := 0; i < 50 && i < len(a.Trace.CollectionEvents); i++ {
			if a.Trace.CollectionEvents[i] != b.Trace.CollectionEvents[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestUtilizationInSaneBand(t *testing.T) {
	res := smallRun(t, 3)
	tr := res.Trace
	// Average CPU usage as a fraction of capacity over the second half
	// of the run (post-warmup) should be meaningful but below 1.
	var capCPU float64
	for _, ev := range tr.MachineEvents {
		if ev.Type == trace.MachineAdd {
			capCPU += ev.Capacity.CPU
		}
	}
	half := tr.Meta.Duration / 2
	var usageHours float64
	for _, rec := range tr.UsageRecords {
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

func TestExtraSinksSeeEverything(t *testing.T) {
	p := workload.Profile2019("b", 80)
	extra := trace.NewMemTrace(trace.Meta{})
	res := Run(p, Options{Horizon: 4 * sim.Hour, Seed: 5, ExtraSinks: []trace.Sink{extra}})
	if len(extra.CollectionEvents) != len(res.Trace.CollectionEvents) ||
		len(extra.UsageRecords) != len(res.Trace.UsageRecords) {
		t.Fatalf("extra sink missed rows: %s vs %s", extra.Counts(), res.Trace.Counts())
	}
}

func TestIDBaseSeparatesCells(t *testing.T) {
	p := workload.Profile2019("a", 60)
	a := Run(p, Options{Horizon: 2 * sim.Hour, Seed: 1, IDBase: 0})
	b := Run(p, Options{Horizon: 2 * sim.Hour, Seed: 2, IDBase: 1 << 32})
	for _, id := range b.Trace.Collections() {
		if id <= 1<<32 {
			t.Fatalf("collection id %d below IDBase", id)
		}
	}
	for _, id := range a.Trace.Collections() {
		if id >= 1<<32 {
			t.Fatalf("collection id %d above expected range", id)
		}
	}
}

func TestHistogramsOption(t *testing.T) {
	p := workload.Profile2019("a", 40)
	res := Run(p, Options{Horizon: 2 * sim.Hour, Seed: 4, Histograms: true})
	withHist := 0
	for _, rec := range res.Trace.UsageRecords {
		if rec.CPUHistogram != nil {
			withHist++
			if rec.CPUHistogram.Total() == 0 {
				t.Fatal("empty histogram")
			}
		}
	}
	if withHist == 0 {
		t.Fatal("no histograms recorded")
	}
	// Default: no histograms.
	res2 := Run(p, Options{Horizon: 1 * sim.Hour, Seed: 4})
	for _, rec := range res2.Trace.UsageRecords {
		if rec.CPUHistogram != nil {
			t.Fatal("histogram recorded despite being disabled")
		}
	}
}

func Test2011ProfileRuns(t *testing.T) {
	p := workload.Profile2011(120)
	res := Run(p, Options{Horizon: 8 * sim.Hour, Seed: 11})
	tr := res.Trace
	if tr.Meta.Era != trace.Era2011 {
		t.Fatal("era")
	}
	violations := trace.Validate(tr, trace.DefaultValidateOptions())
	if len(violations) != 0 {
		t.Fatalf("%d violations, first: %v", len(violations), violations[0])
	}
	// No 2019-only features in the event stream.
	for _, ev := range tr.CollectionEvents {
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
	res := Run(p, Options{Horizon: 4 * sim.Hour, Seed: 6, DisableAutopilot: true})
	if res.AutopilotUpdates != 0 {
		t.Fatalf("autopilot updates %d with autopilot disabled", res.AutopilotUpdates)
	}
	for _, ev := range res.Trace.InstanceEvents {
		if ev.Type == trace.EventUpdateRunning {
			t.Fatal("UPDATE_RUNNING with autopilot disabled")
		}
	}
}

func TestSchedulingDelaysPositive(t *testing.T) {
	res := smallRun(t, 8)
	tr := res.Trace
	// For every job with a SCHEDULE, the first SCHEDULE must come at or
	// after the ENABLE.
	enable := map[trace.CollectionID]sim.Time{}
	for _, ev := range tr.CollectionEvents {
		if ev.Type == trace.EventEnable {
			enable[ev.Collection] = ev.Time
		}
	}
	firstRun := map[trace.CollectionID]sim.Time{}
	for _, ev := range tr.InstanceEvents {
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
