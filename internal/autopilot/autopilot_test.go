package autopilot

import (
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// setRequest stands in for the scheduler's request setter: these tests
// run the autopilot without a scheduler.
func setRequest(t *scheduler.Task, rec trace.Resources) { t.Request = rec }

func setup(t *testing.T, scaling trace.VerticalScaling, request trace.Resources) (*Autopilot, *cluster.Cell, *scheduler.Task, *trace.MemTrace) {
	t.Helper()
	cell := cluster.NewCell("test")
	m := cell.AddMachine(trace.Resources{CPU: 1, Mem: 1}, "P0")
	tr := trace.NewMemTrace(trace.Meta{})
	oc := cluster.OvercommitPolicy{CPUFactor: 1.2, MemFactor: 1.2}
	ap := New(oc, cell, tr, setRequest)

	j := scheduler.NewJob(1)
	j.Type = trace.CollectionJob
	j.Priority = 120
	j.Tier = trace.TierProduction
	j.Scaling = scaling
	task := &scheduler.Task{Request: request, Duration: sim.Hour}
	j.AddTask(task)
	task.Machine = m.ID
	cell.Place(m.ID, &cluster.Resident{Key: task.Key, Limit: request, Priority: 120, Tier: trace.TierProduction})
	return ap, cell, task, tr
}

func TestNoneStrategyNeverAdjusts(t *testing.T) {
	ap, _, task, tr := setup(t, trace.ScalingNone, trace.Resources{CPU: 0.4, Mem: 0.4})
	for i := 0; i < 20; i++ {
		got := ap.Observe(sim.Time(i)*sim.SampleWindow, task, trace.Resources{CPU: 0.05, Mem: 0.05})
		if got != task.Request || got.CPU != 0.4 {
			t.Fatalf("limit changed for non-autoscaled task: %v", got)
		}
	}
	if ap.Updates() != 0 || tr.InstanceEvents.Len() != 0 {
		t.Fatalf("updates %d events %d", ap.Updates(), tr.InstanceEvents.Len())
	}
	if tracked(ap) != 0 {
		t.Fatal("none tasks should not be tracked")
	}
}

func TestFullShrinksTowardPeak(t *testing.T) {
	ap, cell, task, tr := setup(t, trace.ScalingFull, trace.Resources{CPU: 0.4, Mem: 0.4})
	for i := 0; i < 15; i++ {
		ap.Observe(sim.Time(i)*sim.SampleWindow, task, trace.Resources{CPU: 0.05, Mem: 0.08})
	}
	// Limit should approach peak × margin = 0.05×1.1 / 0.08×1.1.
	if task.Request.CPU > 0.06 || task.Request.Mem > 0.095 {
		t.Fatalf("limit did not shrink: %+v", task.Request)
	}
	if task.Request.CPU < 0.05 || task.Request.Mem < 0.08 {
		t.Fatalf("limit below peak: %+v", task.Request)
	}
	if ap.Updates() == 0 {
		t.Fatal("no updates issued")
	}
	// Machine allocation tracks the shrunken limit.
	m := cell.Machine(task.Machine)
	if m.Allocated().CPU > 0.06 {
		t.Fatalf("machine allocation not updated: %v", m.Allocated())
	}
	// UPDATE_RUNNING events were emitted.
	found := false
	for ev := range tr.InstanceEvents.All() {
		if ev.Type == trace.EventUpdateRunning {
			found = true
		}
	}
	if !found {
		t.Fatal("no UPDATE_RUNNING events")
	}
}

func TestFullGrowsOnPressure(t *testing.T) {
	ap, _, task, _ := setup(t, trace.ScalingFull, trace.Resources{CPU: 0.1, Mem: 0.1})
	for i := 0; i < 5; i++ {
		ap.Observe(sim.Time(i)*sim.SampleWindow, task, trace.Resources{CPU: 0.3, Mem: 0.3})
	}
	if task.Request.CPU < 0.3 || task.Request.Mem < 0.3 {
		t.Fatalf("limit did not grow above usage: %+v", task.Request)
	}
}

func TestGrowthCappedByMachineHeadroom(t *testing.T) {
	ap, cell, task, _ := setup(t, trace.ScalingFull, trace.Resources{CPU: 0.1, Mem: 0.1})
	// Fill the machine with another resident so headroom is scarce.
	m := cell.Machine(task.Machine)
	cell.Place(m.ID, &cluster.Resident{
		Key:   trace.InstanceKey{Collection: 99},
		Limit: trace.Resources{CPU: 1.0, Mem: 1.0},
	})
	for i := 0; i < 5; i++ {
		ap.Observe(sim.Time(i)*sim.SampleWindow, task, trace.Resources{CPU: 0.9, Mem: 0.9})
	}
	ceiling := ap.overcommit.AllocationCeiling(m.Capacity)
	if alloc := m.Allocated(); alloc.CPU > ceiling.CPU+1e-9 || alloc.Mem > ceiling.Mem+1e-9 {
		t.Fatalf("allocation %v exceeds ceiling %v", alloc, ceiling)
	}
}

func TestConstrainedFloor(t *testing.T) {
	ap, _, task, _ := setup(t, trace.ScalingConstrained, trace.Resources{CPU: 0.4, Mem: 0.4})
	for i := 0; i < 20; i++ {
		ap.Observe(sim.Time(i)*sim.SampleWindow, task, trace.Resources{CPU: 0.01, Mem: 0.01})
	}
	floor := 0.4 * constrainedFloor
	if task.Request.CPU < floor-1e-9 {
		t.Fatalf("constrained limit %v fell below floor %v", task.Request.CPU, floor)
	}
	// Full scaling with the same usage would shrink far below the floor.
	ap2, _, task2, _ := setup(t, trace.ScalingFull, trace.Resources{CPU: 0.4, Mem: 0.4})
	for i := 0; i < 20; i++ {
		ap2.Observe(sim.Time(i)*sim.SampleWindow, task2, trace.Resources{CPU: 0.01, Mem: 0.01})
	}
	if task2.Request.CPU >= task.Request.CPU {
		t.Fatalf("full (%v) should shrink below constrained (%v)", task2.Request.CPU, task.Request.CPU)
	}
}

func TestWindowPeakMemory(t *testing.T) {
	ap, _, task, _ := setup(t, trace.ScalingFull, trace.Resources{CPU: 0.5, Mem: 0.5})
	// One tall peak, then quiet: the percentile recommender must keep the
	// limit well above the quiet level while the peak is in the window.
	ap.Observe(0, task, trace.Resources{CPU: 0.4, Mem: 0.4})
	for i := 1; i < 6; i++ {
		ap.Observe(sim.Time(i)*sim.SampleWindow, task, trace.Resources{CPU: 0.05, Mem: 0.05})
	}
	// With the p85 recommender, one 0.4 peak among five 0.05 samples
	// keeps the limit well above the quiet level (≈0.14), though below
	// the raw peak.
	if task.Request.CPU < 0.1 {
		t.Fatalf("limit %v forgot an in-window peak", task.Request.CPU)
	}
	// After the window slides past the peak, the limit shrinks.
	for i := 6; i < 25; i++ {
		ap.Observe(sim.Time(i)*sim.SampleWindow, task, trace.Resources{CPU: 0.05, Mem: 0.05})
	}
	if task.Request.CPU > 0.1 {
		t.Fatalf("limit %v did not shrink after peak left the window", task.Request.CPU)
	}
}

func TestHysteresisSuppressesSmallChanges(t *testing.T) {
	ap, _, task, _ := setup(t, trace.ScalingFull, trace.Resources{CPU: 0.11, Mem: 0.11})
	ap.Observe(0, task, trace.Resources{CPU: 0.1, Mem: 0.1})
	base := ap.Updates()
	// Recommended = 0.1 × 1.1 = 0.11 = current limit: no update.
	ap.Observe(sim.SampleWindow, task, trace.Resources{CPU: 0.1, Mem: 0.1})
	if ap.Updates() != base {
		t.Fatalf("update issued for insignificant change (updates %d -> %d)", base, ap.Updates())
	}
}

// TestForget: Sweep keeps the window of a task observed since the last
// sweep and forgets the window of one that was not.
func TestForget(t *testing.T) {
	ap, _, task, _ := setup(t, trace.ScalingFull, trace.Resources{CPU: 0.4, Mem: 0.4})
	ap.Observe(0, task, trace.Resources{CPU: 0.1, Mem: 0.1})
	if tracked(ap) != 1 || task.Autoscale == nil {
		t.Fatalf("tracked %d", tracked(ap))
	}
	ap.Sweep()
	if tracked(ap) != 1 || task.Autoscale == nil {
		t.Fatalf("observed task forgotten by the sweep: tracked %d", tracked(ap))
	}
	ap.Sweep()
	if tracked(ap) != 0 || task.Autoscale != nil {
		t.Fatalf("tracked after an unobserved window %d", tracked(ap))
	}
	// The next window starts empty, even when recycled from the swept one.
	ap.Observe(sim.SampleWindow, task, trace.Resources{CPU: 0.2, Mem: 0.2})
	if w := task.Autoscale.(*window); len(w.cpus) != 1 || w.percentile(1).CPU != 0.2 {
		t.Fatalf("new window holds %v", w.cpus)
	}
}

// TestWindowOrderStatisticMatchesSort: the incrementally sorted window
// gives the same quantiles, bit for bit, as sorting the held samples.
func TestWindowOrderStatisticMatchesSort(t *testing.T) {
	w := newWindow(trace.Resources{})
	src := rng.New(3)
	var held []trace.Resources
	for i := 0; i < 200; i++ {
		// Coarse values make ties, which removal must handle.
		u := trace.Resources{CPU: float64(src.Intn(8)) / 8, Mem: src.Float64()}
		w.add(u)
		held = append(held, u)
		if len(held) > windowSamples {
			held = held[1:]
		}
		cpus := make([]float64, len(held))
		mems := make([]float64, len(held))
		for j, h := range held {
			cpus[j], mems[j] = h.CPU, h.Mem
		}
		sort.Float64s(cpus)
		sort.Float64s(mems)
		for _, q := range []float64{0, 0.5, 0.85, 1} {
			want := trace.Resources{CPU: stats.QuantileSorted(cpus, q), Mem: stats.QuantileSorted(mems, q)}
			if got := w.percentile(q); got != want {
				t.Fatalf("sample %d q=%v: got %v, want %v", i, q, got, want)
			}
		}
	}
}

// TestObserveSteadyStateZeroAllocs: once a task's window exists, Observe
// allocates nothing — neither the percentile over the window nor a limit
// update through the cell and a NopSink.
func TestObserveSteadyStateZeroAllocs(t *testing.T) {
	cell := cluster.NewCell("test")
	m := cell.AddMachine(trace.Resources{CPU: 1, Mem: 1}, "P0")
	ap := New(cluster.OvercommitPolicy{CPUFactor: 1.2, MemFactor: 1.2}, cell, trace.NopSink{}, setRequest)
	j := scheduler.NewJob(1)
	j.Scaling = trace.ScalingFull
	task := &scheduler.Task{Request: trace.Resources{CPU: 0.4, Mem: 0.4}, Duration: sim.Hour}
	j.AddTask(task)
	task.Machine = m.ID
	cell.Place(m.ID, &cluster.Resident{Key: task.Key, Limit: task.Request})

	// Alternating quiet and busy stretches keep the recommendation moving,
	// so the measured calls include limit updates as well as no-ops.
	now := sim.Time(0)
	observe := func() {
		for i := 0; i < 24; i++ {
			peak := trace.Resources{CPU: 0.05, Mem: 0.08}
			if i >= 12 {
				peak = trace.Resources{CPU: 0.3, Mem: 0.25}
			}
			ap.Observe(now, task, peak)
			now += sim.SampleWindow
		}
	}
	observe()
	before := ap.Updates()
	if avg := testing.AllocsPerRun(50, observe); avg != 0 {
		t.Fatalf("steady-state Observe: %.2f allocs per 24 calls, want 0", avg)
	}
	if ap.Updates() == before {
		t.Fatal("no limit updates during the measured calls")
	}
}

func TestSignificant(t *testing.T) {
	if significant(1.0, 1.01, 0.05) {
		t.Fatal("1% change flagged at 5% threshold")
	}
	if !significant(1.0, 1.2, 0.05) {
		t.Fatal("20% change not flagged")
	}
	if !significant(0, 0.5, 0.05) {
		t.Fatal("growth from zero not flagged")
	}
	if significant(0, 0, 0.05) {
		t.Fatal("zero to zero flagged")
	}
}

// tracked returns how many instances currently have usage windows.
func tracked(a *Autopilot) int { return len(a.tracked) }
