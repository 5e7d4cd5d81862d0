package autopilot

import (
	"math"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// rig is a one-machine cell, overcommitted 1.2×, whose tasks a real
// scheduler places.
type rig struct {
	k     *sim.Kernel
	sched *scheduler.Scheduler
}

func newRig() *rig {
	cell := cluster.NewCell("test", cluster.OvercommitPolicy{CPUFactor: 1.2, MemFactor: 1.2})
	cell.AddMachine(trace.Resources{CPU: 1, Mem: 1}, "P0")
	k := sim.NewKernel()
	cfg := scheduler.Config{
		Policy:          scheduler.LeastAllocated,
		CandidateSample: 16,
		ServiceTime:     dist.LogNormalFromMedian(0.001, 0.1),
	}
	return &rig{k: k, sched: scheduler.New(cfg, cell, k, tracetest.NopSink{}, rng.New(1), nil)}
}

// run submits a production job with one task per request and runs the
// cell until every task is running.
func (r *rig) run(t *testing.T, id trace.CollectionID, scaling trace.VerticalScaling, requests ...trace.Resources) *scheduler.Job {
	t.Helper()
	j := scheduler.NewJob(id)
	j.CollectionType = trace.CollectionJob
	j.Priority = 120
	j.Tier = trace.TierProduction
	j.Scaling = scaling
	for _, req := range requests {
		j.AddTask(scheduler.TaskSpec{Request: req, Duration: 100 * sim.Hour})
	}
	r.k.At(r.k.Now(), sim.Func(func(sim.Time) { r.sched.Submit(j) }))
	r.k.RunUntil(r.k.Now() + sim.Minute)
	for i := range j.Tasks {
		if j.Tasks[i].State != scheduler.TaskRunning {
			t.Fatalf("job %d task %d is %v, want running", id, i, j.Tasks[i].State)
		}
	}
	return j
}

// setup runs one task of the given scaling and request and returns an
// autopilot over its scheduler.
func setup(t *testing.T, scaling trace.VerticalScaling, request trace.Resources) (*Autopilot, *scheduler.Scheduler, *scheduler.Task) {
	t.Helper()
	r := newRig()
	j := r.run(t, 1, scaling, request)
	return New(r.sched), r.sched, &j.Tasks[0]
}

func TestNoneStrategyNeverAdjusts(t *testing.T) {
	ap, _, task := setup(t, trace.ScalingNone, trace.Resources{CPU: 0.4, Mem: 0.4})
	for i := 0; i < 20; i++ {
		ap.Observe(task, trace.Resources{CPU: 0.05, Mem: 0.05})
		if task.Request.CPU != 0.4 {
			t.Fatalf("limit changed for non-autoscaled task: %v", task.Request)
		}
	}
	if ap.Updates() != 0 {
		t.Fatalf("updates %d", ap.Updates())
	}
	if tracked(ap) != 0 {
		t.Fatal("none tasks should not be tracked")
	}
}

func TestFullShrinksTowardPeak(t *testing.T) {
	ap, sched, task := setup(t, trace.ScalingFull, trace.Resources{CPU: 0.4, Mem: 0.4})
	for i := 0; i < 15; i++ {
		ap.Observe(task, trace.Resources{CPU: 0.05, Mem: 0.08})
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
	if alloc := sched.Allocated(task.Machine); alloc.CPU > 0.06 {
		t.Fatalf("machine allocation not updated: %v", alloc)
	}
}

func TestFullGrowsOnPressure(t *testing.T) {
	ap, _, task := setup(t, trace.ScalingFull, trace.Resources{CPU: 0.1, Mem: 0.1})
	for i := 0; i < 5; i++ {
		ap.Observe(task, trace.Resources{CPU: 0.3, Mem: 0.3})
	}
	if task.Request.CPU < 0.3 || task.Request.Mem < 0.3 {
		t.Fatalf("limit did not grow above usage: %+v", task.Request)
	}
}

func TestGrowthCappedByMachineHeadroom(t *testing.T) {
	r := newRig()
	task := &r.run(t, 1, trace.ScalingFull, trace.Resources{CPU: 0.1, Mem: 0.1}).Tasks[0]
	// Fill the machine with another resident so headroom is scarce.
	other := &r.run(t, 99, trace.ScalingNone, trace.Resources{CPU: 1.0, Mem: 1.0}).Tasks[0]
	ap := New(r.sched)
	for i := 0; i < 5; i++ {
		ap.Observe(task, trace.Resources{CPU: 0.9, Mem: 0.9})
	}
	if head := r.sched.Headroom(task.Machine); head.CPU < -1e-9 || head.Mem < -1e-9 {
		t.Fatalf("allocation %v exceeds the ceiling by %v", r.sched.Allocated(task.Machine), head)
	}
	if task.Request.CPU <= 0.1 || ap.Updates() == 0 {
		t.Fatalf("limit %v did not grow into the headroom", task.Request)
	}
	// The capped limit is the one the machine's allocation counts.
	want := task.Request.Add(other.Request)
	if got := r.sched.Allocated(task.Machine); math.Abs(got.CPU-want.CPU) > 1e-9 || math.Abs(got.Mem-want.Mem) > 1e-9 {
		t.Fatalf("allocated %v, residents' requests sum to %v", got, want)
	}
}

func TestConstrainedFloor(t *testing.T) {
	ap, _, task := setup(t, trace.ScalingConstrained, trace.Resources{CPU: 0.4, Mem: 0.4})
	for i := 0; i < 20; i++ {
		ap.Observe(task, trace.Resources{CPU: 0.01, Mem: 0.01})
	}
	floor := 0.4 * constrainedFloor
	if task.Request.CPU < floor-1e-9 {
		t.Fatalf("constrained limit %v fell below floor %v", task.Request.CPU, floor)
	}
	// Full scaling with the same usage would shrink far below the floor.
	ap2, _, task2 := setup(t, trace.ScalingFull, trace.Resources{CPU: 0.4, Mem: 0.4})
	for i := 0; i < 20; i++ {
		ap2.Observe(task2, trace.Resources{CPU: 0.01, Mem: 0.01})
	}
	if task2.Request.CPU >= task.Request.CPU {
		t.Fatalf("full (%v) should shrink below constrained (%v)", task2.Request.CPU, task.Request.CPU)
	}
}

func TestWindowPeakMemory(t *testing.T) {
	ap, _, task := setup(t, trace.ScalingFull, trace.Resources{CPU: 0.5, Mem: 0.5})
	// One tall peak, then quiet: the percentile recommender must keep the
	// limit well above the quiet level while the peak is in the window.
	ap.Observe(task, trace.Resources{CPU: 0.4, Mem: 0.4})
	for i := 1; i < 6; i++ {
		ap.Observe(task, trace.Resources{CPU: 0.05, Mem: 0.05})
	}
	// With the p85 recommender, one 0.4 peak among five 0.05 samples
	// keeps the limit well above the quiet level (≈0.14), though below
	// the raw peak.
	if task.Request.CPU < 0.1 {
		t.Fatalf("limit %v forgot an in-window peak", task.Request.CPU)
	}
	// After the window slides past the peak, the limit shrinks.
	for i := 6; i < 25; i++ {
		ap.Observe(task, trace.Resources{CPU: 0.05, Mem: 0.05})
	}
	if task.Request.CPU > 0.1 {
		t.Fatalf("limit %v did not shrink after peak left the window", task.Request.CPU)
	}
}

func TestHysteresisSuppressesSmallChanges(t *testing.T) {
	ap, _, task := setup(t, trace.ScalingFull, trace.Resources{CPU: 0.11, Mem: 0.11})
	ap.Observe(task, trace.Resources{CPU: 0.1, Mem: 0.1})
	base := ap.Updates()
	// Recommended = 0.1 × 1.1 = 0.11 = current limit: no update.
	ap.Observe(task, trace.Resources{CPU: 0.1, Mem: 0.1})
	if ap.Updates() != base {
		t.Fatalf("update issued for insignificant change (updates %d -> %d)", base, ap.Updates())
	}
}

// TestForget: Sweep keeps the window of a task observed since the last
// sweep and forgets the window of one that was not.
func TestForget(t *testing.T) {
	ap, _, task := setup(t, trace.ScalingFull, trace.Resources{CPU: 0.4, Mem: 0.4})
	ap.Observe(task, trace.Resources{CPU: 0.1, Mem: 0.1})
	if tracked(ap) != 1 || task.Autoscale == 0 {
		t.Fatalf("tracked %d", tracked(ap))
	}
	ap.Sweep()
	if tracked(ap) != 1 || task.Autoscale == 0 {
		t.Fatalf("observed task forgotten by the sweep: tracked %d", tracked(ap))
	}
	ap.Sweep()
	if tracked(ap) != 0 || task.Autoscale != 0 {
		t.Fatalf("tracked after an unobserved window %d", tracked(ap))
	}
	// The next window starts empty, even when recycled from the swept one.
	ap.Observe(task, trace.Resources{CPU: 0.2, Mem: 0.2})
	if w := ap.windows[task.Autoscale]; len(w.cpus) != 1 || w.percentile(1).CPU != 0.2 {
		t.Fatalf("new window holds %v", w.cpus)
	}
}

// TestSweptHandleReused: a handle Sweep releases goes to the next task
// that needs a window, with the same table slot and window, so the table
// does not grow with task turnover.
func TestSweptHandleReused(t *testing.T) {
	r := newRig()
	j := r.run(t, 1, trace.ScalingFull, trace.Resources{CPU: 0.4, Mem: 0.4}, trace.Resources{CPU: 0.3, Mem: 0.3})
	ap := New(r.sched)
	first, second := &j.Tasks[0], &j.Tasks[1]
	ap.Observe(first, trace.Resources{CPU: 0.1, Mem: 0.1})
	h, w := first.Autoscale, ap.windows[first.Autoscale]
	ap.Sweep()
	ap.Sweep()
	if first.Autoscale != 0 {
		t.Fatalf("swept task still holds handle %d", first.Autoscale)
	}
	ap.Observe(second, trace.Resources{CPU: 0.2, Mem: 0.2})
	if second.Autoscale != h || ap.windows[h] != w {
		t.Fatalf("new task got handle %d, want the swept handle %d and its window", second.Autoscale, h)
	}
	if len(ap.windows) != 2 || len(ap.free) != 0 {
		t.Fatalf("window table has %d slots and %d free handles, want 2 and 0", len(ap.windows), len(ap.free))
	}
	if w.original != (trace.Resources{CPU: 0.3, Mem: 0.3}) || len(w.cpus) != 1 {
		t.Fatalf("reused window not reset: original %v, %d samples", w.original, len(w.cpus))
	}
}

// TestReclaimedArrayKeepsItsWindow: a task observed in a sampling
// window whose job dies later in the same walk stays on the tracked list
// until the next sweep drops it. The scheduler must not hand its task
// array to a new job before then; if it did, the new occupant would be
// tracked twice, or a sweep would clear its handle and free its window.
// Jobs of the same size then arrive one per window, and one of them gets
// the dead job's array; after every sweep each running task keeps a
// handle of its own that is not on the free list.
func TestReclaimedArrayKeepsItsWindow(t *testing.T) {
	r := newRig()
	ap := New(r.sched)
	req := trace.Resources{CPU: 0.1, Mem: 0.1}
	peak := trace.Resources{CPU: 0.05, Mem: 0.05}

	dying := r.run(t, 1, trace.ScalingFull, req)
	dead := &dying.Tasks[0]
	ap.Observe(dead, peak)
	r.sched.KillJob(dying, trace.EventKill)
	ap.Sweep()
	r.sched.Reclaim()

	var running []*scheduler.Task
	reused := false
	for id := trace.CollectionID(2); id <= 5; id++ {
		task := &r.run(t, id, trace.ScalingFull, req).Tasks[0]
		reused = reused || task == dead
		running = append(running, task)
		for _, rt := range running {
			ap.Observe(rt, peak)
		}
		ap.Sweep()
		r.sched.Reclaim()

		if len(ap.tracked) != len(running) {
			t.Fatalf("window %d: %d tracked tasks, want the %d running", id, len(ap.tracked), len(running))
		}
		held := make(map[int32]bool)
		for _, rt := range running {
			if rt.Autoscale == 0 || held[rt.Autoscale] {
				t.Fatalf("window %d: job %d's task holds handle %d, want one of its own", id, rt.Job.ID, rt.Autoscale)
			}
			held[rt.Autoscale] = true
		}
		for _, h := range ap.free {
			if held[h] {
				t.Fatalf("window %d: handle %d is free while a running task holds it", id, h)
			}
		}
	}
	if !reused {
		t.Fatal("no later job reused the dead job's task array")
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
// update through the scheduler.
func TestObserveSteadyStateZeroAllocs(t *testing.T) {
	ap, _, task := setup(t, trace.ScalingFull, trace.Resources{CPU: 0.4, Mem: 0.4})

	// Alternating quiet and busy stretches keep the recommendation moving,
	// so the measured calls include limit updates as well as no-ops.
	observe := func() {
		for i := 0; i < 24; i++ {
			peak := trace.Resources{CPU: 0.05, Mem: 0.08}
			if i >= 12 {
				peak = trace.Resources{CPU: 0.3, Mem: 0.25}
			}
			ap.Observe(task, peak)
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
