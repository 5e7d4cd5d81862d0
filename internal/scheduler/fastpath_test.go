package scheduler

import (
	"testing"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// TestPlacementSteadyStateZeroAllocs is the CI allocation guard: one
// steady-state placement cycle — candidate scoring, placing the chosen
// resident, and unplacing it — must not allocate.
func TestPlacementSteadyStateZeroAllocs(t *testing.T) {
	s, _ := benchCell(64, 8, trace.TierMid, 110,
		trace.Resources{CPU: 0.03, Mem: 0.03}, trace.Resources{CPU: 0.02, Mem: 0.02},
		defaultOC)
	task := benchTask(trace.Resources{CPU: 0.1, Mem: 0.1}, 120, trace.TierProduction)
	cycle := func() {
		m := s.pickMachine(task)
		if m == nil {
			t.Fatal("no feasible machine")
		}
		s.place(task, m.ID)
		s.remove(task)
	}
	for i := 0; i < 100; i++ {
		cycle() // grow the machines' slot slices
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("steady-state placement allocates %.1f allocs/op, want 0", avg)
	}
}

// TestInstrumentedPlacementZeroAllocs repeats the steady-state guard one
// layer up, through attemptPlacement and unplace with a caller-supplied
// metrics registry wired into the scheduler: the live counters, the
// trace emission and the task's end event must add no allocations to
// the placement cycle.
func TestInstrumentedPlacementZeroAllocs(t *testing.T) {
	reg := metrics.NewRegistry()
	cell := cluster.NewCell("bench", defaultOC)
	k := sim.NewKernel()
	cfg := testConfig()
	cfg.Batch = false
	cfg.ServiceTime = constService(0.001)
	s := New(cfg, cell, k, tracetest.NopSink{}, rng.New(7), reg)
	fillCell(s, cell, 64, 8, trace.TierMid, 110,
		trace.Resources{CPU: 0.03, Mem: 0.03}, trace.Resources{CPU: 0.02, Mem: 0.02})
	task := benchTask(trace.Resources{CPU: 0.1, Mem: 0.1}, 120, trace.TierProduction)
	cycle := func() {
		s.attemptPlacement(task, k.Now())
		if task.State != TaskRunning {
			t.Fatalf("task state %v after placement, want running", task.State)
		}
		s.stopRun(task, k.Now())
		s.unplace(task, true)
		task.State = TaskPending
	}
	for i := 0; i < 100; i++ {
		cycle() // grow the slot slices and the kernel's event slots
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("instrumented placement allocates %.1f allocs/op, want 0", avg)
	}
	if reg.Counter("sched_placement_attempts_total").Value() == 0 {
		t.Fatal("instrumented cycles recorded no placement attempts")
	}
}

// TestPreemptionProbeZeroAllocs guards the preemption scan: probing the
// cached victim order of unpreemptable machines must not allocate.
func TestPreemptionProbeZeroAllocs(t *testing.T) {
	s, _ := benchCell(32, 20, trace.TierProduction, 120,
		trace.Resources{CPU: 0.05, Mem: 0.05}, trace.Resources{CPU: 0.03, Mem: 0.03},
		strictOC)
	task := benchTask(trace.Resources{CPU: 0.5, Mem: 0.5}, 200, trace.TierProduction)
	probe := func() {
		if m := s.tryPreemption(task); m != nil {
			t.Fatal("preemption should be impossible")
		}
	}
	for i := 0; i < 50; i++ {
		probe()
	}
	if avg := testing.AllocsPerRun(200, probe); avg != 0 {
		t.Fatalf("preemption probe allocates %.1f allocs/op, want 0", avg)
	}
}

// TestEvictMachineZeroAllocs guards machine maintenance: once warm,
// evicting a machine's non-production residents and placing them back
// allocates nothing. The walk copies the resident list into a scratch
// slice, so no eviction makes the machine copy its own list.
func TestEvictMachineZeroAllocs(t *testing.T) {
	cell := cluster.NewCell("evict", defaultOC)
	m := cell.AddMachine(trace.Resources{CPU: 1, Mem: 1}, "P0")
	k := sim.NewKernel()
	cfg := testConfig()
	cfg.Batch = false
	cfg.ServiceTime = constService(0.001)
	s := New(cfg, cell, k, tracetest.NopSink{}, rng.New(7), nil)
	j := NewJob(1)
	j.CollectionType = trace.CollectionJob
	j.Tier = trace.TierFree
	for i := 0; i < 8; i++ {
		j.AddTask(TaskSpec{Request: trace.Resources{CPU: 0.1, Mem: 0.1}, Duration: 100 * sim.Hour})
	}
	k.At(0, sim.Func(func(sim.Time) { s.Submit(j) }))
	k.RunUntil(sim.Minute)
	cycle := func() {
		s.EvictMachine(m.ID)
		if n := len(s.Residents(m.ID)); n != 0 {
			t.Fatalf("%d residents survived maintenance", n)
		}
		k.RunUntil(k.Now() + sim.Minute)
		if n := len(s.Residents(m.ID)); n != len(j.Tasks) {
			t.Fatalf("%d of %d tasks placed back", n, len(j.Tasks))
		}
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("machine maintenance allocates %.1f allocs/op, want 0", avg)
	}
}

// TestTaskSize pins Task at 128 bytes: a job holds its tasks by value in
// one array, so a run allocates this much per task, and every job of a
// run allocates one such array. A field added past the bound must earn
// its bytes or share a word.
func TestTaskSize(t *testing.T) {
	const maxTaskBytes = 128
	if size := unsafe.Sizeof(Task{}); size > maxTaskBytes {
		t.Fatalf("Task is %d bytes, want at most %d", size, maxTaskBytes)
	}
}
