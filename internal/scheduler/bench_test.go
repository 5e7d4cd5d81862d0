package scheduler

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// benchCell builds a cell of n unit machines, each pre-loaded with
// residents residents of the given tier/priority, and a scheduler over it
// running the default (LeastAllocated) policy.
func benchCell(n, residents int, tier trace.Tier, priority int, limit, usage trace.Resources, oc cluster.OvercommitPolicy) (*Scheduler, *cluster.Cell) {
	return benchPolicyCell(LeastAllocated, n, residents, tier, priority, limit, usage, oc)
}

// benchPolicyCell is benchCell with an explicit placement policy, for
// per-policy fast-path benchmarks and allocation guards.
func benchPolicyCell(policy PlacementPolicy, n, residents int, tier trace.Tier, priority int, limit, usage trace.Resources, oc cluster.OvercommitPolicy) (*Scheduler, *cluster.Cell) {
	cell := cluster.NewCell("bench", oc)
	k := sim.NewKernel()
	cfg := testConfig()
	cfg.Policy = policy
	cfg.Batch = false
	cfg.ServiceTime = constService(0.001)
	s := New(cfg, cell, k, tracetest.NopSink{}, rng.New(7), nil)
	fillCell(s, cell, n, residents, tier, priority, limit, usage)
	return s, cell
}

// fillCell adds n unit machines to the scheduler's cell and places
// residents running tasks of the given tier, priority, request and
// sampled usage on each, every task the only one of its job.
func fillCell(s *Scheduler, cell *cluster.Cell, n, residents int, tier trace.Tier, priority int, limit, usage trace.Resources) {
	id := trace.CollectionID(1)
	for i := 0; i < n; i++ {
		m := cell.AddMachine(trace.Resources{CPU: 1, Mem: 1}, "P0")
		for r := 0; r < residents; r++ {
			t := residentTask(trace.InstanceKey{Collection: id}, priority, tier, limit)
			s.place(t, m.ID)
			s.SetUsage(t, 0, usage)
			id++
		}
	}
}

// residentTask returns a running task with the given key, priority, tier
// and request, the only task of its job, for tests that place residents
// directly. Its job is never submitted.
func residentTask(key trace.InstanceKey, priority int, tier trace.Tier, req trace.Resources) *Task {
	j := NewJob(key.Collection)
	j.CollectionType = trace.CollectionJob
	j.Priority = priority
	j.Tier = tier
	j.Tasks = []Task{{Job: j, TaskSpec: TaskSpec{Request: req, Duration: sim.Hour}, State: TaskRunning, index: key.Index}}
	return &j.Tasks[0]
}

// benchTask returns a pending task of the given shape, the only task of
// a job that is never submitted.
func benchTask(req trace.Resources, priority int, tier trace.Tier) *Task {
	j := NewJob(999999)
	j.CollectionType = trace.CollectionJob
	j.Priority = priority
	j.Tier = tier
	j.Tasks = []Task{{Job: j, TaskSpec: TaskSpec{Request: req, Duration: sim.Hour}}}
	return &j.Tasks[0]
}

// BenchmarkPlacement measures the steady-state placement fast path: one
// candidate-sampling scoring pass plus the place/remove mutations of the
// machine's residents a real placement cycle performs. The loop must not allocate.
func BenchmarkPlacement(b *testing.B) {
	s, _ := benchCell(200, 12, trace.TierMid, 110,
		trace.Resources{CPU: 0.03, Mem: 0.03}, trace.Resources{CPU: 0.02, Mem: 0.02},
		defaultOC)
	t := benchTask(trace.Resources{CPU: 0.1, Mem: 0.1}, 120, trace.TierProduction)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := s.pickMachine(t)
		if m == nil {
			b.Fatal("no feasible machine")
		}
		s.place(t, m.ID)
		s.remove(t)
	}
}

// BenchmarkPlacementPolicy measures the same steady-state placement
// cycle as BenchmarkPlacement once per policy, so benchgate can hold
// every policy to the placement fast path (0 allocs/op and
// comparable per-placement cost).
func BenchmarkPlacementPolicy(b *testing.B) {
	for _, p := range policies() {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			s, _ := benchPolicyCell(p, 200, 12, trace.TierMid, 110,
				trace.Resources{CPU: 0.03, Mem: 0.03}, trace.Resources{CPU: 0.02, Mem: 0.02},
				defaultOC)
			t := benchTask(trace.Resources{CPU: 0.1, Mem: 0.1}, 120, trace.TierProduction)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := s.pickMachine(t)
				if m == nil {
					b.Fatal("no feasible machine")
				}
				s.place(t, m.ID)
				s.remove(t)
			}
		})
	}
}

// BenchmarkPreemption measures the preemption probe on machines whose
// residents are all production-tier (unpreemptable): every candidate's
// victim order is walked end to end and no eviction happens, so the loop
// isolates the scan cost.
func BenchmarkPreemption(b *testing.B) {
	s, _ := benchCell(64, 20, trace.TierProduction, 120,
		trace.Resources{CPU: 0.05, Mem: 0.05}, trace.Resources{CPU: 0.03, Mem: 0.03},
		strictOC)
	t := benchTask(trace.Resources{CPU: 0.5, Mem: 0.5}, 200, trace.TierProduction)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := s.tryPreemption(t); m != nil {
			b.Fatal("preemption should be impossible")
		}
	}
}
