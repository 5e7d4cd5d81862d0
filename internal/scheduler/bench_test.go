package scheduler

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
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
	cfg := DefaultConfig()
	cfg.Policy = policy
	cfg.Batch = false
	cfg.ServiceTime = dist.Deterministic{Value: 0.001}
	s := New(cfg, cell, k, trace.NopSink{}, rng.New(7))
	id := trace.CollectionID(1)
	for i := 0; i < n; i++ {
		m := cell.AddMachine(trace.Resources{CPU: 1, Mem: 1}, "P0")
		for r := 0; r < residents; r++ {
			cell.Place(m.ID, &cluster.Resident{
				Key:      trace.InstanceKey{Collection: id},
				Limit:    limit,
				Priority: priority,
				Tier:     tier,
				Usage:    usage,
			})
			id++
		}
	}
	return s, cell
}

// benchTask returns a pending task of the given shape.
func benchTask(req trace.Resources, priority int, tier trace.Tier) *Task {
	j := NewJob(999999)
	j.Type = trace.CollectionJob
	j.Priority = priority
	j.Tier = tier
	t := &Task{Request: req, Duration: sim.Hour}
	j.AddTask(t)
	return t
}

// BenchmarkPlacement measures the steady-state placement fast path: one
// candidate-sampling scoring pass plus the place/remove cell mutations a
// real placement cycle performs. The loop must not allocate.
func BenchmarkPlacement(b *testing.B) {
	s, cell := benchCell(200, 12, trace.TierMid, 110,
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
		cell.Place(m.ID, s.takeResident(t.Key, t.Request, t.Job.Priority, t.Job.Tier))
		s.releaseResident(cell.Remove(m.ID, t.Key))
	}
}

// BenchmarkInstrumentedPlacement is BenchmarkPlacement against a
// scheduler wired to a caller-supplied metrics registry: the same
// steady-state cycle with every sched_* counter live. Benchgate holds it
// to the uninstrumented baseline's tolerance band with allocs/op pinned
// at 0 — counters must stay batched atomic adds, never allocations.
func BenchmarkInstrumentedPlacement(b *testing.B) {
	reg := metrics.NewRegistry()
	cell := cluster.NewCell("bench", defaultOC)
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.Batch = false
	cfg.ServiceTime = dist.Deterministic{Value: 0.001}
	cfg.Metrics = reg
	s := New(cfg, cell, k, trace.NopSink{}, rng.New(7))
	id := trace.CollectionID(1)
	for i := 0; i < 200; i++ {
		m := cell.AddMachine(trace.Resources{CPU: 1, Mem: 1}, "P0")
		for r := 0; r < 12; r++ {
			cell.Place(m.ID, &cluster.Resident{
				Key:      trace.InstanceKey{Collection: id},
				Limit:    trace.Resources{CPU: 0.03, Mem: 0.03},
				Priority: 110,
				Tier:     trace.TierMid,
				Usage:    trace.Resources{CPU: 0.02, Mem: 0.02},
			})
			id++
		}
	}
	t := benchTask(trace.Resources{CPU: 0.1, Mem: 0.1}, 120, trace.TierProduction)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := s.pickMachine(t)
		if m == nil {
			b.Fatal("no feasible machine")
		}
		cell.Place(m.ID, s.takeResident(t.Key, t.Request, t.Job.Priority, t.Job.Tier))
		s.releaseResident(cell.Remove(m.ID, t.Key))
	}
	b.StopTimer()
	if reg.Counter("sched_score_cache_hits_total").Value()+
		reg.Counter("sched_score_cache_misses_total").Value() == 0 {
		b.Fatal("instrumented run recorded no score-cache activity")
	}
}

// BenchmarkPlacementPolicy measures the same steady-state placement
// cycle as BenchmarkPlacement once per policy, so benchgate can hold
// every policy to the placement fast path (0 allocs/op and
// comparable per-placement cost through the score cache).
func BenchmarkPlacementPolicy(b *testing.B) {
	for _, p := range policies() {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			s, cell := benchPolicyCell(p, 200, 12, trace.TierMid, 110,
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
				cell.Place(m.ID, s.takeResident(t.Key, t.Request, t.Job.Priority, t.Job.Tier))
				s.releaseResident(cell.Remove(m.ID, t.Key))
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
