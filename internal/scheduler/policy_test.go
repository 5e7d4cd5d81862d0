package scheduler

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// TestPolicyNameRoundTrip covers every policy: String must produce a
// canonical name (not the PlacementPolicy(%d) fallback) and ParsePolicy
// must invert it — so adding a policy with a missing name fails here
// instead of misbehaving at runtime.
func TestPolicyNameRoundTrip(t *testing.T) {
	seen := make(map[string]bool)
	for _, p := range policies() {
		name := p.String()
		if strings.HasPrefix(name, "PlacementPolicy(") {
			t.Fatalf("policy %d has no canonical name", int(p))
		}
		if seen[name] {
			t.Fatalf("duplicate policy name %q", name)
		}
		seen[name] = true
		parsed, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if parsed != p {
			t.Fatalf("round trip %q: got %d, want %d", name, int(parsed), int(p))
		}
	}
}

// TestParsePolicyUnknown checks the unknown-name error names the typo and
// lists every valid policy, so a misconfigured CLI flag or sweep clause
// is self-explaining.
func TestParsePolicyUnknown(t *testing.T) {
	_, err := ParsePolicy("bestfit")
	if err == nil {
		t.Fatal("ParsePolicy accepted an unknown name")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"bestfit"`) {
		t.Fatalf("error does not name the bad input: %q", msg)
	}
	for _, name := range PolicyNames() {
		if !strings.Contains(msg, name) {
			t.Fatalf("error does not list valid policy %q: %q", name, msg)
		}
	}
}

// TestPolicyScoreMatchesLegacySwitch is the differential oracle for the
// scoring core: BestFit, LeastAllocated and OneShot through score must
// reproduce the original score() switch bit for bit across randomized
// machine states, so same-seed traces cannot drift.
func TestPolicyScoreMatchesLegacySwitch(t *testing.T) {
	legacy := func(pol PlacementPolicy, capacity, alloc, req, usage trace.Resources) float64 {
		frac := 0.0
		if capacity.CPU > 0 {
			frac += (alloc.CPU+req.CPU)/capacity.CPU + usage.CPU/capacity.CPU
		}
		if capacity.Mem > 0 {
			frac += (alloc.Mem+req.Mem)/capacity.Mem + usage.Mem/capacity.Mem
		}
		switch pol {
		case BestFit:
			return -frac
		case LeastAllocated:
			return frac
		default:
			return frac
		}
	}

	src := rng.New(99)
	cell := cluster.NewCell("oracle", defaultOC)
	s := New(fastConfig(), cell, sim.NewKernel(), tracetest.NopSink{}, rng.New(1), nil)
	var ms []*cluster.Machine
	for i := 0; i < 8; i++ {
		shape := trace.Resources{CPU: 0.5 + src.Float64(), Mem: 0.5 + src.Float64()}
		ms = append(ms, cell.AddMachine(shape, "P0"))
	}
	next := trace.CollectionID(1)
	for step := 0; step < 2000; step++ {
		m := ms[src.Intn(len(ms))]
		key := trace.InstanceKey{Collection: next}
		next++
		r := residentTask(key, 0, trace.TierFree, trace.Resources{CPU: src.Float64() * 0.2, Mem: src.Float64() * 0.2})
		s.place(r, m.ID)
		s.SetUsage(r, 0, trace.Resources{CPU: src.Float64() * 0.1, Mem: src.Float64() * 0.1})

		req := trace.Resources{CPU: src.Float64() * 0.3, Mem: src.Float64() * 0.3}
		vm := ms[src.Intn(len(ms))]
		alloc, usage := s.Allocated(vm.ID), s.UsageTotal(vm.ID)
		for _, pol := range []PlacementPolicy{BestFit, LeastAllocated, OneShot} {
			got := pol.score(vm.Capacity, alloc, req, usage)
			want := legacy(pol, vm.Capacity, alloc, req, usage)
			if got != want {
				t.Fatalf("step %d: %v.score = %v, legacy switch = %v", step, pol, got, want)
			}
		}
	}
}

// TestWorstFitPrefersLargestHeadroom checks WorstFit's spreading: the
// machine retaining the most absolute free capacity after placement must
// score strictly lower (better).
func TestWorstFitPrefersLargestHeadroom(t *testing.T) {
	big := trace.Resources{CPU: 4, Mem: 4}
	small := trace.Resources{CPU: 1, Mem: 1}
	req := trace.Resources{CPU: 0.1, Mem: 0.1}
	var none trace.Resources
	if !(WorstFit.score(big, none, req, none) < WorstFit.score(small, none, req, none)) {
		t.Fatal("WorstFit does not prefer the machine with the most absolute headroom")
	}
	// LeastAllocated, by contrast, is fraction-normalized and ties here.
	if LeastAllocated.score(big, none, req, none) >= LeastAllocated.score(small, none, req, none) {
		t.Fatal("expected LeastAllocated to score the small empty machine no better")
	}
}

// TestOversubPenalizesRiskyMachine checks the oversubscription-aware
// scorer: between two machines with identical sampled usage, the one
// whose post-placement allocation exceeds physical capacity must score
// strictly worse, and the penalty must grow with how hot the machine
// already runs.
func TestOversubPenalizesRiskyMachine(t *testing.T) {
	capacity := trace.Resources{CPU: 1, Mem: 1}
	// Overcommit lets allocation exceed capacity on the risky machine.
	risky := trace.Resources{CPU: 1.1, Mem: 1.1}
	safe := trace.Resources{CPU: 0.3, Mem: 0.3}
	req := trace.Resources{CPU: 0.1, Mem: 0.1}
	usage := trace.Resources{CPU: 0.2, Mem: 0.2}
	os := func(alloc, usage trace.Resources) float64 { return Oversub.score(capacity, alloc, req, usage) }
	if !(os(safe, usage) < os(risky, usage)) {
		t.Fatal("Oversub does not penalize the overcommitted machine")
	}
	cold := trace.Resources{CPU: 0.05, Mem: 0.05}
	hot := trace.Resources{CPU: 0.9, Mem: 0.9}
	coldRisk := os(risky, cold) - os(safe, cold)
	hotRisk := os(risky, hot) - os(safe, hot)
	if !(hotRisk > coldRisk) {
		t.Fatalf("oversubscription penalty did not grow with heat: cold %v, hot %v", coldRisk, hotRisk)
	}
}

// TestOneShotGivesUp checks the no-retry policy end to end: a task no
// machine can host is abandoned (KILL, PlacementGiveUps) instead of
// parked for backoff, while the same scenario under LeastAllocated
// retries forever.
func TestOneShotGivesUp(t *testing.T) {
	build := func(policy PlacementPolicy) (*Scheduler, *sim.Kernel) {
		cell := cluster.NewCell("oneshot", defaultOC)
		cell.AddMachine(trace.Resources{CPU: 0.1, Mem: 0.1}, "P0")
		k := sim.NewKernel()
		cfg := testConfig()
		cfg.Policy = policy
		cfg.Batch = false
		cfg.ServiceTime = constService(0.001)
		return New(cfg, cell, k, tracetest.NopSink{}, rng.New(3), nil), k
	}
	submit := func(s *Scheduler, k *sim.Kernel) (*Job, Stats) {
		j := NewJob(1)
		j.CollectionType = trace.CollectionJob
		j.Priority = 120
		j.Tier = trace.TierProduction
		j.AddTask(TaskSpec{Request: trace.Resources{CPU: 5, Mem: 5}, Duration: sim.Hour})
		k.At(0, sim.Func(func(sim.Time) { s.Submit(j) }))
		k.RunUntil(2 * sim.Minute)
		return j, s.Stats()
	}

	s, k := build(OneShot)
	job, st := submit(s, k)
	if st.PlacementGiveUps != 1 {
		t.Fatalf("OneShot: PlacementGiveUps = %d, want 1", st.PlacementGiveUps)
	}
	if st.PlacementRetries != 0 {
		t.Fatalf("OneShot: PlacementRetries = %d, want 0", st.PlacementRetries)
	}
	if job.State != JobDone || job.FinalType != trace.EventKill {
		t.Fatalf("OneShot: job state %v final %v, want done/KILL", job.State, job.FinalType)
	}

	s, k = build(LeastAllocated)
	job, st = submit(s, k)
	if st.PlacementGiveUps != 0 {
		t.Fatalf("LeastAllocated: PlacementGiveUps = %d, want 0", st.PlacementGiveUps)
	}
	if st.PlacementRetries == 0 {
		t.Fatal("LeastAllocated: expected backoff retries for the infeasible task")
	}
	if job.State == JobDone {
		t.Fatal("LeastAllocated: infeasible job should still be live (retrying)")
	}
}

// TestPlacementZeroAllocsEveryPolicy extends the placement allocation
// guard across the policies: the steady-state placement cycle must stay
// allocation-free under every policy, scored or first-fit.
func TestPlacementZeroAllocsEveryPolicy(t *testing.T) {
	for _, p := range policies() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			s, _ := benchPolicyCell(p, 64, 8, trace.TierMid, 110,
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
				cycle()
			}
			if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
				t.Fatalf("policy %v: steady-state placement allocates %.1f allocs/op, want 0", p, avg)
			}
		})
	}
}

// policies returns every policy tag, in declaration order.
func policies() []PlacementPolicy {
	out := make([]PlacementPolicy, 0, numPolicies)
	for p := PlacementPolicy(0); p < numPolicies; p++ {
		out = append(out, p)
	}
	return out
}
