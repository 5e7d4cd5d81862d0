package streaming

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestScalarsMatchAccessorDerivation pins Scalars against independent
// recomputation from the reducer's figure accessors on a real simulated
// cell: names in contract order, utilization scalars equal to the tier
// sums of Figures 3/5, and the termination share equal to the §5.2
// finish function.
func TestScalarsMatchAccessorDerivation(t *testing.T) {
	p := workload.Profile2019("b", 40)
	horizon := 4 * sim.Hour
	warmup := sim.Hour
	opts := core.Options{Horizon: horizon, Seed: 11}
	r := NewCellReducer(core.TraceMeta(p, opts))
	opts.ExtraSinks = []trace.Sink{r}
	core.Run(p, opts)

	scalars := r.Scalars(warmup)
	names := ScalarNames()
	if len(scalars) != len(names) {
		t.Fatalf("got %d scalars, want %d", len(scalars), len(names))
	}
	byName := make(map[string]float64, len(scalars))
	for i, s := range scalars {
		if s.Name != names[i] {
			t.Fatalf("scalar %d named %q, want %q", i, s.Name, names[i])
		}
		byName[s.Name] = s.Value
	}

	sumTiers := func(a TierAverages) (cpu, mem float64) {
		for _, tier := range trace.Tiers() {
			cpu += a.CPU[tier]
			mem += a.Mem[tier]
		}
		return cpu, mem
	}
	wantCPU, wantMem := sumTiers(r.AverageUsageByTier(warmup))
	if byName["cpu_util"] != wantCPU || byName["mem_util"] != wantMem {
		t.Fatalf("util scalars (%g, %g) != tier sums (%g, %g)",
			byName["cpu_util"], byName["mem_util"], wantCPU, wantMem)
	}
	if byName["cpu_util"] <= 0 || byName["cpu_alloc"] < byName["cpu_util"] {
		t.Fatalf("implausible utilization: util %g alloc %g", byName["cpu_util"], byName["cpu_alloc"])
	}
	term := FinishTerminations([]TerminationAccum{r.TerminationAccum()})
	if byName["evicted_share"] != term.CollectionsWithEviction {
		t.Fatalf("evicted_share %g != %g", byName["evicted_share"], term.CollectionsWithEviction)
	}
	if byName["jobs_per_hr_p50"] <= 0 || byName["tasks_per_job_p95"] < 1 {
		t.Fatalf("rate/size scalars: %v", byName)
	}
}

// TestScalarsEmptyReducer checks an empty cell yields finite zeros, not
// NaNs, so sweep aggregation over degenerate cells stays well defined.
func TestScalarsEmptyReducer(t *testing.T) {
	r := NewCellReducer(trace.Meta{Duration: 2 * sim.Hour})
	for _, s := range r.Scalars(0) {
		if s.Value != 0 {
			t.Fatalf("empty-cell scalar %s = %g, want 0", s.Name, s.Value)
		}
	}
}
