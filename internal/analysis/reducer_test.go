package analysis_test

// Property tests of every per-cell analysis, run on the products of the
// streaming reducer that computes them. The package is external so it
// can import analysis/streaming, which imports analysis.

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/streaming"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Shared fixtures: one 2019 cell and one 2011 cell, simulated once with
// a reducer attached and no trace retained.
var (
	fixtureOnce sync.Once
	fx2019      *streaming.CellReducer
	fx2011      *streaming.CellReducer
)

func reduce(p *workload.CellProfile, seed uint64) *streaming.CellReducer {
	horizon := 12 * sim.Hour
	r := streaming.NewCellReducer(trace.Meta{Era: p.Era, Cell: p.Name, Duration: horizon,
		Machines: p.Machines, Seed: seed})
	core.Run(p, core.Options{Horizon: horizon, Seed: seed,
		ExtraSinks: []trace.Sink{r}})
	return r
}

func fixtures(t *testing.T) (*streaming.CellReducer, *streaming.CellReducer) {
	t.Helper()
	fixtureOnce.Do(func() {
		fx2019 = reduce(workload.Profile2019("a", 150), 42)
		fx2011 = reduce(workload.Profile2011(150), 43)
	})
	return fx2019, fx2011
}

func TestMachineShapes(t *testing.T) {
	r19, r11 := fixtures(t)
	s19 := r19.MachineShapes()
	s11 := r11.MachineShapes()
	total := 0
	for _, p := range s19 {
		total += p.Count
		if p.CPU <= 0 || p.Mem <= 0 {
			t.Fatalf("degenerate shape %+v", p)
		}
	}
	if total != 150 {
		t.Fatalf("shape counts sum to %d", total)
	}
	if len(s19) <= len(s11) {
		t.Fatalf("2019 shapes (%d) should outnumber 2011's (%d)", len(s19), len(s11))
	}
	// Sorted by count descending.
	for i := 1; i < len(s19); i++ {
		if s19[i].Count > s19[i-1].Count {
			t.Fatal("shapes not sorted by count")
		}
	}
}

func TestUsageSeriesBounds(t *testing.T) {
	r19, _ := fixtures(t)
	s := r19.UsageSeries()
	if len(s.Hours) != 12 {
		t.Fatalf("series length %d", len(s.Hours))
	}
	for i := range s.Hours {
		var sum float64
		for _, tier := range trace.Tiers() {
			v := s.CPU[tier][i]
			if v < 0 {
				t.Fatalf("negative usage fraction %v", v)
			}
			sum += v
		}
		if sum > 1.05 {
			t.Fatalf("hour %d total CPU usage fraction %v > 1", i, sum)
		}
	}
}

func TestAllocationExceedsUsage(t *testing.T) {
	r19, _ := fixtures(t)
	u := r19.UsageSeries()
	a := r19.AllocationSeries()
	// In steady state, summed allocation must exceed summed usage
	// (limits are oversized; §4).
	var usageSum, allocSum float64
	for i := 6; i < len(u.Hours); i++ {
		for _, tier := range trace.Tiers() {
			usageSum += u.CPU[tier][i]
			allocSum += a.CPU[tier][i]
		}
	}
	if allocSum <= usageSum {
		t.Fatalf("allocation (%v) should exceed usage (%v)", allocSum, usageSum)
	}
}

func TestAverageUsageByTier(t *testing.T) {
	r19, _ := fixtures(t)
	av := r19.AverageUsageByTier(6 * sim.Hour)
	if av.Cell != "a" {
		t.Fatalf("cell %q", av.Cell)
	}
	// Cell a is prod-heavy: production must be the top CPU consumer.
	for _, tier := range []trace.Tier{trace.TierFree, trace.TierMid} {
		if av.CPU[tier] >= av.CPU[trace.TierProduction] {
			t.Fatalf("tier %v (%v) >= prod (%v) in prod-heavy cell a",
				tier, av.CPU[tier], av.CPU[trace.TierProduction])
		}
	}
	if av.CPU[trace.TierProduction] <= 0 {
		t.Fatal("no production usage")
	}
}

func TestMachineUtilization(t *testing.T) {
	r19, _ := fixtures(t)
	cpu, mem := r19.MachineUtilization()
	if len(cpu) != 150 || len(mem) != 150 {
		t.Fatalf("utilization samples %d/%d", len(cpu), len(mem))
	}
	for _, v := range cpu {
		if v < 0 || v > 1.01 {
			t.Fatalf("cpu utilization %v out of range", v)
		}
	}
	for _, v := range mem {
		if v < 0 || v > 1.01 {
			t.Fatalf("mem utilization %v out of range", v)
		}
	}
	ccdfC, ccdfM := stats.CCDF(cpu), stats.CCDF(mem)
	if len(ccdfC) == 0 || len(ccdfM) == 0 {
		t.Fatal("empty ccdf")
	}
	if ccdfC[len(ccdfC)-1].P != 0 {
		t.Fatal("ccdf must end at zero")
	}
}

func TestTransitions(t *testing.T) {
	r19, _ := fixtures(t)
	ts := r19.Transitions()
	if len(ts) == 0 {
		t.Fatal("no transitions")
	}
	find := func(from, to string) int {
		for _, tr := range ts {
			if tr.From == from && tr.To == to {
				return tr.Count
			}
		}
		return 0
	}
	if find("SUBMIT", "ENABLE") == 0 {
		t.Fatal("no SUBMIT->ENABLE transitions")
	}
	if find("SUBMIT", "QUEUE") == 0 {
		t.Fatal("no SUBMIT->QUEUE transitions (batch tier)")
	}
	if find("SUBMIT", "SCHEDULE") == 0 {
		t.Fatal("no SUBMIT->SCHEDULE instance transitions")
	}
	// Common paths dominate rare ones (Figure 7's orders of magnitude).
	if common, rare := find("SUBMIT", "SCHEDULE"), find("EVICT", "SUBMIT"); common <= rare {
		t.Fatalf("common path (%d) should dominate rare path (%d)", common, rare)
	}
}

func TestAllocSetStats(t *testing.T) {
	r19, r11 := fixtures(t)
	st := analysis.FinishAllocSets([]analysis.AllocSetAccum{r19.AllocSetAccum()})
	if st.AllocSets == 0 {
		t.Fatal("no alloc sets in 2019 trace")
	}
	if st.AllocSetShare < 0.005 || st.AllocSetShare > 0.06 {
		t.Fatalf("alloc set share %v, want ~0.02", st.AllocSetShare)
	}
	if st.CPUAllocShare < 0.05 || st.CPUAllocShare > 0.5 {
		t.Fatalf("alloc CPU share %v, want ~0.20", st.CPUAllocShare)
	}
	if st.ProdShareInAlloc < 0.8 {
		t.Fatalf("prod share of in-alloc jobs %v, want ~0.95", st.ProdShareInAlloc)
	}
	if st.MemUtilInAlloc <= st.MemUtilOutside {
		t.Fatalf("in-alloc mem util (%v) should exceed outside (%v)",
			st.MemUtilInAlloc, st.MemUtilOutside)
	}
	// 2011: no alloc sets at all.
	st11 := analysis.FinishAllocSets([]analysis.AllocSetAccum{r11.AllocSetAccum()})
	if st11.AllocSets != 0 {
		t.Fatalf("2011 alloc sets %d", st11.AllocSets)
	}
}

func TestTerminationStats(t *testing.T) {
	r19, _ := fixtures(t)
	st := analysis.FinishTerminations([]analysis.TerminationAccum{r19.TerminationAccum()})
	if st.Collections == 0 {
		t.Fatal("no collections")
	}
	if st.ByFinal[trace.EventFinish] == 0 || st.ByFinal[trace.EventKill] == 0 {
		t.Fatalf("termination mix %v", st.ByFinal)
	}
	// The paper reports 3.2% at month scale; the 12-hour fixture has a
	// larger share because transient ramp-in pressure affects relatively
	// more of its few hundred collections.
	if st.CollectionsWithEviction < 0.001 || st.CollectionsWithEviction > 0.20 {
		t.Fatalf("evicted share %v, want small (paper: 3.2%%)", st.CollectionsWithEviction)
	}
	if st.KillRateWithParent <= st.KillRateWithoutParent {
		t.Fatalf("parented kill rate (%v) should exceed parentless (%v); paper: 87%% vs 41%%",
			st.KillRateWithParent, st.KillRateWithoutParent)
	}
	if st.NonProdShareOfEvicted < 0.5 {
		t.Fatalf("non-prod share of evicted %v, want high (paper: 96.6%%)", st.NonProdShareOfEvicted)
	}
}

func TestRates(t *testing.T) {
	r19, r11 := fixtures(t)
	rates19, rates11 := r19.Rates(), r11.Rates()
	if len(rates19.JobsPerHour) != 12 {
		t.Fatalf("rate samples %d", len(rates19.JobsPerHour))
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	m19, m11 := mean(rates19.JobsPerHour), mean(rates11.JobsPerHour)
	ratio := m19 / m11
	if ratio < 2.3 || ratio > 5.2 {
		t.Fatalf("2019/2011 job rate ratio %v, want ~3.5 (paper: 3.7 median)", ratio)
	}
	// Rescheduling churn: all-tasks must exceed new-tasks, much more so
	// in 2019 (paper: 2.26:1 vs 0.66:1).
	resub19 := mean(rates19.AllTasksPerHour)/mean(rates19.NewTasksPerHour) - 1
	resub11 := mean(rates11.AllTasksPerHour)/mean(rates11.NewTasksPerHour) - 1
	if resub19 <= resub11 {
		t.Fatalf("2019 churn (%v) should exceed 2011's (%v)", resub19, resub11)
	}
	if resub19 < 1.0 {
		t.Fatalf("2019 resubmit ratio %v, want > 1 (paper: 2.26)", resub19)
	}
}

func TestSchedulingDelays(t *testing.T) {
	r19, _ := fixtures(t)
	d := r19.Delays()
	if len(d.All) < 100 {
		t.Fatalf("too few delay samples: %d", len(d.All))
	}
	for _, x := range d.All {
		if x < 0 {
			t.Fatalf("negative delay %v", x)
		}
	}
	prodMed := stats.Quantile(d.ByTier[trace.TierProduction], 0.5)
	bebP90 := stats.Quantile(d.ByTier[trace.TierBestEffortBatch], 0.9)
	if !(prodMed < bebP90) {
		t.Fatalf("prod median delay %v should undercut beb tail %v", prodMed, bebP90)
	}
}

func TestTasksPerJobByTier(t *testing.T) {
	r19, _ := fixtures(t)
	tpj := r19.TasksPerJob()
	beb95 := stats.Quantile(tpj[trace.TierBestEffortBatch], 0.95)
	prod95 := stats.Quantile(tpj[trace.TierProduction], 0.95)
	if !(beb95 > prod95) {
		t.Fatalf("beb 95%%ile (%v) should exceed prod's (%v)", beb95, prod95)
	}
}

func TestUsageIntegralsAndTable2(t *testing.T) {
	r19, _ := fixtures(t)
	ints := r19.UsageIntegrals()
	if len(ints.CPUHours) != len(ints.MemHours) || len(ints.CPUHours) == 0 {
		t.Fatalf("integrals %d/%d", len(ints.CPUHours), len(ints.MemHours))
	}
	col := analysis.ComputeTable2Column(ints.CPUHours)
	if col.N != len(ints.CPUHours) {
		t.Fatalf("N %d", col.N)
	}
	if col.Median >= col.Mean {
		t.Fatalf("median %v >= mean %v — not right-skewed", col.Median, col.Mean)
	}
	if col.Top1Share < 0.3 {
		t.Fatalf("top-1%% share %v, want heavy tail", col.Top1Share)
	}
	if col.C2 < 10 {
		t.Fatalf("C² %v, want high variability", col.C2)
	}
	if col.Max <= col.P999 {
		t.Fatalf("max %v <= p99.9 %v", col.Max, col.P999)
	}
}

func TestCPUMemCorrelationOnTrace(t *testing.T) {
	r19, _ := fixtures(t)
	points, r := analysis.CPUMemCorrelation(r19.UsageIntegrals(), 100)
	if len(points) >= 5 && !math.IsNaN(r) && r < 0.2 {
		t.Fatalf("trace correlation %v suspiciously low", r)
	}
}

func TestSlackSamples(t *testing.T) {
	r19, _ := fixtures(t)
	full := slices.Concat(r19.SlackSamples(trace.ScalingFull)...)
	none := slices.Concat(r19.SlackSamples(trace.ScalingNone)...)
	if len(full) == 0 || len(none) == 0 {
		t.Fatalf("slack groups sizes: full=%d none=%d", len(full), len(none))
	}
	medFull := stats.Quantile(full, 0.5)
	medNone := stats.Quantile(none, 0.5)
	if !(medFull < medNone) {
		t.Fatalf("full autoscaling slack median (%v) should undercut manual (%v); Figure 14",
			medFull, medNone)
	}
	for _, s := range full {
		if s < 0 || s > 100 {
			t.Fatalf("slack %v out of [0,100]", s)
		}
	}
}

func TestTable1(t *testing.T) {
	r19, r11 := fixtures(t)
	rows := analysis.Table1FromInventories(r11.Inventory(), r11.Meta().Duration,
		analysis.MergeInventories([]analysis.Inventory{r19.Inventory()}), r19.Meta().Duration, 1)
	if len(rows) != 11 {
		t.Fatalf("rows %d", len(rows))
	}
	get := func(metric string) analysis.Table1Row {
		for _, r := range rows {
			if r.Metric == metric {
				return r
			}
		}
		t.Fatalf("missing row %q", metric)
		return analysis.Table1Row{}
	}
	if r := get("Alloc sets"); r.V2011 != "–" || r.V2019 != "Y" {
		t.Fatalf("alloc sets row %+v", r)
	}
	if r := get("Job dependencies"); r.V2011 != "–" || r.V2019 != "Y" {
		t.Fatalf("dependencies row %+v", r)
	}
	if r := get("Batch queueing"); r.V2019 != "Y" {
		t.Fatalf("batch row %+v", r)
	}
	if r := get("Vertical scaling"); r.V2011 != "–" || r.V2019 != "Y" {
		t.Fatalf("vertical row %+v", r)
	}
	if r := get("Machines"); r.V2011 != "150" {
		t.Fatalf("machines row %+v", r)
	}
	if r := get("Cells"); r.V2019 != "1" {
		t.Fatalf("cells row %+v", r)
	}
}
