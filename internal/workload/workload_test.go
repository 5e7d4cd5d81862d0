package workload

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

const testCapacityCPU = 200.0

func genJobs(t *testing.T, p *CellProfile, horizon sim.Time, n int) []*scheduler.Job {
	t.Helper()
	g := NewGeneratorArrival(p, testCapacityCPU, horizon, rng.New(7), 1)
	var jobs []*scheduler.Job
	now := sim.Time(0)
	for len(jobs) < n {
		now += g.NextInterArrival(now)
		if now >= horizon {
			now = 0 // wrap; we only need job bodies here
		}
		for _, j := range g.Generate(now) {
			jobs = append(jobs, j)
		}
	}
	return jobs
}

func TestArrivalRateMatchesProfile(t *testing.T) {
	p := Profile2019("a", 600)
	g := NewGeneratorArrival(p, testCapacityCPU, 100*sim.Hour, rng.New(3), 1)
	want := p.TotalArrivalRate() // jobs/hour
	if math.Abs(want-3360*600/12000.0) > 1e-9 {
		t.Fatalf("scaled rate %v", want)
	}
	var now sim.Time
	count := 0
	for now < 100*sim.Hour {
		now += g.NextInterArrival(now)
		count++
	}
	got := float64(count) / 100
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("empirical arrival rate %v, want ~%v", got, want)
	}
}

func TestArrivalRatio2019To2011(t *testing.T) {
	r19 := Profile2019("a", 600).TotalArrivalRate()
	r11 := Profile2011(600).TotalArrivalRate()
	ratio := r19 / r11
	if math.Abs(ratio-3.49) > 0.1 { // 3360/964 ≈ 3.49, §6.1's ≈3.5×
		t.Fatalf("arrival ratio %v", ratio)
	}
}

func TestDiurnalModulation(t *testing.T) {
	p := Profile2019("g", 600)
	env := envelopeFor(p)
	peakRate := 0.0
	var peakAt sim.Time
	for h := 0; h < 24; h++ {
		r := env.Rate(sim.Time(h) * sim.Hour)
		if r > peakRate {
			peakRate, peakAt = r, sim.Time(h)*sim.Hour
		}
	}
	envNoPhase := envelopeFor(Profile2019("a", 600))
	peakRateA := 0.0
	var peakAtA sim.Time
	for h := 0; h < 24; h++ {
		r := envNoPhase.Rate(sim.Time(h) * sim.Hour)
		if r > peakRateA {
			peakRateA, peakAtA = r, sim.Time(h)*sim.Hour
		}
	}
	if peakAt == peakAtA {
		t.Fatalf("cell g peak hour %v equals cell a's %v despite phase shift", peakAt, peakAtA)
	}
}

func TestTierMixMatchesShares(t *testing.T) {
	p := Profile2019("a", 600)
	jobs := genJobs(t, p, 48*sim.Hour, 8000)
	counts := map[trace.Tier]int{}
	total := 0
	for _, j := range jobs {
		if j.Type != trace.CollectionJob {
			continue
		}
		counts[j.Tier]++
		total++
	}
	for _, tp := range p.Tiers {
		got := float64(counts[tp.Tier]) / float64(total)
		if math.Abs(got-tp.ArrivalShare) > 0.03 {
			t.Fatalf("tier %v share %v, want ~%v", tp.Tier, got, tp.ArrivalShare)
		}
	}
}

func TestTasksPerJobQuantiles(t *testing.T) {
	p := Profile2019("a", 600)
	jobs := genJobs(t, p, 48*sim.Hour, 30000)
	byTier := map[trace.Tier][]float64{}
	for _, j := range jobs {
		if j.Type != trace.CollectionJob {
			continue
		}
		byTier[j.Tier] = append(byTier[j.Tier], float64(len(j.Tasks)))
	}
	// Figure 11's calibration targets, with generous bands (statistical).
	q95 := func(tier trace.Tier) float64 {
		xs := byTier[tier]
		sort.Float64s(xs)
		return stats.QuantileSorted(xs, 0.95)
	}
	if v := q95(trace.TierProduction); v < 1 || v > 8 {
		t.Fatalf("prod 95%%ile tasks %v, want ~3", v)
	}
	if v := q95(trace.TierFree); v < 8 || v > 60 {
		t.Fatalf("free 95%%ile tasks %v, want ~21", v)
	}
	if v := q95(trace.TierMid); v < 25 || v > 160 {
		t.Fatalf("mid 95%%ile tasks %v, want ~67", v)
	}
	if v := q95(trace.TierBestEffortBatch); v < 150 || v > 1200 {
		t.Fatalf("beb 95%%ile tasks %v, want ~498", v)
	}
	// beb 80th percentile ~25.
	xs := byTier[trace.TierBestEffortBatch]
	sort.Float64s(xs)
	if v := stats.QuantileSorted(xs, 0.80); v < 8 || v > 80 {
		t.Fatalf("beb 80%%ile tasks %v, want ~25", v)
	}
}

// plannedNCUHours is a job's scripted compute integral.
func plannedNCUHours(j *scheduler.Job) float64 {
	h := 0.0
	for _, task := range j.Tasks {
		h += task.MeanCPU * task.Duration.Hours()
	}
	return h
}

func TestHeavyTailedUsageIntegrals(t *testing.T) {
	p := Profile2019("a", 600)
	jobs := genJobs(t, p, 48*sim.Hour, 30000)
	var hours []float64
	for _, j := range jobs {
		if j.Type != trace.CollectionJob {
			continue
		}
		hours = append(hours, plannedNCUHours(j))
	}
	share := stats.TopShare(hours, 0.01)
	if share < 0.55 {
		t.Fatalf("top-1%% share %v, want heavy tail", share)
	}
	sum := stats.Summarize(hours)
	if sum.C2 < 50 {
		t.Fatalf("C² %v, want very high variability", sum.C2)
	}
	fit := stats.FitParetoTail(hours, 1, 0.9999)
	if fit.N > 100 && (fit.Alpha < 0.4 || fit.Alpha > 1.2) {
		t.Fatalf("tail alpha %v (n=%d), want near 0.69", fit.Alpha, fit.N)
	}
}

func Test2011LessVariableThan2019(t *testing.T) {
	j19 := genJobs(t, Profile2019("a", 600), 48*sim.Hour, 20000)
	j11 := genJobs(t, Profile2011(600), 48*sim.Hour, 20000)
	var h19, h11 []float64
	for _, j := range j19 {
		if j.Type == trace.CollectionJob {
			h19 = append(h19, plannedNCUHours(j))
		}
	}
	for _, j := range j11 {
		if j.Type == trace.CollectionJob {
			h11 = append(h11, plannedNCUHours(j))
		}
	}
	c19 := stats.Summarize(h19).C2
	c11 := stats.Summarize(h11).C2
	if c19 < c11 {
		t.Fatalf("2019 C² (%v) should exceed 2011 C² (%v)", c19, c11)
	}
}

func TestMemoryCorrelatesWithCPU(t *testing.T) {
	p := Profile2019("a", 600)
	jobs := genJobs(t, p, 48*sim.Hour, 20000)
	var lc, lm []float64
	for _, j := range jobs {
		if j.Type != trace.CollectionJob {
			continue
		}
		c := plannedNCUHours(j)
		m := 0.0
		for _, task := range j.Tasks {
			m += task.MeanMem * task.Duration.Hours()
		}
		if c > 0 && m > 0 {
			lc = append(lc, math.Log(c))
			lm = append(lm, math.Log(m))
		}
	}
	r := stats.Pearson(lc, lm)
	if r < 0.85 {
		t.Fatalf("log-log CPU/mem correlation %v, want > 0.85 (paper: 0.97)", r)
	}
}

func TestAllocSetFraction(t *testing.T) {
	p := Profile2019("a", 600)
	jobs := genJobs(t, p, 48*sim.Hour, 20000)
	allocSets, total := 0, 0
	for _, j := range jobs {
		total++
		if j.Type == trace.CollectionAllocSet {
			allocSets++
		}
	}
	frac := float64(allocSets) / float64(total)
	if math.Abs(frac-0.02) > 0.01 {
		t.Fatalf("alloc set fraction %v, want ~0.02", frac)
	}
}

func TestInAllocJobsMostlyProd(t *testing.T) {
	p := Profile2019("a", 600)
	jobs := genJobs(t, p, 48*sim.Hour, 30000)
	inAlloc, prodInAlloc, jobCount := 0, 0, 0
	for _, j := range jobs {
		if j.Type != trace.CollectionJob {
			continue
		}
		jobCount++
		if j.AllocSet != 0 {
			inAlloc++
			if j.Tier == trace.TierProduction {
				prodInAlloc++
			}
		}
	}
	frac := float64(inAlloc) / float64(jobCount)
	if frac < 0.05 || frac > 0.35 {
		t.Fatalf("in-alloc job fraction %v, want ~0.15", frac)
	}
	prodShare := float64(prodInAlloc) / float64(inAlloc)
	if prodShare < 0.85 {
		t.Fatalf("prod share of in-alloc jobs %v, want ~0.95", prodShare)
	}
}

func TestParentAssignment(t *testing.T) {
	p := Profile2019("a", 600)
	jobs := genJobs(t, p, 48*sim.Hour, 20000)
	withParent, jobCount := 0, 0
	ids := map[trace.CollectionID]bool{}
	for _, j := range jobs {
		ids[j.ID] = true
	}
	for _, j := range jobs {
		if j.Type != trace.CollectionJob {
			continue
		}
		jobCount++
		if j.Parent != 0 {
			withParent++
			if !ids[j.Parent] {
				t.Fatalf("job %d has unknown parent %d", j.ID, j.Parent)
			}
			if j.Parent >= j.ID {
				t.Fatalf("job %d has parent %d submitted later", j.ID, j.Parent)
			}
		}
	}
	frac := float64(withParent) / float64(jobCount)
	if frac < 0.1 || frac > 0.5 {
		t.Fatalf("parented fraction %v", frac)
	}
}

func Test2011HasNoNewFeatures(t *testing.T) {
	p := Profile2011(600)
	jobs := genJobs(t, p, 48*sim.Hour, 10000)
	for _, j := range jobs {
		if j.Type == trace.CollectionAllocSet {
			t.Fatal("2011 profile generated an alloc set")
		}
		if j.Parent != 0 {
			t.Fatal("2011 profile generated a parented job")
		}
		if j.Scaling != trace.ScalingNone {
			t.Fatal("2011 profile generated an autoscaled job")
		}
		if j.Scheduler == trace.SchedulerBatch {
			t.Fatal("2011 profile routed a job to the batch scheduler")
		}
		if j.Tier == trace.TierMid {
			t.Fatal("2011 profile generated a mid-tier job")
		}
	}
}

func Test2019HasBatchAndScaling(t *testing.T) {
	p := Profile2019("b", 600)
	jobs := genJobs(t, p, 48*sim.Hour, 10000)
	batch, scaled := 0, 0
	for _, j := range jobs {
		if j.Scheduler == trace.SchedulerBatch {
			batch++
		}
		if j.Scaling != trace.ScalingNone {
			scaled++
		}
	}
	if batch == 0 {
		t.Fatal("no batch jobs in 2019 profile")
	}
	if scaled == 0 {
		t.Fatal("no autoscaled jobs in 2019 profile")
	}
}

func TestRestartsChurnHigherIn2019(t *testing.T) {
	mean := func(jobs []*scheduler.Job) float64 {
		total, n := 0, 0
		for _, j := range jobs {
			for _, task := range j.Tasks {
				total += task.Restarts
				n++
			}
		}
		return float64(total) / float64(n)
	}
	m19 := mean(genJobs(t, Profile2019("a", 600), 48*sim.Hour, 5000))
	m11 := mean(genJobs(t, Profile2011(600), 48*sim.Hour, 5000))
	if m19 <= m11 {
		t.Fatalf("2019 restart mean %v should exceed 2011's %v", m19, m11)
	}
	if m19 < 1.0 {
		t.Fatalf("2019 restart mean %v too low for 2.26:1 churn", m19)
	}
}

func TestRequestsCoverUsage(t *testing.T) {
	p := Profile2019("a", 600)
	jobs := genJobs(t, p, 48*sim.Hour, 5000)
	under := 0
	tasks := 0
	for _, j := range jobs {
		if j.Type != trace.CollectionJob {
			continue
		}
		for _, task := range j.Tasks {
			tasks++
			if task.Request.CPU < task.MeanCPU {
				t.Fatalf("task CPU request %v below mean usage %v", task.Request.CPU, task.MeanCPU)
			}
			if task.Request.Mem < task.MeanMem*task.PeakFact {
				under++
			}
			if task.Request.CPU > 0.5+1e-9 || task.Request.Mem > 0.5+1e-9 {
				t.Fatalf("request exceeds largest machines: %+v", task.Request)
			}
			if task.Duration <= 0 {
				t.Fatal("non-positive duration")
			}
		}
	}
	// A small fraction of tasks is deliberately memory-under-provisioned.
	frac := float64(under) / float64(tasks)
	if frac > 0.15 {
		t.Fatalf("under-provisioned fraction %v too high", frac)
	}
}

func TestKillOutcomesRoughlyCalibrated(t *testing.T) {
	p := Profile2019("a", 600)
	jobs := genJobs(t, p, 48*sim.Hour, 20000)
	killed, parentless := 0, 0
	for _, j := range jobs {
		if j.Type != trace.CollectionJob || j.Parent != 0 {
			continue
		}
		parentless++
		if j.Outcome == scheduler.OutcomeKill {
			killed++
			if j.KillAfter <= 0 {
				t.Fatal("killed job without KillAfter")
			}
		}
	}
	frac := float64(killed) / float64(parentless)
	if frac < 0.25 || frac > 0.55 {
		t.Fatalf("parentless kill fraction %v, want ~0.41", frac)
	}
}

func TestUniqueCollectionIDs(t *testing.T) {
	p := Profile2019("a", 600)
	jobs := genJobs(t, p, 48*sim.Hour, 5000)
	seen := map[trace.CollectionID]bool{}
	for _, j := range jobs {
		if seen[j.ID] {
			t.Fatalf("duplicate collection ID %d", j.ID)
		}
		seen[j.ID] = true
	}
}

func TestUnknownCellPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown cell did not panic")
		}
	}()
	Profile2019("z", 100)
}

func TestTierFor(t *testing.T) {
	p := Profile2019("a", 600)
	hasMid := func(p *CellProfile) bool {
		for _, tp := range p.Tiers {
			if tp.Tier == trace.TierMid {
				return true
			}
		}
		return false
	}
	if !hasMid(p) {
		t.Fatal("mid tier missing in 2019")
	}
	if hasMid(Profile2011(600)) {
		t.Fatal("mid tier present in 2011")
	}
}
