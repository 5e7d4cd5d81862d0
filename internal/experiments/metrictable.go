package experiments

import (
	"sync"

	"repro/internal/analysis/streaming"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Metric is one scalar statistic of a pool of cells, defined once for
// every reader: the report prints the measured-against-paper rows of
// §5.1, §5.2 and Figures 8, 9 and 13 from it, borgsweep compares
// variants by it at every grid point, and borgfleet rolls it up across
// cells.
type Metric struct {
	Name string // CSV name and column header
	// Artifact, Label and Paper place the metric's row in the report:
	// the artifact that prints it ("§5.1", "Figure 8", ...), the row's
	// label and the paper's value as the row prints it. They are empty
	// for a metric with no row of its own. Format renders the row's
	// measured value.
	Artifact, Label, Paper string
	Format                 func(float64) string
	// Uses2011 marks a metric that reads the 2011 cell: it has no value
	// on a pool without one (a fleet cell).
	Uses2011 bool
	Value    func(*Pool) float64
}

// Metrics returns the metric table in its one order, which is the
// sweep's vector order and the fleet's row order. cpu_util comes first.
// Callers must not modify it.
func Metrics() []Metric { return metricTable }

// Pool is the cells one evaluation of the metric table reads: a suite's
// nine cells, a sweep grid point's nine, or one fleet cell alone as a
// 2019 pool without a 2011 cell. Pooled metrics pool the 2019 cells as
// the report does; utilization and allocation average them. The products
// a figure and a metric share are computed once per pool.
type Pool struct {
	r2011   *streaming.CellReducer
	r2019   []*streaming.CellReducer
	results []core.CellResult
	warmup  sim.Time

	// integrals2019 pools the 2019 per-job usage integrals (Table 2,
	// Figures 12 and 13; every reader copies before it sorts), table2019
	// is Table 2's 2019 NCU-hour and NMU-hour columns, and correlation
	// is Figure 13's buckets and Pearson r.
	integrals2019 func() streaming.UsageIntegrals
	table2019     func() [2]streaming.Table2Column
	correlation   func() ([]streaming.BucketPoint, float64)
}

// NewPool pools the 2011 cell's reducer (nil for none) with the 2019
// cells' reducers and their results, index-aligned; results may be nil
// when no metric that counts scheduler events is read. warmup is cut
// from the utilization and allocation averages, as Figures 3 and 5 cut
// it.
func NewPool(r2011 *streaming.CellReducer, r2019 []*streaming.CellReducer,
	results []core.CellResult, warmup sim.Time) *Pool {
	p := &Pool{r2011: r2011, r2019: r2019, results: results, warmup: warmup}
	p.integrals2019 = sync.OnceValue(func() streaming.UsageIntegrals {
		return streaming.UsageIntegrals{
			CPUHours: streaming.Concat(r2019, func(r *streaming.CellReducer) []float64 { return r.UsageIntegrals().CPUHours }),
			MemHours: streaming.Concat(r2019, func(r *streaming.CellReducer) []float64 { return r.UsageIntegrals().MemHours }),
		}
	})
	p.table2019 = sync.OnceValue(func() [2]streaming.Table2Column {
		i := p.integrals2019()
		return [2]streaming.Table2Column{streaming.ComputeTable2Column(i.CPUHours), streaming.ComputeTable2Column(i.MemHours)}
	})
	p.correlation = sync.OnceValues(func() ([]streaming.BucketPoint, float64) {
		return streaming.CPUMemCorrelation(p.integrals2019(), 100)
	})
	return p
}

// Values evaluates every metric of the table on p, in table order.
func (p *Pool) Values() []float64 {
	out := make([]float64, len(metricTable))
	for i, m := range metricTable {
		out[i] = m.Value(p)
	}
	return out
}

// rateNormalization converts a cell's hourly rates to paper scale
// (12,000 machines).
func rateNormalization(r *streaming.CellReducer) float64 {
	return float64(workload.ReferenceMachines) / float64(r.Meta().Machines)
}

// rates pools the cells' Figure 8 and 9 samples in cell order;
// normalized, each cell's are scaled by its own rateNormalization.
func rates(cells []*streaming.CellReducer, normalized bool) streaming.SubmissionRates {
	var out streaming.SubmissionRates
	for _, r := range cells {
		k := 1.0
		if normalized {
			k = rateNormalization(r)
		}
		in := r.Rates()
		out.JobsPerHour = scaled(out.JobsPerHour, in.JobsPerHour, k)
		out.NewTasksPerHour = scaled(out.NewTasksPerHour, in.NewTasksPerHour, k)
		out.AllTasksPerHour = scaled(out.AllTasksPerHour, in.AllTasksPerHour, k)
	}
	return out
}

// scaled appends k·x for every x of xs to dst.
func scaled(dst, xs []float64, k float64) []float64 {
	for _, x := range xs {
		dst = append(dst, x*k)
	}
	return dst
}

// allocSets and terminations merge the 2019 cells' §5.1 and §5.2
// partials.
func (p *Pool) allocSets() streaming.AllocSetAccum {
	return streaming.MergeAllocSets(each(p.r2019, (*streaming.CellReducer).AllocSetAccum))
}

func (p *Pool) terminations() streaming.TerminationAccum {
	return streaming.MergeTerminations(each(p.r2019, (*streaming.CellReducer).TerminationAccum))
}

// share is num/den, or 0 when den is not positive.
func share[T int | float64](num, den T) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Figures 3 and 5 and their resources, for tierSum.
var (
	usage      = (*streaming.CellReducer).AverageUsageByTier
	allocation = (*streaming.CellReducer).AverageAllocationByTier
	cpu        = func(a streaming.TierAverages) map[trace.Tier]float64 { return a.CPU }
	mem        = func(a streaming.TierAverages) map[trace.Tier]float64 { return a.Mem }
)

// tierSum averages over the 2019 cells a resource's post-warmup Figure 3
// or 5 bars, summed over the tiers.
func (p *Pool) tierSum(figure func(*streaming.CellReducer, sim.Time) streaming.TierAverages,
	resource func(streaming.TierAverages) map[trace.Tier]float64) float64 {
	var sum float64
	for _, r := range p.r2019 {
		bars := resource(figure(r, p.warmup))
		var cell float64
		for _, tier := range trace.Tiers() {
			cell += bars[tier]
		}
		sum += cell
	}
	return sum / float64(len(p.r2019))
}

// schedSum adds a scheduler counter over the 2019 cells.
func (p *Pool) schedSum(f func(scheduler.Stats) int) float64 {
	var sum float64
	for _, res := range p.results {
		sum += float64(f(res.Sched))
	}
	return sum
}

// delays2019 pools Figure 10's 2019 scheduling delays.
func (p *Pool) delays2019() []float64 {
	return streaming.Concat(p.r2019, func(r *streaming.CellReducer) []float64 { return r.Delays().All })
}

// resubmitRatio is Figure 9's resubmission ratio: the median hourly task
// submissions over the median first submissions, less one.
func resubmitRatio(r streaming.SubmissionRates) float64 {
	return stats.Quantile(r.AllTasksPerHour, 0.5)/stats.Quantile(r.NewTasksPerHour, 0.5) - 1
}

var metricTable = []Metric{
	// Figures 3 and 5: post-warmup mean usage and allocation, summed
	// over tiers and averaged over the 2019 cells.
	{Name: "cpu_util", Value: func(p *Pool) float64 { return p.tierSum(usage, cpu) }},
	{Name: "mem_util", Value: func(p *Pool) float64 { return p.tierSum(usage, mem) }},
	{Name: "cpu_alloc", Value: func(p *Pool) float64 { return p.tierSum(allocation, cpu) }},
	{Name: "mem_alloc", Value: func(p *Pool) float64 { return p.tierSum(allocation, mem) }},
	// Figures 8 to 11, pooled over the 2019 cells.
	{Name: "jobs_per_hr_p50", Value: func(p *Pool) float64 { return stats.Quantile(rates(p.r2019, true).JobsPerHour, 0.5) }},
	{Name: "tasks_per_hr_p50", Value: func(p *Pool) float64 { return stats.Quantile(rates(p.r2019, true).AllTasksPerHour, 0.5) }},
	{Name: "delay_p50_s", Value: func(p *Pool) float64 { return stats.Quantile(p.delays2019(), 0.5) }},
	{Name: "delay_p99_s", Value: func(p *Pool) float64 { return stats.Quantile(p.delays2019(), 0.99) }},
	{Name: "tasks_per_job_p95", Value: func(p *Pool) float64 {
		var xs []float64
		for _, r := range p.r2019 {
			for _, tier := range trace.Tiers() {
				xs = append(xs, r.TasksPerJob()[tier]...)
			}
		}
		return stats.Quantile(xs, 0.95)
	}},
	// Scheduler activity, summed over the 2019 cells.
	{Name: "preemptions", Value: func(p *Pool) float64 { return p.schedSum(func(s scheduler.Stats) int { return s.Preemptions }) }},
	{Name: "oom_evictions", Value: func(p *Pool) float64 { return p.schedSum(func(s scheduler.Stats) int { return s.OOMEvictions }) }},

	// §5.1 and §5.2, pooled over the 2019 cells.
	{Name: "alloc_set_share", Artifact: "§5.1", Label: "alloc sets / collections", Paper: "2%", Format: report.Pct,
		Value: func(p *Pool) float64 { a := p.allocSets(); return share(a.AllocSets, a.Collections) }},
	{Name: "alloc_cpu_share", Artifact: "§5.1", Label: "alloc share of CPU allocation", Paper: "20%", Format: report.Pct,
		Value: func(p *Pool) float64 { a := p.allocSets(); return share(a.CPUAllocSets, a.CPUAlloc) }},
	{Name: "alloc_mem_share", Artifact: "§5.1", Label: "alloc share of RAM allocation", Paper: "18%", Format: report.Pct,
		Value: func(p *Pool) float64 { a := p.allocSets(); return share(a.MemAllocSets, a.MemAlloc) }},
	{Name: "jobs_in_alloc_share", Artifact: "§5.1", Label: "jobs running in allocs", Paper: "15%", Format: report.Pct,
		Value: func(p *Pool) float64 { a := p.allocSets(); return share(a.InAlloc, a.Jobs) }},
	{Name: "prod_share_in_alloc", Artifact: "§5.1", Label: "prod share of in-alloc jobs", Paper: "95%", Format: report.Pct,
		Value: func(p *Pool) float64 { a := p.allocSets(); return share(a.ProdInAlloc, a.InAlloc) }},
	// Mean memory usage over limit per usage record.
	{Name: "mem_util_in_alloc", Artifact: "§5.1", Label: "mem utilization inside allocs", Paper: "73%", Format: report.Pct,
		Value: func(p *Pool) float64 { a := p.allocSets(); return share(a.MemUtilIn, a.WeightIn) }},
	{Name: "mem_util_outside_alloc", Artifact: "§5.1", Label: "mem utilization outside", Paper: "41%", Format: report.Pct,
		Value: func(p *Pool) float64 { a := p.allocSets(); return share(a.MemUtilOut, a.WeightOut) }},
	{Name: "evicted_share", Artifact: "§5.2", Label: "collections with any eviction", Paper: "3.2%", Format: report.Pct,
		Value: func(p *Pool) float64 { t := p.terminations(); return share(t.Evicted, t.Collections) }},
	{Name: "nonprod_share_of_evicted", Artifact: "§5.2", Label: "non-prod share of evicted", Paper: "96.6%", Format: report.Pct,
		Value: func(p *Pool) float64 { t := p.terminations(); return share(t.NonProdEvicted, t.Evicted) }},
	{Name: "prod_evicted_share", Artifact: "§5.2", Label: "prod collections evicted", Paper: "<0.2%", Format: report.Pct,
		Value: func(p *Pool) float64 { t := p.terminations(); return share(t.ProdEvicted, t.Prod) }},
	{Name: "single_eviction_share", Artifact: "§5.2", Label: "single-eviction share (prod)", Paper: "52%", Format: report.Pct,
		Value: func(p *Pool) float64 { t := p.terminations(); return share(t.ProdEvictedOnce, t.ProdEvicted) }},
	{Name: "kill_rate_with_parent", Artifact: "§5.2", Label: "kill rate with parent", Paper: "87%", Format: report.Pct,
		Value: func(p *Pool) float64 { t := p.terminations(); return share(t.WithParentKilled, t.WithParent) }},
	{Name: "kill_rate_without_parent", Artifact: "§5.2", Label: "kill rate without parent", Paper: "41%", Format: report.Pct,
		Value: func(p *Pool) float64 { t := p.terminations(); return share(t.WithoutParentKilled, t.WithoutParent) }},

	{Name: "job_rate_ratio", Artifact: "Figure 8", Label: "median ratio 2019/2011", Paper: "paper: 3.7x", Format: report.F,
		Uses2011: true, Value: func(p *Pool) float64 {
			return stats.Quantile(rates(p.r2019, true).JobsPerHour, 0.5) /
				stats.Quantile(rates([]*streaming.CellReducer{p.r2011}, true).JobsPerHour, 0.5)
		}},
	{Name: "resubmit_ratio_2011", Artifact: "Figure 9", Label: "resubmit:new 2011", Paper: "paper: 0.66", Format: report.F,
		Uses2011: true, Value: func(p *Pool) float64 { return resubmitRatio(p.r2011.Rates()) }},
	{Name: "resubmit_ratio_2019", Artifact: "Figure 9", Label: "resubmit:new 2019", Paper: "paper: 2.26", Format: report.F,
		Value: func(p *Pool) float64 { return resubmitRatio(rates(p.r2019, false)) }},
	{Name: "pearson_r", Artifact: "Figure 13", Label: "Pearson r", Paper: "paper: 0.97", Format: report.F,
		Value: func(p *Pool) float64 { _, r := p.correlation(); return r }},
	// Table 2 prints it in its own layout.
	{Name: "top1_cpu_load", Value: func(p *Pool) float64 { return p.table2019()[0].Top1Share }},
}
