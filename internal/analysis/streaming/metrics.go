package streaming

import (
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Scalar is one named scalar figure-of-merit extracted from a finished
// reducer. Scalars are the unit of parameter-sweep statistics: each is a
// single comparable number per (cell, seed, variant), so cross-seed
// means and confidence intervals are well defined where full figure
// tables are not.
type Scalar struct {
	Name  string
	Value float64
}

// scalarNames is the fixed emission order of Scalars. Order is part of
// the contract: sweep aggregation indexes metric vectors positionally.
var scalarNames = []string{
	"cpu_util",          // post-warmup mean CPU usage, fraction of capacity
	"mem_util",          // post-warmup mean memory usage
	"cpu_alloc",         // post-warmup mean CPU allocation (limit) fraction
	"mem_alloc",         // post-warmup mean memory allocation fraction
	"jobs_per_hr_p50",   // median hourly job submission rate (raw, cell scale)
	"tasks_per_hr_p50",  // median hourly task submission rate incl. resubmits
	"delay_p50_s",       // median job scheduling delay, seconds
	"delay_p99_s",       // p99 job scheduling delay, seconds
	"evicted_share",     // fraction of collections with ≥1 eviction
	"tasks_per_job_p95", // p95 tasks per job, all tiers pooled
}

// ScalarNames lists the metrics Scalars emits, in emission order.
func ScalarNames() []string {
	return append([]string(nil), scalarNames...)
}

// Scalars extracts the cell's comparable scalar metrics from finished
// reducer state, in ScalarNames order. warmup excludes the ramp-in hours
// from the utilization and allocation averages, exactly as Figures 3/5
// do. Quantile metrics over empty sample sets report 0 rather than NaN
// so cross-seed aggregation stays finite.
func (r *CellReducer) Scalars(warmup sim.Time) []Scalar {
	r.finalize()

	sumTiers := func(a TierAverages) (cpu, mem float64) {
		for _, tier := range trace.Tiers() {
			cpu += a.CPU[tier]
			mem += a.Mem[tier]
		}
		return cpu, mem
	}
	cell := r.meta.Cell
	useCPU, useMem := sumTiers(averageOfSeries(r.usageSeries, cell, warmup))
	allocCPU, allocMem := sumTiers(averageOfSeries(r.allocSeries, cell, warmup))

	var tpj []float64
	for _, tier := range trace.Tiers() {
		tpj = append(tpj, r.tasksPerJob[tier]...)
	}
	term := FinishTerminations([]TerminationAccum{r.termAccum})

	values := []float64{
		useCPU,
		useMem,
		allocCPU,
		allocMem,
		quantileOrZero(r.rates.JobsPerHour, 0.5),
		quantileOrZero(r.rates.AllTasksPerHour, 0.5),
		quantileOrZero(r.delays.All, 0.5),
		quantileOrZero(r.delays.All, 0.99),
		term.CollectionsWithEviction,
		quantileOrZero(tpj, 0.95),
	}
	out := make([]Scalar, len(values))
	for i, v := range values {
		out[i] = Scalar{Name: scalarNames[i], Value: v}
	}
	return out
}

// quantileOrZero is stats.Quantile with 0 (not NaN) for empty samples.
func quantileOrZero(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}
