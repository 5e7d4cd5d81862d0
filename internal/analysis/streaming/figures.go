package streaming

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// This file holds every figure's product types and the steps that run
// after a cell's fold: the cross-cell merges, in cell order, and the
// statistics a figure derives from merged products.

// Concat gathers part(c) of every cell c, in cell order, into one fresh
// slice allocated at its final length. It is the cross-cell merge of
// every pooled sample product (Figures 8–13): the result never aliases a
// cell's samples, so its caller may reorder it.
func Concat[C any](cells []C, part func(C) []float64) []float64 {
	n := 0
	for _, c := range cells {
		n += len(part(c))
	}
	out := make([]float64, 0, n)
	for _, c := range cells {
		out = append(out, part(c)...)
	}
	return out
}

// ShapePoint is one machine shape with its population (Figure 1).
type ShapePoint struct {
	CPU, Mem float64
	Count    int
}

// TierSeries is an hourly stacked time series of per-tier fractions of
// cell capacity (Figures 2 and 4).
type TierSeries struct {
	// Hours[i] is the start (in hours) of interval i.
	Hours []float64
	// CPU[tier][i] and Mem[tier][i] are fractions of cell capacity.
	CPU map[trace.Tier][]float64
	Mem map[trace.Tier][]float64
}

// newTierSeries allocates a zeroed series of n hours.
func newTierSeries(n int) TierSeries {
	s := TierSeries{
		Hours: make([]float64, n),
		CPU:   make(map[trace.Tier][]float64),
		Mem:   make(map[trace.Tier][]float64),
	}
	for i := range s.Hours {
		s.Hours[i] = float64(i)
	}
	for _, t := range trace.Tiers() {
		s.CPU[t] = make([]float64, n)
		s.Mem[t] = make([]float64, n)
	}
	return s
}

// AverageSeries averages several cells' series point-wise (the paper's
// "averaged across all 8 cells" panels). Series must have equal lengths;
// shorter series are padded as missing (ignored at that index).
func AverageSeries(all []TierSeries) TierSeries {
	n := 0
	for _, s := range all {
		n = max(n, len(s.Hours))
	}
	out := newTierSeries(n)
	for _, tier := range trace.Tiers() {
		averageInto(out.CPU[tier], all, func(s TierSeries) []float64 { return s.CPU[tier] })
		averageInto(out.Mem[tier], all, func(s TierSeries) []float64 { return s.Mem[tier] })
	}
	return out
}

// averageInto sets dst[i] to the mean of part(s)[i] over the series s
// that reach index i.
func averageInto(dst []float64, all []TierSeries, part func(TierSeries) []float64) {
	for i := range dst {
		var sum float64
		var count int
		for _, s := range all {
			if xs := part(s); i < len(xs) {
				sum += xs[i]
				count++
			}
		}
		if count > 0 {
			dst[i] = sum / float64(count)
		}
	}
}

// TierAverages is one cell's whole-trace average utilization or
// allocation by tier (one group of bars in Figures 3 and 5).
type TierAverages struct {
	Cell string
	CPU  map[trace.Tier]float64
	Mem  map[trace.Tier]float64
}

// averageOfSeries reduces an hourly series to its post-warmup mean per
// tier (the shared final step of Figures 3 and 5).
func averageOfSeries(s TierSeries, cell string, warmup sim.Time) TierAverages {
	out := TierAverages{
		Cell: cell,
		CPU:  make(map[trace.Tier]float64),
		Mem:  make(map[trace.Tier]float64),
	}
	start := int(warmup / sim.Hour)
	if start >= len(s.Hours) {
		start = 0
	}
	n := len(s.Hours) - start
	if n <= 0 {
		return out
	}
	for _, tier := range trace.Tiers() {
		var c, m float64
		for i := start; i < len(s.Hours); i++ {
			c += s.CPU[tier][i]
			m += s.Mem[tier][i]
		}
		out.CPU[tier] = c / float64(n)
		out.Mem[tier] = m / float64(n)
	}
	return out
}

// Transition is one edge of Figure 7's state-transition diagram.
type Transition struct {
	From, To string
	Count    int
}

// AllocSetAccum is one cell's partial accumulation of §5.1's statistics.
// Counts are exact and the float sums fold usage records in emission
// order, so the same rows always give bit-identical partials. The metric
// table (experiments.Metrics) derives §5.1's shares from merged sums.
type AllocSetAccum struct {
	Collections, AllocSets     int
	Jobs, InAlloc, ProdInAlloc int
	CPUAlloc, CPUAllocSets     float64
	MemAlloc, MemAllocSets     float64
	MemUtilIn, MemUtilOut      float64
	WeightIn, WeightOut        float64
}

// MergeAllocSets adds per-cell partials in cell order.
func MergeAllocSets(accums []AllocSetAccum) AllocSetAccum {
	var t AllocSetAccum
	for _, a := range accums {
		t.Collections += a.Collections
		t.AllocSets += a.AllocSets
		t.Jobs += a.Jobs
		t.InAlloc += a.InAlloc
		t.ProdInAlloc += a.ProdInAlloc
		t.CPUAlloc += a.CPUAlloc
		t.CPUAllocSets += a.CPUAllocSets
		t.MemAlloc += a.MemAlloc
		t.MemAllocSets += a.MemAllocSets
		t.MemUtilIn += a.MemUtilIn
		t.MemUtilOut += a.MemUtilOut
		t.WeightIn += a.WeightIn
		t.WeightOut += a.WeightOut
	}
	return t
}

// TerminationAccum is one cell's partial accumulation of §5.2's counts:
// collections by final event (EventSubmit = still running at trace
// end), evicted, production and parented ones. Everything is integral,
// so per-cell partials merge exactly. The metric table
// (experiments.Metrics) derives §5.2's rates from merged counts.
type TerminationAccum struct {
	Collections                                 int
	ByFinal                                     [trace.NumEventTypes]int
	Evicted, Prod, ProdEvicted, ProdEvictedOnce int
	NonProdEvicted                              int
	WithParent, WithParentKilled                int
	WithoutParent, WithoutParentKilled          int
}

// MergeTerminations adds per-cell partials.
func MergeTerminations(accums []TerminationAccum) TerminationAccum {
	var t TerminationAccum
	for _, a := range accums {
		t.Collections += a.Collections
		for e := range t.ByFinal {
			t.ByFinal[e] += a.ByFinal[e]
		}
		t.Evicted += a.Evicted
		t.Prod += a.Prod
		t.ProdEvicted += a.ProdEvicted
		t.ProdEvictedOnce += a.ProdEvictedOnce
		t.NonProdEvicted += a.NonProdEvicted
		t.WithParent += a.WithParent
		t.WithParentKilled += a.WithParentKilled
		t.WithoutParent += a.WithoutParent
		t.WithoutParentKilled += a.WithoutParentKilled
	}
	return t
}

// SubmissionRates holds Figures 8 and 9's hourly rate samples for one
// cell (each element is one cell-hour).
type SubmissionRates struct {
	JobsPerHour     []float64 // job SUBMIT events per hour (Figure 8)
	NewTasksPerHour []float64 // first-time instance SUBMITs (Figure 9)
	AllTasksPerHour []float64 // all instance SUBMITs incl. rescheduling
}

// DelaySamples holds Figure 10's per-job scheduling delays in seconds —
// the time from the job's ENABLE (ready) to its first task running —
// overall and split by tier.
type DelaySamples struct {
	All    []float64
	ByTier map[trace.Tier][]float64
}

// UsageIntegrals holds each job's lifetime resource consumption: the
// integral of usage over time in NCU-hours and NMU-hours (§7). Index i of
// both slices refers to the same job.
type UsageIntegrals struct {
	CPUHours []float64
	MemHours []float64
}

// Table2Column holds one column of the paper's Table 2: the distribution
// of per-job resource-hours for one resource dimension in one era.
type Table2Column struct {
	Median      float64
	Mean        float64
	Variance    float64
	P90         float64
	P99         float64
	P999        float64
	Max         float64
	Top1Share   float64 // load from the top 1% of jobs (paper 2019: 99.2%)
	Top01Share  float64 // load from the top 0.1% (paper 2019: 93.1%)
	C2          float64 // squared coefficient of variation (paper: 23k/43k)
	ParetoAlpha float64 // fitted tail index (paper: 0.69/0.72)
	ParetoR2    float64 // goodness of fit (paper: >99%)
	N           int
}

// ComputeTable2Column derives all of Table 2's statistics for one sample
// of per-job resource-hours. The Pareto fit follows the paper: jobs using
// more than 1 resource-hour, excluding the top 0.01%.
func ComputeTable2Column(hours []float64) Table2Column {
	s := stats.Summarize(hours)
	fit := stats.FitParetoTail(hours, 1, 0.9999)
	return Table2Column{
		Median:      s.Median,
		Mean:        s.Mean,
		Variance:    s.Variance,
		P90:         s.P90,
		P99:         s.P99,
		P999:        s.P999,
		Max:         s.Max,
		Top1Share:   stats.TopShare(hours, 0.01),
		Top01Share:  stats.TopShare(hours, 0.001),
		C2:          s.C2,
		ParetoAlpha: fit.Alpha,
		ParetoR2:    fit.R2,
		N:           s.N,
	}
}

// LogGrid builds a logarithmic grid with pointsPerDecade points between
// lo and hi.
func LogGrid(lo, hi float64, pointsPerDecade int) []float64 {
	var out []float64
	step := math.Pow(10, 1/float64(pointsPerDecade))
	for x := lo; x <= hi*1.0000001; x *= step {
		out = append(out, x)
	}
	return out
}

// BucketPoint is one point of Figure 13: jobs bucketed by NCU-hours, with
// the bucket's median NMU-hours.
type BucketPoint struct {
	NCUHours  float64 // bucket lower edge
	MedianNMU float64
	Jobs      int
}

// CPUMemCorrelation buckets jobs into 1-NCU-hour buckets and reports each
// bucket's median NMU-hours plus the Pearson correlation across buckets
// (NaN below three buckets, see stats.Pearson).
func CPUMemCorrelation(integrals UsageIntegrals, maxBucket int) (points []BucketPoint, pearson float64) {
	buckets := make(map[int][]float64)
	for i, c := range integrals.CPUHours {
		b := int(c)
		if b < 0 || b >= maxBucket {
			continue
		}
		buckets[b] = append(buckets[b], integrals.MemHours[i])
	}
	keys := make([]int, 0, len(buckets))
	for b := range buckets {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	var xs, ys []float64
	for _, b := range keys {
		med := stats.Quantile(buckets[b], 0.5)
		points = append(points, BucketPoint{NCUHours: float64(b), MedianNMU: med, Jobs: len(buckets[b])})
		xs = append(xs, float64(b))
		ys = append(ys, med)
	}
	pearson = stats.Pearson(xs, ys)
	return points, pearson
}

// SlackSampleOf computes one usage record's peak NCU slack percentage:
//
//	peak NCU slack = max(0, limit − max usage) / limit.
//
// The second return is false when the record carries no CPU limit.
// The record is passed by pointer because this runs once per usage row
// on the streaming hot path; it is not retained.
func SlackSampleOf(rec *trace.UsageRecord) (float64, bool) {
	if rec.Limit.CPU <= 0 {
		return 0, false
	}
	slack := (rec.Limit.CPU - rec.MaxUsage.CPU) / rec.Limit.CPU
	if slack < 0 {
		slack = 0
	}
	return slack * 100, true
}

// Table1Row is one row of Table 1's trace comparison.
type Table1Row struct {
	Metric string
	V2011  string
	V2019  string
}

// Inventory is one cell's Table 1 metadata: machine population, hardware
// diversity, priority range and feature flags. MergeInventories combines
// cells exactly.
type Inventory struct {
	Machines     int
	Platforms    map[string]bool
	Shapes       map[trace.Resources]bool
	MinPriority  int // math.MaxInt32 when no collection was seen
	MaxPriority  int // -1 when no collection was seen
	AllocSets    bool
	Dependencies bool
	BatchQueue   bool
	Vertical     bool
}

// MergeInventories combines per-cell inventories.
func MergeInventories(cells []Inventory) Inventory {
	out := Inventory{
		Platforms:   make(map[string]bool),
		Shapes:      make(map[trace.Resources]bool),
		MinPriority: math.MaxInt32,
		MaxPriority: -1,
	}
	for _, c := range cells {
		out.Machines += c.Machines
		for p := range c.Platforms {
			out.Platforms[p] = true
		}
		for s := range c.Shapes {
			out.Shapes[s] = true
		}
		out.MinPriority = min(out.MinPriority, c.MinPriority)
		out.MaxPriority = max(out.MaxPriority, c.MaxPriority)
		out.AllocSets = out.AllocSets || c.AllocSets
		out.Dependencies = out.Dependencies || c.Dependencies
		out.BatchQueue = out.BatchQueue || c.BatchQueue
		out.Vertical = out.Vertical || c.Vertical
	}
	return out
}

func (v Inventory) prioRange() string {
	if v.MaxPriority < 0 {
		return ""
	}
	return strconv.Itoa(v.MinPriority) + "–" + strconv.Itoa(v.MaxPriority)
}

// Table1FromInventories rebuilds the paper's Table 1 from merged per-era
// inventories plus the trace durations and the 2019 cell count.
func Table1FromInventories(count2011 Inventory, dur2011 sim.Time,
	count2019 Inventory, dur2019 sim.Time, cells2019 int) []Table1Row {
	boolStr := func(b bool) string {
		if b {
			return "Y"
		}
		return "–"
	}
	fmtI := strconv.Itoa
	return []Table1Row{
		{"Duration (days)", fmtF(dur2011.Hours() / 24), fmtF(dur2019.Hours() / 24)},
		{"Cells", "1", fmtI(cells2019)},
		{"Machines", fmtI(count2011.Machines), fmtI(count2019.Machines)},
		{"Machines per cell", fmtI(count2011.Machines), fmtI(count2019.Machines / cells2019)},
		{"Hardware platforms", fmtI(len(count2011.Platforms)), fmtI(len(count2019.Platforms))},
		{"Machine shapes", fmtI(len(count2011.Shapes)), fmtI(len(count2019.Shapes))},
		{"Priority values", count2011.prioRange(), count2019.prioRange()},
		{"Alloc sets", boolStr(count2011.AllocSets), boolStr(count2019.AllocSets)},
		{"Job dependencies", boolStr(count2011.Dependencies), boolStr(count2019.Dependencies)},
		{"Batch queueing", boolStr(count2011.BatchQueue), boolStr(count2019.BatchQueue)},
		{"Vertical scaling", boolStr(count2011.Vertical), boolStr(count2019.Vertical)},
	}
}

func fmtF(v float64) string {
	if v == math.Trunc(v) {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'f', 1, 64)
}
