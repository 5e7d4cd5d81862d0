package analysis

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// UsageIntegrals holds each job's lifetime resource consumption: the
// integral of usage over time in NCU-hours and NMU-hours (§7). Index i of
// both slices refers to the same job.
type UsageIntegrals struct {
	CPUHours []float64
	MemHours []float64
}

// MergeIntegrals concatenates per-cell integrals in cell order.
func MergeIntegrals(cells []UsageIntegrals) UsageIntegrals {
	var out UsageIntegrals
	for _, c := range cells {
		out.CPUHours = append(out.CPUHours, c.CPUHours...)
		out.MemHours = append(out.MemHours, c.MemHours...)
	}
	return out
}

// FinishIntegrals orders per-job resource-hour sums by ascending
// collection ID into the figure-ready sample slices. Only jobs present in
// the cpu map (i.e. with at least one usage record) are emitted.
func FinishIntegrals(cpu, mem map[trace.CollectionID]float64) UsageIntegrals {
	var out UsageIntegrals
	ids := make([]trace.CollectionID, 0, len(cpu))
	for id := range cpu {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		out.CPUHours = append(out.CPUHours, cpu[id])
		out.MemHours = append(out.MemHours, mem[id])
	}
	return out
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
// (paper: 0.97).
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
// diversity, priority range and feature flags. A streaming reducer
// builds it online, and MergeInventories combines cells exactly.
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

// NewInventory returns an empty inventory.
func NewInventory() Inventory {
	return Inventory{
		Platforms:   make(map[string]bool),
		Shapes:      make(map[trace.Resources]bool),
		MinPriority: math.MaxInt32,
		MaxPriority: -1,
	}
}

// ObserveMachine counts one machine of the final capacity snapshot.
func (v *Inventory) ObserveMachine(ev trace.MachineEvent) {
	v.Machines++
	v.Platforms[ev.Platform] = true
	v.Shapes[ev.Capacity] = true
}

// ObserveCollection folds one collection's static attributes.
func (v *Inventory) ObserveCollection(info trace.CollectionInfo) {
	if info.Priority < v.MinPriority {
		v.MinPriority = info.Priority
	}
	if info.Priority > v.MaxPriority {
		v.MaxPriority = info.Priority
	}
	if info.CollectionType == trace.CollectionAllocSet {
		v.AllocSets = true
	}
	if info.Parent != 0 {
		v.Dependencies = true
	}
	if info.Scaling != trace.ScalingNone {
		v.Vertical = true
	}
}

// MergeInventories combines per-cell inventories.
func MergeInventories(cells []Inventory) Inventory {
	out := NewInventory()
	for _, c := range cells {
		out.Machines += c.Machines
		for p := range c.Platforms {
			out.Platforms[p] = true
		}
		for s := range c.Shapes {
			out.Shapes[s] = true
		}
		if c.MinPriority < out.MinPriority {
			out.MinPriority = c.MinPriority
		}
		if c.MaxPriority > out.MaxPriority {
			out.MaxPriority = c.MaxPriority
		}
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
	return fmtI(v.MinPriority) + "–" + fmtI(v.MaxPriority)
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

func fmtI(v int) string { return strconv.Itoa(v) }

func fmtF(v float64) string {
	if v == math.Trunc(v) {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'f', 1, 64)
}
