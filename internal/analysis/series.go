// Package analysis holds the pieces every analysis of the paper is built
// from: resource utilization and allocation series (Figures 2–5),
// machine shape and utilization distributions (Figures 1 and 6), state
// transitions (Figure 7), alloc-set and termination statistics (§5.1,
// §5.2), scheduler load (Figures 8–10), tasks-per-job (Figure 11),
// heavy-tailed usage integrals (Table 2, Figures 12–13), Autopilot slack
// (Figure 14) and Table 1's inventory.
//
// Each analysis is factored into a per-cell accumulation step and an
// exact merge/finish step. The per-cell step is driven by one caller,
// streaming.CellReducer in the analysis/streaming subpackage, which folds
// a cell's rows as the simulation emits them (or as streaming.Replay
// feeds a retained trace back). Where the paper aggregates across the 8
// cells of the 2019 trace, the Merge and Finish functions here combine
// the per-cell products in cell order, so the result does not depend on
// how many cells ran at once.
package analysis

import (
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// ShapePoint is one machine shape with its population (Figure 1).
type ShapePoint struct {
	CPU, Mem float64
	Count    int
}

// ShapesOf derives Figure 1's shape populations from a machine-capacity
// snapshot, as a streaming reducer maintains it.
func ShapesOf(caps map[trace.MachineID]trace.MachineEvent) []ShapePoint {
	counts := make(map[trace.Resources]int)
	for _, ev := range caps {
		counts[ev.Capacity]++
	}
	out := make([]ShapePoint, 0, len(counts))
	for r, n := range counts {
		out = append(out, ShapePoint{CPU: r.CPU, Mem: r.Mem, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].CPU != out[j].CPU {
			return out[i].CPU < out[j].CPU
		}
		return out[i].Mem < out[j].Mem
	})
	return out
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

// TotalCapacity sums a capacity snapshot in ascending machine-ID order.
// The order is fixed so the floating-point sum does not depend on map
// iteration order.
func TotalCapacity(caps map[trace.MachineID]trace.MachineEvent) trace.Resources {
	ids := make([]trace.MachineID, 0, len(caps))
	for id := range caps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sum trace.Resources
	for _, id := range ids {
		sum = sum.Add(caps[id].Capacity)
	}
	return sum
}

// SeriesHours converts a trace horizon to the hourly bucket count used by
// the Figure 2/4 series (at least one bucket).
func SeriesHours(duration sim.Time) int {
	hours := int(duration / sim.Hour)
	if hours <= 0 {
		hours = 1
	}
	return hours
}

// SeriesAccum accumulates the raw per-tier resource-hour sums behind a
// TierSeries, one usage record at a time in emission order. Normalization
// by cell capacity happens once in Finish, so the accumulation itself
// needs no knowledge of the cell — the property that lets a streaming
// reducer fold records before the cell's final capacity is known.
type SeriesAccum struct {
	hours int
	// Tiers are dense (0..NumTiers-1), so the per-tier buckets live in
	// arrays rather than maps: folding a record is pure indexed
	// arithmetic, which matters because this sits on the reducer's
	// per-usage-record path.
	cpu, mem [trace.NumTiers][]float64
}

// NewSeriesAccum returns a zeroed accumulator with one bucket per hour.
func NewSeriesAccum(hours int) *SeriesAccum {
	a := &SeriesAccum{hours: hours}
	for _, t := range trace.Tiers() {
		a.cpu[t] = make([]float64, hours)
		a.mem[t] = make([]float64, hours)
	}
	return a
}

// sampleWindowHours is ObserveAt's per-record weight, hoisted.
var sampleWindowHours = sim.SampleWindow.Hours()

// ObserveAt folds one usage record's contribution (v, normally the
// record's average usage or its limit) into the hour bucket containing
// the record's start, in the record's tier. It takes the three fields
// rather than the record so the reducer's per-record path copies no
// record.
func (a *SeriesAccum) ObserveAt(start sim.Time, tier trace.Tier, v trace.Resources) {
	h := int(start / sim.Hour)
	if h < 0 || h >= a.hours {
		return
	}
	a.cpu[tier][h] += v.CPU * sampleWindowHours
	a.mem[tier][h] += v.Mem * sampleWindowHours
}

// Finish normalizes the accumulated resource-hours by the cell's hourly
// capacity and returns the series. A non-positive capacity yields the
// zero series.
func (a *SeriesAccum) Finish(capacity trace.Resources) TierSeries {
	s := newTierSeries(a.hours)
	if capacity.CPU <= 0 || capacity.Mem <= 0 {
		return s
	}
	for _, t := range trace.Tiers() {
		for i := 0; i < a.hours; i++ {
			s.CPU[t][i] = a.cpu[t][i] / capacity.CPU
			s.Mem[t][i] = a.mem[t][i] / capacity.Mem
		}
	}
	return s
}

// AverageSeries averages several cells' series point-wise (the paper's
// "averaged across all 8 cells" panels). Series must have equal lengths;
// shorter series are padded as missing (ignored at that index).
func AverageSeries(all []TierSeries) TierSeries {
	n := 0
	for _, s := range all {
		if len(s.Hours) > n {
			n = len(s.Hours)
		}
	}
	out := newTierSeries(n)
	for i := 0; i < n; i++ {
		for _, tier := range trace.Tiers() {
			var sum float64
			var count int
			for _, s := range all {
				if i < len(s.CPU[tier]) {
					sum += s.CPU[tier][i]
					count++
				}
			}
			if count > 0 {
				out.CPU[tier][i] = sum / float64(count)
			}
			sum, count = 0, 0
			for _, s := range all {
				if i < len(s.Mem[tier]) {
					sum += s.Mem[tier][i]
					count++
				}
			}
			if count > 0 {
				out.Mem[tier][i] = sum / float64(count)
			}
		}
	}
	return out
}

// TierAverages is one cell's whole-trace average utilization or
// allocation by tier (one group of bars in Figures 3 and 5).
type TierAverages struct {
	Cell string
	CPU  map[trace.Tier]float64
	Mem  map[trace.Tier]float64
}

// AverageOfSeries reduces an hourly series to its post-warmup mean per
// tier (the shared final step of Figures 3 and 5).
func AverageOfSeries(s TierSeries, cell string, warmup sim.Time) TierAverages {
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

// UtilizationSamples turns a capacity snapshot and the per-machine usage
// totals of one sampling window into Figure 6's per-machine utilization
// samples, in ascending machine-ID order.
func UtilizationSamples(caps map[trace.MachineID]trace.MachineEvent,
	usage map[trace.MachineID]trace.Resources) (cpu, mem []float64) {
	ids := make([]trace.MachineID, 0, len(caps))
	for id := range caps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		c := caps[id].Capacity
		u := usage[id]
		// Work-conserving machines cannot exceed their physical capacity;
		// records of tasks that stopped mid-window can overlap the
		// snapshot instant with the survivors' windows, so clamp.
		if c.CPU > 0 {
			cpu = append(cpu, math.Min(1, u.CPU/c.CPU))
		}
		if c.Mem > 0 {
			mem = append(mem, math.Min(1, u.Mem/c.Mem))
		}
	}
	return cpu, mem
}
