package analysis

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Transition is one edge of Figure 7's state-transition diagram.
type Transition struct {
	From, To string
	Count    int
}

// TransitionCounts tallies consecutive event-type pairs, indexed
// [from][to]. Types become names only in TransitionsFromCounts, so the
// per-event tally is one array increment.
type TransitionCounts [trace.NumEventTypes][trace.NumEventTypes]int

// Observe counts one edge.
func (c *TransitionCounts) Observe(from, to trace.EventType) {
	c[from][to]++
}

// TransitionsFromCounts sorts a tally's observed edges into Figure 7's
// edge list (count descending, then lexicographic).
func TransitionsFromCounts(counts *TransitionCounts) []Transition {
	var out []Transition
	for from := range counts {
		for to, n := range counts[from] {
			if n > 0 {
				out = append(out, Transition{
					From: trace.EventType(from).String(), To: trace.EventType(to).String(), Count: n,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// AllocSetStats reproduces §5.1's alloc-set findings.
type AllocSetStats struct {
	Collections      int
	AllocSets        int
	AllocSetShare    float64 // alloc sets / collections (paper: 2%)
	CPUAllocShare    float64 // alloc reservations / total allocation (paper: 20%)
	MemAllocShare    float64 // (paper: 18%)
	JobsInAllocShare float64 // jobs targeting an alloc set (paper: 15%)
	ProdShareInAlloc float64 // prod share of those (paper: 95%)
	MemUtilInAlloc   float64 // mean mem usage ÷ limit inside allocs (paper: 73%)
	MemUtilOutside   float64 // (paper: 41%)
}

// AllocSetAccum is one cell's partial accumulation of §5.1's statistics.
// Counts are exact and the float sums fold usage records in emission
// order, so the same rows always give bit-identical partials.
type AllocSetAccum struct {
	Collections, AllocSets     int
	Jobs, InAlloc, ProdInAlloc int
	CPUAlloc, CPUAllocSets     float64
	MemAlloc, MemAllocSets     float64
	MemUtilIn, MemUtilOut      float64
	WeightIn, WeightOut        float64
}

// ObserveCollection counts one collection's static attributes.
func (a *AllocSetAccum) ObserveCollection(ct trace.CollectionType, allocSet trace.CollectionID, tier trace.Tier) {
	a.Collections++
	if ct == trace.CollectionAllocSet {
		a.AllocSets++
		return
	}
	a.Jobs++
	if allocSet != 0 {
		a.InAlloc++
		if tier == trace.TierProduction {
			a.ProdInAlloc++
		}
	}
}

// ObserveUsage folds one usage record, categorized by its collection:
// the record belongs to an alloc set, to a job inside an alloc set, or to
// a free-standing job. The record is passed by pointer because this runs
// once per usage row on the streaming hot path; it is not retained.
func (a *AllocSetAccum) ObserveUsage(rec *trace.UsageRecord, isAllocSet, inAllocSet bool) {
	switch {
	case isAllocSet:
		a.CPUAllocSets += rec.Limit.CPU
		a.MemAllocSets += rec.Limit.Mem
		a.CPUAlloc += rec.Limit.CPU
		a.MemAlloc += rec.Limit.Mem
	case inAllocSet:
		// Consumes its alloc set's reservation, not fresh allocation;
		// contributes to utilization-inside.
		if rec.Limit.Mem > 0 {
			a.MemUtilIn += rec.AvgUsage.Mem / rec.Limit.Mem
			a.WeightIn++
		}
	default:
		a.CPUAlloc += rec.Limit.CPU
		a.MemAlloc += rec.Limit.Mem
		if rec.Limit.Mem > 0 {
			a.MemUtilOut += rec.AvgUsage.Mem / rec.Limit.Mem
			a.WeightOut++
		}
	}
}

// FinishAllocSets merges per-cell partials in order and derives §5.1's
// ratios.
func FinishAllocSets(accums []AllocSetAccum) AllocSetStats {
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
	st := AllocSetStats{Collections: t.Collections, AllocSets: t.AllocSets}
	if t.Collections > 0 {
		st.AllocSetShare = float64(t.AllocSets) / float64(t.Collections)
	}
	if t.CPUAlloc > 0 {
		st.CPUAllocShare = t.CPUAllocSets / t.CPUAlloc
	}
	if t.MemAlloc > 0 {
		st.MemAllocShare = t.MemAllocSets / t.MemAlloc
	}
	if t.Jobs > 0 {
		st.JobsInAllocShare = float64(t.InAlloc) / float64(t.Jobs)
	}
	if t.InAlloc > 0 {
		st.ProdShareInAlloc = float64(t.ProdInAlloc) / float64(t.InAlloc)
	}
	if t.WeightIn > 0 {
		st.MemUtilInAlloc = t.MemUtilIn / t.WeightIn
	}
	if t.WeightOut > 0 {
		st.MemUtilOutside = t.MemUtilOut / t.WeightOut
	}
	return st
}

// TerminationStats reproduces §5.2's findings.
type TerminationStats struct {
	Collections int
	// ByFinal counts collections by their final termination event
	// (EventSubmit = still running at trace end).
	ByFinal map[trace.EventType]int
	// CollectionsWithEviction is the share of collections that saw at
	// least one instance eviction (paper: 3.2%).
	CollectionsWithEviction float64
	// NonProdShareOfEvicted is the non-production share among those
	// (paper: 96.6%).
	NonProdShareOfEvicted float64
	// ProdEvictedShare is the share of production collections with any
	// instance eviction (paper: <0.2%).
	ProdEvictedShare float64
	// SingleEvictionShare is, among evicted production collections, the
	// share with exactly one eviction (paper: 52%).
	SingleEvictionShare float64
	// KillRateWithParent / KillRateWithoutParent compare KILL outcomes
	// for jobs with and without parents (paper: 87% vs 41%).
	KillRateWithParent    float64
	KillRateWithoutParent float64
}

// TerminationAccum is one cell's partial accumulation of §5.2's counts.
// Everything is integral, so per-cell partials merge exactly.
type TerminationAccum struct {
	Collections                                 int
	ByFinal                                     [trace.NumEventTypes]int
	Evicted, Prod, ProdEvicted, ProdEvictedOnce int
	NonProdEvicted                              int
	WithParent, WithParentKilled                int
	WithoutParent, WithoutParentKilled          int
}

// ObserveCollection counts one collection's outcome; evictions is the
// number of instance EVICT events its instances logged.
func (a *TerminationAccum) ObserveCollection(info trace.CollectionInfo, evictions int) {
	a.Collections++
	a.ByFinal[info.FinalEvent]++
	if evictions > 0 {
		a.Evicted++
		if info.Tier == trace.TierProduction {
			a.ProdEvicted++
			if evictions == 1 {
				a.ProdEvictedOnce++
			}
		} else {
			a.NonProdEvicted++
		}
	}
	if info.Tier == trace.TierProduction {
		a.Prod++
	}
	if info.CollectionType != trace.CollectionJob {
		return
	}
	killed := info.FinalEvent == trace.EventKill
	if info.Parent != 0 {
		a.WithParent++
		if killed {
			a.WithParentKilled++
		}
	} else {
		a.WithoutParent++
		if killed {
			a.WithoutParentKilled++
		}
	}
}

// FinishTerminations merges per-cell partials and derives §5.2's ratios.
func FinishTerminations(accums []TerminationAccum) TerminationStats {
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
	st := TerminationStats{Collections: t.Collections, ByFinal: make(map[trace.EventType]int)}
	for e, n := range t.ByFinal {
		if n > 0 {
			st.ByFinal[trace.EventType(e)] = n
		}
	}
	if t.Collections > 0 {
		st.CollectionsWithEviction = float64(t.Evicted) / float64(t.Collections)
	}
	if t.Evicted > 0 {
		st.NonProdShareOfEvicted = float64(t.NonProdEvicted) / float64(t.Evicted)
	}
	if t.Prod > 0 {
		st.ProdEvictedShare = float64(t.ProdEvicted) / float64(t.Prod)
	}
	if t.ProdEvicted > 0 {
		st.SingleEvictionShare = float64(t.ProdEvictedOnce) / float64(t.ProdEvicted)
	}
	if t.WithParent > 0 {
		st.KillRateWithParent = float64(t.WithParentKilled) / float64(t.WithParent)
	}
	if t.WithoutParent > 0 {
		st.KillRateWithoutParent = float64(t.WithoutParentKilled) / float64(t.WithoutParent)
	}
	return st
}

// SubmissionRates holds Figures 8 and 9's hourly rate samples for one or
// more cells (each element is one cell-hour).
type SubmissionRates struct {
	JobsPerHour     []float64 // job SUBMIT events per hour (Figure 8)
	NewTasksPerHour []float64 // first-time instance SUBMITs (Figure 9)
	AllTasksPerHour []float64 // all instance SUBMITs incl. rescheduling
}

// MergeRates concatenates per-cell samples in cell order.
func MergeRates(cells []SubmissionRates) SubmissionRates {
	var out SubmissionRates
	for _, c := range cells {
		out.JobsPerHour = append(out.JobsPerHour, c.JobsPerHour...)
		out.NewTasksPerHour = append(out.NewTasksPerHour, c.NewTasksPerHour...)
		out.AllTasksPerHour = append(out.AllTasksPerHour, c.AllTasksPerHour...)
	}
	return out
}

// DelaySamples holds Figure 10's per-job scheduling delays in seconds —
// the time from the job's ENABLE (ready) to its first task running —
// overall and split by tier.
type DelaySamples struct {
	All    []float64
	ByTier map[trace.Tier][]float64
}

// MergeDelays concatenates per-cell samples in cell order.
func MergeDelays(cells []DelaySamples) DelaySamples {
	out := DelaySamples{ByTier: make(map[trace.Tier][]float64)}
	for _, c := range cells {
		out.All = append(out.All, c.All...)
		for tier, xs := range c.ByTier {
			out.ByTier[tier] = append(out.ByTier[tier], xs...)
		}
	}
	return out
}

// ObserveJob appends one job's delay from its first ENABLE to its first
// SCHEDULE, skipping a negative one. ByTier must be non-nil.
func (s *DelaySamples) ObserveJob(enable, firstRun sim.Time, tier trace.Tier) {
	d := (firstRun - enable).Seconds()
	if d < 0 {
		return
	}
	s.All = append(s.All, d)
	s.ByTier[tier] = append(s.ByTier[tier], d)
}

// MergeSamplesBy concatenates per-cell keyed sample groups in cell order.
// Each key's output is a fresh slice, allocated once at its final length.
func MergeSamplesBy[K comparable](cells []map[K][]float64) map[K][]float64 {
	sizes := make(map[K]int)
	for _, c := range cells {
		for k, xs := range c {
			sizes[k] += len(xs)
		}
	}
	out := make(map[K][]float64, len(sizes))
	for k, n := range sizes {
		out[k] = make([]float64, 0, n)
	}
	for _, c := range cells {
		for k, xs := range c {
			out[k] = append(out[k], xs...)
		}
	}
	return out
}
