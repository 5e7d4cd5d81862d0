// Package streaming computes every per-figure analysis of the paper
// online, as the simulation emits trace rows. It is the only code that
// computes a figure: a CellReducer is a trace.Sink, attached to a cell
// via core.Options.ExtraSinks (beside a trace.MemTrace or not), and once
// the simulation has finished every report renders from its products.
// NewCellReducer needs only the cell's trace.Meta (core.TraceMeta), from
// which it sizes the hourly buckets and fixes Figure 6's snapshot at
// mid-horizon. Replay feeds a retained trace — one just simulated, or
// one read back from disk — through a fresh reducer, so stored traces
// are analyzed by the same code.
//
// # Memory model
//
// A retained trace grows with every row: life-cycle events and 5-minute
// usage records accumulate for the whole horizon, which is why memory —
// not CPU — capped suite horizons before this package existed. A
// CellReducer's state instead grows with the number of distinct
// collections and instances (per-job aggregates the figures inherently
// need), plus fixed-size hourly buckets, plus Figure 14's slack samples.
// Those grow by one float64 per job usage row (3.54M samples, 28 MB, in
// a default-scale suite) until a mergeable sketch bounds them, and each
// is stored once, in append-only chunks that never move, so no sample is
// copied as the store grows. Per-row work is O(1) and allocates only
// when a slack chunk fills. Every other field of a usage record, the
// dominant table by far, is folded and dropped.
//
// # Exactness contract
//
// A reducer's products depend only on the rows it saw, in emission
// order: within a cell every product folds its terms in that order, and
// across cells the analysis package's Merge and Finish functions combine
// per-cell products in cell order. So a report is byte-identical at
// every parallelism and with or without trace retention, and Replay of
// a retained trace matches the live reducer. Two trace invariants are
// relied on: a collection's first event precedes all rows that
// reference it, and machine capacities are fully announced before the
// first usage record. The tests pin the products on two fixture cells to
// hashes of the answers an independent post-hoc implementation over the
// retained trace gave, so any change to what a product holds shows up.
package streaming

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/trace"
)

// collState is one collection's reduced view: the static attributes and
// outcome the analyses read, plus its per-job aggregates.
type collState struct {
	info      trace.CollectionInfo
	hasInfo   bool
	lastEvent trace.EventType
	hasLast   bool

	// Usage-path classification, memoized when the first event delivers
	// the static attributes (which precede every row that references the
	// collection): the per-record hot path tests three booleans instead
	// of re-deriving them from info.
	isJob      bool
	isAllocSet bool
	inAlloc    bool

	evictions int
	tasks     int // distinct instance indices seen

	sawUsage           bool
	cpuHours, memHours float64 // job usage integrals (Table 2)

	// Figure 10's inputs: the first ENABLE of a job and its first
	// SCHEDULE.
	enabled    bool
	enableAt   sim.Time
	enableTier trace.Tier
	scheduled  bool
	firstSched sim.Time

	// insts is the collection's instance table, indexed by Key.Index.
	// sparse holds the indexes the table will not grow to cover: negative
	// ones, and ones far beyond the instances seen so far, so a hostile
	// index cannot force an allocation proportional to its value.
	insts  []instState
	sparse map[int32]*instState
}

// instState is one instance's reduced view, three bytes, since one
// exists per instance. hasLast doubles as the "seen" mark: every
// instance event sets it.
type instState struct {
	lastEvent uint8 // an eventCode
	hasLast   bool
	submitted bool // first SUBMIT counted toward Figure 9's new tasks
}

// badEvent is the eventCode of every type outside the trace's event
// enum. No real type has that code (the blank constant below fails to
// compile otherwise), so an out-of-range type can never be counted as a
// real one in Figure 7's transitions.
const badEvent = math.MaxUint8

const _ = uint8(badEvent - 1 - trace.NumEventTypes)

// eventCode packs an event type into instState.lastEvent.
func eventCode(t trace.EventType) uint8 {
	if uint(t) < uint(trace.NumEventTypes) {
		return uint8(t)
	}
	return badEvent
}

// denseSlack is how far past twice the instances seen an index may lie
// and still grow the dense table. Simulated collections emit indexes in
// order from zero, so they never leave the dense table.
const denseSlack = 64

// inst returns the state of the collection's instance idx.
func (c *collState) inst(idx int32) *instState {
	if c.sparse != nil {
		if in := c.sparse[idx]; in != nil {
			return in
		}
	}
	i := int(idx)
	if i >= 0 && i < len(c.insts) {
		return &c.insts[i]
	}
	if i >= 0 && i <= 2*c.tasks+denseSlack {
		c.insts = append(c.insts, make([]instState, i+1-len(c.insts))...)
		return &c.insts[i]
	}
	if c.sparse == nil {
		c.sparse = make(map[int32]*instState)
	}
	in := &instState{}
	c.sparse[idx] = in
	return in
}

// numScalingModes spans the dense trace.VerticalScaling values.
const numScalingModes = int(trace.ScalingFull) + 1

// CellReducer reduces one cell's trace stream into every per-figure
// analysis. It is not safe for concurrent use; the engine drives each
// cell's sink pipeline from a single goroutine, which is exactly the
// contract the reducer needs. Accessors may be called once the
// simulation has completed; the first access finalizes the reducer and
// further rows panic.
type CellReducer struct {
	// meta mirrors the retained trace's metadata: cell name, era,
	// duration (hourly bucket count), machine count and seed.
	meta trace.Meta
	// snapshotAt is the instant of Figure 6's machine-utilization
	// snapshot, mid-horizon. Records overlapping it are folded into the
	// per-machine snapshot totals.
	snapshotAt sim.Time

	caps       map[trace.MachineID]trace.MachineEvent
	usageAcc   *analysis.SeriesAccum
	allocAcc   *analysis.SeriesAccum
	snapUsage  map[trace.MachineID]trace.Resources
	trans      analysis.TransitionCounts
	colls      map[trace.CollectionID]*collState
	rates      analysis.SubmissionRates
	allocAccum analysis.AllocSetAccum
	// slack is indexed by the dense trace.VerticalScaling values. Its
	// chunks never move, so a sample is written once and never copied.
	slack      [numScalingModes]trace.Rows[float64]
	batchQueue bool

	// lastID/lastC memoize the most recent collection lookup: rows of one
	// collection arrive in runs (a job's SUBMIT burst, a machine window's
	// residents), so most rows skip the map.
	lastID trace.CollectionID
	lastC  *collState

	// Products, computed once by finalize.
	done        bool
	shapes      []analysis.ShapePoint
	usageSeries analysis.TierSeries
	allocSeries analysis.TierSeries
	utilCPU     []float64
	utilMem     []float64
	transitions []analysis.Transition
	inventory   analysis.Inventory
	termAccum   analysis.TerminationAccum
	delays      analysis.DelaySamples
	tasksPerJob map[trace.Tier][]float64
	integrals   analysis.UsageIntegrals
}

// NewCellReducer returns an empty reducer for the cell that meta
// describes, as core.TraceMeta stamps it.
func NewCellReducer(meta trace.Meta) *CellReducer {
	hours := analysis.SeriesHours(meta.Duration)
	return &CellReducer{
		meta:       meta,
		snapshotAt: meta.Duration / 2,
		caps:       make(map[trace.MachineID]trace.MachineEvent),
		usageAcc:   analysis.NewSeriesAccum(hours),
		allocAcc:   analysis.NewSeriesAccum(hours),
		snapUsage:  make(map[trace.MachineID]trace.Resources),
		colls:      make(map[trace.CollectionID]*collState),
		rates: analysis.SubmissionRates{
			JobsPerHour:     make([]float64, hours),
			NewTasksPerHour: make([]float64, hours),
			AllTasksPerHour: make([]float64, hours),
		},
	}
}

func (r *CellReducer) mutable() {
	if r.done {
		panic("streaming: trace row after CellReducer was finalized")
	}
}

// lookup returns the collection's reduced state, or nil if it has none.
func (r *CellReducer) lookup(id trace.CollectionID) *collState {
	if r.lastC != nil && r.lastID == id {
		return r.lastC
	}
	c := r.colls[id]
	if c != nil {
		r.lastID, r.lastC = id, c
	}
	return c
}

// coll returns the collection's reduced state, creating it if needed.
func (r *CellReducer) coll(id trace.CollectionID) *collState {
	c := r.lookup(id)
	if c == nil {
		c = &collState{}
		r.colls[id] = c
		r.lastID, r.lastC = id, c
	}
	return c
}

// CollectionEvent reduces one collection_events row.
func (r *CellReducer) CollectionEvent(ev trace.CollectionEvent) {
	r.mutable()
	c := r.coll(ev.Collection)
	if !c.hasInfo {
		// The first event carries the static attributes, as
		// MemTrace.CollectionInfos reconstructs them.
		c.hasInfo = true
		c.info = trace.CollectionInfo{
			ID:             ev.Collection,
			CollectionType: ev.CollectionType,
			Priority:       ev.Priority,
			Tier:           ev.Tier,
			User:           ev.User,
			Parent:         ev.Parent,
			AllocSet:       ev.AllocSet,
			Scheduler:      ev.Scheduler,
			Scaling:        ev.Scaling,
			SubmitTime:     ev.Time,
			FinalEvent:     trace.EventSubmit,
		}
		r.allocAccum.ObserveCollection(ev.CollectionType, ev.AllocSet, ev.Tier)
		c.isJob = ev.CollectionType == trace.CollectionJob
		c.isAllocSet = ev.CollectionType == trace.CollectionAllocSet
		c.inAlloc = c.isJob && ev.AllocSet != 0
	}
	if ev.Type.IsTermination() {
		c.info.FinalEvent = ev.Type
		c.info.FinalTime = ev.Time
	}
	if c.hasLast {
		r.trans.Observe(c.lastEvent, ev.Type)
	}
	c.lastEvent, c.hasLast = ev.Type, true

	switch ev.Type {
	case trace.EventQueue:
		r.batchQueue = true
	case trace.EventSubmit:
		if c.info.CollectionType == trace.CollectionJob {
			if h := int(ev.Time / sim.Hour); h >= 0 && h < len(r.rates.JobsPerHour) {
				r.rates.JobsPerHour[h]++
			}
		}
	case trace.EventEnable:
		if ev.CollectionType == trace.CollectionJob && !c.enabled {
			c.enabled, c.enableAt, c.enableTier = true, ev.Time, ev.Tier
		}
	}
}

// InstanceEvent reduces one instance_events row.
func (r *CellReducer) InstanceEvent(ev trace.InstanceEvent) {
	r.mutable()
	c := r.coll(ev.Key.Collection)
	in := c.inst(ev.Key.Index)
	if in.hasLast {
		r.trans.Observe(trace.EventType(in.lastEvent), ev.Type)
	} else {
		c.tasks++
	}
	in.lastEvent, in.hasLast = eventCode(ev.Type), true

	switch ev.Type {
	case trace.EventSubmit:
		if c.hasInfo && c.info.CollectionType == trace.CollectionJob {
			if h := int(ev.Time / sim.Hour); h >= 0 && h < len(r.rates.AllTasksPerHour) {
				r.rates.AllTasksPerHour[h]++
				if !in.submitted {
					// First *counted* SUBMIT: only counted SUBMITs
					// mark the instance as seen.
					in.submitted = true
					r.rates.NewTasksPerHour[h]++
				}
			}
		}
	case trace.EventSchedule:
		if !c.scheduled || ev.Time < c.firstSched {
			c.scheduled, c.firstSched = true, ev.Time
		}
	case trace.EventEvict:
		c.evictions++
	}
}

// Usage reduces one instance_usage row, the per-row fold UsageBatch
// loops over. It is not part of trace.Sink, which takes usage rows only
// in blocks; it serves callers that wrap the reducer row by row.
func (r *CellReducer) Usage(rec trace.UsageRecord) {
	r.mutable()
	r.usageOne(&rec, r.lookup(rec.Key.Collection))
}

// UsageBatch reduces a block of instance_usage rows in slice order, so
// the same stream gives bit-identical state however it is split into
// blocks. A machine window's batch arrives in victim order (priority,
// then collection), so same-collection records cluster and the memoized
// lookup skips the map for most of them.
func (r *CellReducer) UsageBatch(recs []trace.UsageRecord) {
	r.mutable()
	for i := range recs {
		rec := &recs[i]
		r.usageOne(rec, r.lookup(rec.Key.Collection))
	}
}

// usageOne folds one usage record given its collection's reduced state
// (nil when the collection has never had an event).
func (r *CellReducer) usageOne(rec *trace.UsageRecord, c *collState) {
	r.usageAcc.ObserveAt(rec.Start, rec.Tier, rec.AvgUsage)

	var isJob, isAllocSet, inAlloc bool
	if c != nil && c.hasInfo {
		isJob, isAllocSet, inAlloc = c.isJob, c.isAllocSet, c.inAlloc
	}

	if !inAlloc {
		// Jobs inside alloc sets consume their alloc set's reservation,
		// which the alloc set's own records already count (Figure 4).
		r.allocAcc.ObserveAt(rec.Start, rec.Tier, rec.Limit)
	}
	r.allocAccum.ObserveUsage(rec, isAllocSet, inAlloc)

	if isJob {
		h := (rec.End - rec.Start).Hours()
		c.sawUsage = true
		c.cpuHours += rec.AvgUsage.CPU * h
		c.memHours += rec.AvgUsage.Mem * h
		if s, ok := analysis.SlackSampleOf(rec); ok {
			r.slack[c.info.Scaling].Append(s)
		}
	}

	if rec.Start <= r.snapshotAt && r.snapshotAt < rec.End && rec.Machine != 0 {
		r.snapUsage[rec.Machine] = r.snapUsage[rec.Machine].Add(rec.AvgUsage)
	}
}

// MachineEvent reduces one machine_events row.
func (r *CellReducer) MachineEvent(ev trace.MachineEvent) {
	r.mutable()
	switch ev.Type {
	case trace.MachineAdd, trace.MachineUpdate:
		r.caps[ev.Machine] = ev
	case trace.MachineRemove:
		delete(r.caps, ev.Machine)
	}
}

// sortedCollections returns the reduced collections in ascending ID
// order, skipping IDs that never saw a collection event (parity with
// MemTrace.CollectionInfos, which only knows collections with events).
func (r *CellReducer) sortedCollections() []*collState {
	out := make([]*collState, 0, len(r.colls))
	for _, c := range r.colls {
		if c.hasInfo {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].info.ID < out[j].info.ID })
	return out
}

// finalize computes every product exactly once.
func (r *CellReducer) finalize() {
	if r.done {
		return
	}
	r.done = true

	capacity := analysis.TotalCapacity(r.caps)
	r.shapes = analysis.ShapesOf(r.caps)
	r.usageSeries = r.usageAcc.Finish(capacity)
	r.allocSeries = r.allocAcc.Finish(capacity)
	r.utilCPU, r.utilMem = analysis.UtilizationSamples(r.caps, r.snapUsage)
	r.transitions = analysis.TransitionsFromCounts(&r.trans)

	colls := r.sortedCollections()
	r.delays = analysis.DelaySamples{ByTier: make(map[trace.Tier][]float64)}
	r.inventory = analysis.NewInventory()
	for _, ev := range r.caps {
		r.inventory.ObserveMachine(ev)
	}
	r.inventory.BatchQueue = r.batchQueue
	r.tasksPerJob = make(map[trace.Tier][]float64)
	cpu := make(map[trace.CollectionID]float64)
	mem := make(map[trace.CollectionID]float64)
	for _, c := range colls {
		if c.enabled && c.scheduled {
			r.delays.ObserveJob(c.enableAt, c.firstSched, c.enableTier)
		}
		r.inventory.ObserveCollection(c.info)
		r.termAccum.ObserveCollection(c.info, c.evictions)
		if c.info.CollectionType != trace.CollectionJob {
			continue
		}
		if c.tasks > 0 {
			r.tasksPerJob[c.info.Tier] = append(r.tasksPerJob[c.info.Tier], float64(c.tasks))
		}
		if c.sawUsage {
			cpu[c.info.ID] = c.cpuHours
			mem[c.info.ID] = c.memHours
		}
	}
	r.integrals = analysis.FinishIntegrals(cpu, mem)
}

// Meta returns the cell's metadata.
func (r *CellReducer) Meta() trace.Meta { return r.meta }

// MachineShapes returns Figure 1's shape populations.
func (r *CellReducer) MachineShapes() []analysis.ShapePoint {
	r.finalize()
	return r.shapes
}

// UsageSeries returns Figure 2's hourly per-tier usage series.
func (r *CellReducer) UsageSeries() analysis.TierSeries {
	r.finalize()
	return r.usageSeries
}

// AllocationSeries returns Figure 4's hourly per-tier allocation series.
func (r *CellReducer) AllocationSeries() analysis.TierSeries {
	r.finalize()
	return r.allocSeries
}

// AverageUsageByTier returns Figure 3's per-cell bars.
func (r *CellReducer) AverageUsageByTier(warmup sim.Time) analysis.TierAverages {
	return analysis.AverageOfSeries(r.UsageSeries(), r.meta.Cell, warmup)
}

// AverageAllocationByTier returns Figure 5's per-cell bars.
func (r *CellReducer) AverageAllocationByTier(warmup sim.Time) analysis.TierAverages {
	return analysis.AverageOfSeries(r.AllocationSeries(), r.meta.Cell, warmup)
}

// MachineUtilization returns Figure 6's per-machine utilization samples
// at the mid-horizon snapshot instant.
func (r *CellReducer) MachineUtilization() (cpu, mem []float64) {
	r.finalize()
	return r.utilCPU, r.utilMem
}

// Transitions returns Figure 7's transition counts.
func (r *CellReducer) Transitions() []analysis.Transition {
	r.finalize()
	return r.transitions
}

// Inventory returns the cell's Table 1 inventory partial.
func (r *CellReducer) Inventory() analysis.Inventory {
	r.finalize()
	return r.inventory
}

// AllocSetAccum returns the cell's §5.1 partial.
func (r *CellReducer) AllocSetAccum() analysis.AllocSetAccum {
	r.finalize()
	return r.allocAccum
}

// TerminationAccum returns the cell's §5.2 partial.
func (r *CellReducer) TerminationAccum() analysis.TerminationAccum {
	r.finalize()
	return r.termAccum
}

// Rates returns the cell's Figure 8/9 hourly submission samples.
func (r *CellReducer) Rates() analysis.SubmissionRates {
	r.finalize()
	return r.rates
}

// Delays returns the cell's Figure 10 scheduling-delay samples.
func (r *CellReducer) Delays() analysis.DelaySamples {
	r.finalize()
	return r.delays
}

// TasksPerJob returns the cell's Figure 11 task-count samples by tier.
func (r *CellReducer) TasksPerJob() map[trace.Tier][]float64 {
	r.finalize()
	return r.tasksPerJob
}

// UsageIntegrals returns the cell's Table 2 per-job resource-hours.
func (r *CellReducer) UsageIntegrals() analysis.UsageIntegrals {
	r.finalize()
	return r.integrals
}

// SlackSamples returns the cell's Figure 14 slack samples for one
// strategy, in row order, as the reducer stores them: consecutive
// non-empty chunks (none for a strategy with no samples). The chunks
// alias the reducer's store, so the caller must not modify them;
// stats.QuantilesOfParts reads them as they are.
func (r *CellReducer) SlackSamples(mode trace.VerticalScaling) [][]float64 {
	r.finalize()
	return slices.Collect(r.slack[mode].Chunks())
}

// Counts summarizes the reducer's state sizes, for logs.
func (r *CellReducer) Counts() string {
	return fmt.Sprintf("collections=%d instances=%d machines=%d",
		len(r.colls), r.numInstances(), len(r.caps))
}

// numInstances counts the distinct instances seen.
func (r *CellReducer) numInstances() int {
	n := 0
	for _, c := range r.colls {
		n += c.tasks
	}
	return n
}

// Replay feeds a retained trace through a fresh reducer, table by table
// in emission order (machines, collections, instances, usage). Feeding
// collection events before the rows that reference them preserves the
// same first-event-precedes-references invariant the live stream
// provides, so a replayed reducer is bit-identical to one that consumed
// the stream live — the property TestReplayMatchesLive pins.
func Replay(tr *trace.MemTrace) *CellReducer {
	r := NewCellReducer(tr.Meta)
	tr.Replay(r)
	return r
}
