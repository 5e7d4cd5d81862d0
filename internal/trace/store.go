package trace

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Meta describes a generated trace: which era profile produced it, the cell
// name, and the simulated horizon. It backs Table 1.
type Meta struct {
	Era      Era
	Cell     string   // "2011", or "a".."h" for 2019 cells
	Duration sim.Time // simulated horizon
	Machines int      // machines at trace start
	Seed     uint64   // root seed used for generation
}

// MemTrace is an in-memory trace store: the Sink that retains everything.
//
// Each table is a chunked Rows, so a stored row is written once and never
// moved; retaining a trace costs what its rows occupy plus at most one
// partly filled chunk per table. Appending does no per-row indexing: the
// queries (CollectionInfos, Counts) scan the tables, and Replay streams
// them into any other sink (a Validator, a DirSink, a reducer).
//
// Appends (the Sink methods) must not run concurrently with each other or
// with any reader. Once appends stop, any number of goroutines may query
// and read the trace at once.
type MemTrace struct {
	Meta Meta

	CollectionEvents Rows[CollectionEvent]
	InstanceEvents   Rows[InstanceEvent]
	UsageRecords     Rows[UsageRecord]
	MachineEvents    Rows[MachineEvent]
}

// NewMemTrace returns an empty store with the given metadata.
func NewMemTrace(meta Meta) *MemTrace {
	return &MemTrace{Meta: meta}
}

// CollectionEvent stores the row.
func (t *MemTrace) CollectionEvent(ev CollectionEvent) { t.CollectionEvents.Append(ev) }

// InstanceEvent stores the row.
func (t *MemTrace) InstanceEvent(ev InstanceEvent) { t.InstanceEvents.Append(ev) }

// UsageBatch copies the block into the usage table.
func (t *MemTrace) UsageBatch(recs []UsageRecord) { t.UsageRecords.AppendSlice(recs) }

// MachineEvent stores the row.
func (t *MemTrace) MachineEvent(ev MachineEvent) { t.MachineEvents.Append(ev) }

// Replay streams the stored rows into s one table at a time: machine
// events, collection events, instance events, then the usage records,
// one chunk per UsageBatch. Rows keep their emission order within each
// table.
func (t *MemTrace) Replay(s Sink) {
	for ev := range t.MachineEvents.All() {
		s.MachineEvent(ev)
	}
	for ev := range t.CollectionEvents.All() {
		s.CollectionEvent(ev)
	}
	for ev := range t.InstanceEvents.All() {
		s.InstanceEvent(ev)
	}
	for recs := range t.UsageRecords.Chunks() {
		s.UsageBatch(recs)
	}
}

// CollectionInfo is the static view of one collection, reconstructed from
// its first event (the trace repeats static attributes on every row).
type CollectionInfo struct {
	ID CollectionID
	CollectionAttrs

	SubmitTime sim.Time
	// FinalEvent is the last termination event observed, or EventSubmit
	// if the collection never terminated inside the trace window.
	FinalEvent EventType
	FinalTime  sim.Time
}

// CollectionInfos reconstructs the static attributes and outcome of every
// collection in the trace, sorted by ID.
func (t *MemTrace) CollectionInfos() []CollectionInfo {
	out := []CollectionInfo{}
	at := make(map[CollectionID]int) // index into out
	for ev := range t.CollectionEvents.All() {
		i, ok := at[ev.Collection]
		if !ok {
			i = len(out)
			at[ev.Collection] = i
			out = append(out, CollectionInfo{
				ID:              ev.Collection,
				CollectionAttrs: ev.CollectionAttrs,
				SubmitTime:      ev.Time,
				FinalEvent:      EventSubmit,
			})
		}
		if ev.Type.IsTermination() {
			out[i].FinalEvent, out[i].FinalTime = ev.Type, ev.Time
		}
	}
	slices.SortFunc(out, func(a, b CollectionInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Counts summarizes row counts; used in logs and Table 1.
func (t *MemTrace) Counts() string {
	colls := make(map[CollectionID]struct{})
	for ev := range t.CollectionEvents.All() {
		colls[ev.Collection] = struct{}{}
	}
	insts := make(map[InstanceKey]struct{})
	for ev := range t.InstanceEvents.All() {
		insts[ev.Key] = struct{}{}
	}
	return fmt.Sprintf("collections=%d instances=%d collEvents=%d instEvents=%d usage=%d machineEvents=%d",
		len(colls), len(insts), t.CollectionEvents.Len(),
		t.InstanceEvents.Len(), t.UsageRecords.Len(), t.MachineEvents.Len())
}
