package trace

import (
	"fmt"
	"sort"
	"sync"

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
// partly filled chunk per table. Appending does no per-row indexing. The
// per-collection and per-instance indexes the queries (Collections,
// EventsOf, Instances, InstanceEventsOf, InstancesOfCollection,
// CollectionInfos, Counts, Validate) need are built on the first query
// and catch up on rows appended since the previous one.
//
// Concurrency: appends (the Sink methods) must not run concurrently with
// each other or with any reader. Once appends stop, any number of
// goroutines may query and read the tables at once; a mutex serialises
// the index's construction and catch-up.
type MemTrace struct {
	Meta Meta

	CollectionEvents Rows[CollectionEvent]
	InstanceEvents   Rows[InstanceEvent]
	UsageRecords     Rows[UsageRecord]
	MachineEvents    Rows[MachineEvent]

	mu        sync.Mutex
	collIndex map[CollectionID][]int // indexes into CollectionEvents
	instIndex map[InstanceKey][]int  // indexes into InstanceEvents
	collSeen  int                    // CollectionEvents rows indexed so far
	instSeen  int                    // InstanceEvents rows indexed so far
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

// lockIndex takes the index mutex and brings both indexes up to date
// with every row appended so far. The caller must unlock t.mu.
func (t *MemTrace) lockIndex() {
	t.mu.Lock()
	if t.collIndex == nil {
		t.collIndex = make(map[CollectionID][]int)
		t.instIndex = make(map[InstanceKey][]int)
	}
	for ; t.collSeen < t.CollectionEvents.Len(); t.collSeen++ {
		id := t.CollectionEvents.At(t.collSeen).Collection
		t.collIndex[id] = append(t.collIndex[id], t.collSeen)
	}
	for ; t.instSeen < t.InstanceEvents.Len(); t.instSeen++ {
		k := t.InstanceEvents.At(t.instSeen).Key
		t.instIndex[k] = append(t.instIndex[k], t.instSeen)
	}
}

// Collections returns the IDs of all collections seen, sorted.
func (t *MemTrace) Collections() []CollectionID {
	t.lockIndex()
	defer t.mu.Unlock()
	return t.collections()
}

func (t *MemTrace) collections() []CollectionID {
	ids := make([]CollectionID, 0, len(t.collIndex))
	for id := range t.collIndex {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// EventsOf returns the collection's events in emission order.
func (t *MemTrace) EventsOf(id CollectionID) []CollectionEvent {
	t.lockIndex()
	defer t.mu.Unlock()
	return t.eventsOf(id)
}

func (t *MemTrace) eventsOf(id CollectionID) []CollectionEvent {
	idxs := t.collIndex[id]
	out := make([]CollectionEvent, len(idxs))
	for i, idx := range idxs {
		out[i] = t.CollectionEvents.At(idx)
	}
	return out
}

// hasCollection reports whether the collection has any events.
func (t *MemTrace) hasCollection(id CollectionID) bool {
	t.lockIndex()
	defer t.mu.Unlock()
	_, ok := t.collIndex[id]
	return ok
}

// Instances returns all instance keys seen, sorted.
func (t *MemTrace) Instances() []InstanceKey {
	t.lockIndex()
	defer t.mu.Unlock()
	keys := make([]InstanceKey, 0, len(t.instIndex))
	for k := range t.instIndex {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Collection != keys[j].Collection {
			return keys[i].Collection < keys[j].Collection
		}
		return keys[i].Index < keys[j].Index
	})
	return keys
}

// InstanceEventsOf returns the instance's events in emission order.
func (t *MemTrace) InstanceEventsOf(k InstanceKey) []InstanceEvent {
	t.lockIndex()
	defer t.mu.Unlock()
	idxs := t.instIndex[k]
	out := make([]InstanceEvent, len(idxs))
	for i, idx := range idxs {
		out[i] = t.InstanceEvents.At(idx)
	}
	return out
}

// InstancesOfCollection returns the instance keys belonging to one
// collection, sorted by index.
func (t *MemTrace) InstancesOfCollection(id CollectionID) []InstanceKey {
	t.lockIndex()
	defer t.mu.Unlock()
	var keys []InstanceKey
	for k := range t.instIndex {
		if k.Collection == id {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Index < keys[j].Index })
	return keys
}

// CollectionInfo is the static view of one collection, reconstructed from
// its first event (the trace repeats static attributes on every row).
type CollectionInfo struct {
	ID             CollectionID
	CollectionType CollectionType
	Priority       int
	Tier           Tier
	User           string
	Parent         CollectionID
	AllocSet       CollectionID
	Scheduler      SchedulerKind
	Scaling        VerticalScaling

	SubmitTime sim.Time
	// FinalEvent is the last termination event observed, or EventSubmit
	// if the collection never terminated inside the trace window.
	FinalEvent EventType
	FinalTime  sim.Time
}

// CollectionInfos reconstructs the static attributes and outcome of every
// collection in the trace, sorted by ID.
func (t *MemTrace) CollectionInfos() []CollectionInfo {
	t.lockIndex()
	defer t.mu.Unlock()
	out := make([]CollectionInfo, 0, len(t.collIndex))
	for _, id := range t.collections() {
		evs := t.eventsOf(id)
		first := evs[0]
		info := CollectionInfo{
			ID:             id,
			CollectionType: first.CollectionType,
			Priority:       first.Priority,
			Tier:           first.Tier,
			User:           first.User,
			Parent:         first.Parent,
			AllocSet:       first.AllocSet,
			Scheduler:      first.Scheduler,
			Scaling:        first.Scaling,
			SubmitTime:     first.Time,
			FinalEvent:     EventSubmit,
		}
		for _, ev := range evs {
			if ev.Type.IsTermination() {
				info.FinalEvent = ev.Type
				info.FinalTime = ev.Time
			}
		}
		out = append(out, info)
	}
	return out
}

// Counts summarizes row counts; used in logs and Table 1.
func (t *MemTrace) Counts() string {
	t.lockIndex()
	defer t.mu.Unlock()
	return fmt.Sprintf("collections=%d instances=%d collEvents=%d instEvents=%d usage=%d machineEvents=%d",
		len(t.collIndex), len(t.instIndex), t.CollectionEvents.Len(),
		t.InstanceEvents.Len(), t.UsageRecords.Len(), t.MachineEvents.Len())
}
