package trace

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// EventType is a collection/instance life-cycle transition (§5.2/§5.3).
type EventType int

// Event types. SUBMIT..SCHEDULE are the forward path; EVICT..LOST are
// terminations; the UPDATE events record in-place limit changes (used by
// Autopilot).
const (
	EventSubmit        EventType = iota // submitted by a user (or re-queued after eviction)
	EventQueue                          // held by the batch scheduler's queue
	EventEnable                         // "ready": eligible for placement
	EventSchedule                       // placed on a machine (task begins running)
	EventEvict                          // de-scheduled by the infrastructure
	EventFail                           // terminated by the task's own problem
	EventFinish                         // completed normally
	EventKill                           // canceled by the user or a parent's exit
	EventLost                           // record lost; terminal with unknown cause
	EventUpdatePending                  // limits changed while pending
	EventUpdateRunning                  // limits changed while running

	NumEventTypes
)

// String returns the trace-style upper-case event name.
func (e EventType) String() string {
	switch e {
	case EventSubmit:
		return "SUBMIT"
	case EventQueue:
		return "QUEUE"
	case EventEnable:
		return "ENABLE"
	case EventSchedule:
		return "SCHEDULE"
	case EventEvict:
		return "EVICT"
	case EventFail:
		return "FAIL"
	case EventFinish:
		return "FINISH"
	case EventKill:
		return "KILL"
	case EventLost:
		return "LOST"
	case EventUpdatePending:
		return "UPDATE_PENDING"
	case EventUpdateRunning:
		return "UPDATE_RUNNING"
	default:
		return fmt.Sprintf("EventType(%d)", int(e))
	}
}

// IsTermination reports whether the event ends a collection or instance
// (the four termination causes of §5.2, plus LOST).
func (e EventType) IsTermination() bool {
	switch e {
	case EventEvict, EventFail, EventFinish, EventKill, EventLost:
		return true
	default:
		return false
	}
}

// ParseEventType inverts String. It returns an error for unknown names.
func ParseEventType(s string) (EventType, error) {
	for e := EventType(0); e < NumEventTypes; e++ {
		if e.String() == s {
			return e, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event type %q", s)
}

// CollectionEvent is one row of the collection_events table.
type CollectionEvent struct {
	Time       sim.Time
	Collection CollectionID
	Type       EventType

	// Static attributes, repeated on each event row as in the trace.
	CollectionType CollectionType
	Priority       int
	Tier           Tier
	User           string
	Parent         CollectionID    // 0 = no parent (job dependencies, §5.2)
	AllocSet       CollectionID    // 0 = not in an alloc set (for jobs)
	Scheduler      SchedulerKind   // which scheduler owns the job
	Scaling        VerticalScaling // Autopilot mode (§8)
}

// InstanceKey identifies an instance (task or alloc instance) within a
// trace: the owning collection plus the instance index.
type InstanceKey struct {
	Collection CollectionID
	Index      int32
}

// String renders collection/index.
func (k InstanceKey) String() string {
	return fmt.Sprintf("%d/%d", k.Collection, k.Index)
}

// InstanceEvent is one row of the instance_events table.
type InstanceEvent struct {
	Time sim.Time
	Key  InstanceKey
	Type EventType

	Machine  MachineID // machine placed on (SCHEDULE and later events)
	Priority int
	Tier     Tier

	// Request is the resource limit at the time of the event. UPDATE
	// events carry the new limit.
	Request Resources

	// AllocInstance is the alloc instance hosting this task, when the
	// owning job runs inside an alloc set.
	AllocInstance InstanceKey
}

// UsageRecord is one row of the instance_usage table: one instance's
// resource consumption within a 5-minute sampling window.
type UsageRecord struct {
	Start   sim.Time
	End     sim.Time
	Key     InstanceKey
	Machine MachineID
	Tier    Tier

	AvgUsage Resources // mean usage over the window
	MaxUsage Resources // peak usage over the window
	Limit    Resources // limit in force during the window

	// CPUHistogram is the 21-bucket histogram of CPU utilization samples
	// within the window (§3). Nil when histogram collection is disabled.
	CPUHistogram *stats.UsageHistogram
}

// MachineEventType is the machine_events table's event kind.
type MachineEventType int

// Machine event kinds.
const (
	MachineAdd    MachineEventType = iota // machine joined the cell
	MachineRemove                         // machine left (failure or decommission)
	MachineUpdate                         // capacity changed
)

// String names the machine event.
func (m MachineEventType) String() string {
	switch m {
	case MachineAdd:
		return "ADD"
	case MachineRemove:
		return "REMOVE"
	case MachineUpdate:
		return "UPDATE"
	default:
		return fmt.Sprintf("MachineEventType(%d)", int(m))
	}
}

// MachineEvent is one row of the machine_events table.
type MachineEvent struct {
	Time     sim.Time
	Machine  MachineID
	Type     MachineEventType
	Capacity Resources
	Platform string // hardware platform identifier
}

// Sink receives trace rows as the simulator emits them. Implementations
// must not retain argument pointers beyond the call unless documented
// (MemTrace copies what it needs).
//
// Usage rows, the bulk of the trace, arrive only in blocks: UsageBatch
// delivers records in slice order, and the callee must not retain or
// modify the slice after returning, because emitters reuse its backing
// array for the next block.
type Sink interface {
	CollectionEvent(ev CollectionEvent)
	InstanceEvent(ev InstanceEvent)
	UsageBatch(recs []UsageRecord)
	MachineEvent(ev MachineEvent)
}

// MultiSink fans out each row to every child sink in order.
type MultiSink []Sink

// CollectionEvent forwards to all children.
func (m MultiSink) CollectionEvent(ev CollectionEvent) {
	for _, s := range m {
		s.CollectionEvent(ev)
	}
}

// InstanceEvent forwards to all children.
func (m MultiSink) InstanceEvent(ev InstanceEvent) {
	for _, s := range m {
		s.InstanceEvent(ev)
	}
}

// UsageBatch forwards the block to all children.
func (m MultiSink) UsageBatch(recs []UsageRecord) {
	for _, s := range m {
		s.UsageBatch(recs)
	}
}

// MachineEvent forwards to all children.
func (m MultiSink) MachineEvent(ev MachineEvent) {
	for _, s := range m {
		s.MachineEvent(ev)
	}
}

// NopSink discards everything; useful as a default and in benchmarks.
type NopSink struct{}

// CollectionEvent discards the row.
func (NopSink) CollectionEvent(CollectionEvent) {}

// InstanceEvent discards the row.
func (NopSink) InstanceEvent(InstanceEvent) {}

// UsageBatch discards the block.
func (NopSink) UsageBatch([]UsageRecord) {}

// MachineEvent discards the row.
func (NopSink) MachineEvent(MachineEvent) {}
