// Package trace defines the reproduction's trace data model, mirroring the
// published 2019 Borg trace (v3) schema: collections (jobs and alloc sets),
// instances (tasks and alloc instances), their life-cycle events, 5-minute
// usage records, and machine events. It also provides the in-memory trace
// store, streaming Sink fan-out, CSV/JSON codecs, and the invariant
// validator described in §9 of the paper.
package trace

import "fmt"

// Era distinguishes the two trace generations compared by the paper.
type Era int

// Trace eras.
const (
	Era2011 Era = iota
	Era2019
)

// String returns the year label.
func (e Era) String() string {
	switch e {
	case Era2011:
		return "2011"
	case Era2019:
		return "2019"
	default:
		return fmt.Sprintf("Era(%d)", int(e))
	}
}

// Tier is a band of priorities with similar scheduling properties (§2).
// Monitoring-tier jobs are folded into Production, as the paper does.
type Tier int

// Tiers, ordered from weakest to strongest.
const (
	TierFree Tier = iota
	TierBestEffortBatch
	TierMid
	TierProduction

	NumTiers
)

// String returns the paper's abbreviation for the tier.
func (t Tier) String() string {
	switch t {
	case TierFree:
		return "free"
	case TierBestEffortBatch:
		return "beb"
	case TierMid:
		return "mid"
	case TierProduction:
		return "prod"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Tiers lists all tiers in ascending strength order, for iteration.
func Tiers() []Tier {
	return []Tier{TierFree, TierBestEffortBatch, TierMid, TierProduction}
}

// TierFromPriority2019 maps a raw 2019 priority (sparse, 0–450) to its tier
// per the trace documentation: free <= 99, beb 110–115, mid 116–119,
// prod 120–359, monitoring >= 360 (folded into prod).
func TierFromPriority2019(priority int) Tier {
	switch {
	case priority <= 99:
		return TierFree
	case priority <= 115:
		return TierBestEffortBatch
	case priority <= 119:
		return TierMid
	default:
		return TierProduction
	}
}

// CollectionType distinguishes jobs from alloc sets (together,
// "collections", §5.1).
type CollectionType int

// Collection types.
const (
	CollectionJob CollectionType = iota
	CollectionAllocSet
)

// String names the collection type.
func (c CollectionType) String() string {
	switch c {
	case CollectionJob:
		return "job"
	case CollectionAllocSet:
		return "alloc_set"
	default:
		return fmt.Sprintf("CollectionType(%d)", int(c))
	}
}

// VerticalScaling is the Autopilot mode recorded per collection (§8).
type VerticalScaling int

// Vertical scaling strategies.
const (
	ScalingNone VerticalScaling = iota
	ScalingConstrained
	ScalingFull
)

// String names the strategy as in Figure 14's legend.
func (v VerticalScaling) String() string {
	switch v {
	case ScalingNone:
		return "none"
	case ScalingConstrained:
		return "constrained"
	case ScalingFull:
		return "full"
	default:
		return fmt.Sprintf("VerticalScaling(%d)", int(v))
	}
}

// SchedulerKind identifies which scheduler admitted the job: the regular
// Borg scheduler or the throughput-oriented batch scheduler (§3, "batch
// queueing"; like Omega, Borg now supports multiple schedulers).
type SchedulerKind int

// Scheduler kinds.
const (
	SchedulerDefault SchedulerKind = iota
	SchedulerBatch
)

// String names the scheduler.
func (s SchedulerKind) String() string {
	switch s {
	case SchedulerDefault:
		return "default"
	case SchedulerBatch:
		return "batch"
	default:
		return fmt.Sprintf("SchedulerKind(%d)", int(s))
	}
}

// CollectionID identifies a collection within a trace.
type CollectionID uint64

// MachineID identifies a machine within a cell. Zero means "no machine".
type MachineID int32

// Resources is a CPU+memory vector in normalized units: NCU (Normalized
// Compute Units) and NMU (Normalized Memory Units), both scaled so the
// largest machine in the trace is 1.0 (§3).
type Resources struct {
	CPU float64 // NCU
	Mem float64 // NMU
}

// Add returns r + o.
func (r Resources) Add(o Resources) Resources {
	return Resources{CPU: r.CPU + o.CPU, Mem: r.Mem + o.Mem}
}

// Sub returns r - o.
func (r Resources) Sub(o Resources) Resources {
	return Resources{CPU: r.CPU - o.CPU, Mem: r.Mem - o.Mem}
}

// Scale returns r scaled by f in both dimensions.
func (r Resources) Scale(f float64) Resources {
	return Resources{CPU: r.CPU * f, Mem: r.Mem * f}
}

// NonNegative reports whether both dimensions are >= 0.
func (r Resources) NonNegative() bool { return r.CPU >= 0 && r.Mem >= 0 }
