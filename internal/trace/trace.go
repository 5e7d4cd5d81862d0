// Package trace defines the reproduction's trace data model, mirroring the
// published 2019 Borg trace (v3) schema: collections (jobs and alloc sets),
// instances (tasks and alloc instances), their life-cycle events, 5-minute
// usage records, and machine events. It also provides the in-memory trace
// store, streaming Sink fan-out, the trace directory codec (one CSV file
// per table beside a JSON meta.json), and the invariant validator
// described in §9 of the paper.
//
// Each table's schema is one Table: its CSV file and its columns, each a
// CSV name, a kind and a pointer to a row field. A TableWriter writes
// its header and rows (DirSink holds one per table), ReadDir checks each
// header against it and decodes rows with it, and cmd/borgquery queries
// its columns by their CSV names. Tables also serve outside the trace:
// a workload recording (internal/workload) is a meta.json and two
// tables declared with the exported column constructors, written and
// read through the same code.
package trace

import (
	"fmt"
	"slices"
)

// enumNames is one enum's name table: names[v] names value v. typ is the
// Go type's name, printed for a value outside the table, and kind names
// the enum in a parse error.
type enumNames[E ~int] struct {
	typ, kind string
	names     []string
}

// name returns v's name, or "typ(v)" for a value outside the table.
func (n enumNames[E]) name(v E) string {
	if v >= 0 && int(v) < len(n.names) {
		return n.names[v]
	}
	return fmt.Sprintf("%s(%d)", n.typ, int(v))
}

// parse inverts name. It returns an error for unknown names.
func (n enumNames[E]) parse(s string) (E, error) {
	if i := slices.Index(n.names, s); i >= 0 {
		return E(i), nil
	}
	return 0, fmt.Errorf("unknown %s %q", n.kind, s)
}

// Era distinguishes the two trace generations compared by the paper.
type Era int

// Trace eras.
const (
	Era2011 Era = iota
	Era2019
)

var eraNames = enumNames[Era]{"Era", "era", []string{"2011", "2019"}}

// String returns the year label.
func (e Era) String() string { return eraNames.name(e) }

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

var tierNames = enumNames[Tier]{"Tier", "tier", []string{"free", "beb", "mid", "prod"}}

// String returns the paper's abbreviation for the tier.
func (t Tier) String() string { return tierNames.name(t) }

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

var collectionTypeNames = enumNames[CollectionType]{"CollectionType", "collection type", []string{"job", "alloc_set"}}

// String names the collection type.
func (c CollectionType) String() string { return collectionTypeNames.name(c) }

// VerticalScaling is the Autopilot mode recorded per collection (§8).
type VerticalScaling int

// Vertical scaling strategies.
const (
	ScalingNone VerticalScaling = iota
	ScalingConstrained
	ScalingFull
)

var scalingNames = enumNames[VerticalScaling]{"VerticalScaling", "scaling", []string{"none", "constrained", "full"}}

// String names the strategy as in Figure 14's legend.
func (v VerticalScaling) String() string { return scalingNames.name(v) }

// SchedulerKind identifies which scheduler admitted the job: the regular
// Borg scheduler or the throughput-oriented batch scheduler (§3, "batch
// queueing"; like Omega, Borg now supports multiple schedulers).
type SchedulerKind int

// Scheduler kinds.
const (
	SchedulerDefault SchedulerKind = iota
	SchedulerBatch
)

var schedulerNames = enumNames[SchedulerKind]{"SchedulerKind", "scheduler", []string{"default", "batch"}}

// String names the scheduler.
func (s SchedulerKind) String() string { return schedulerNames.name(s) }

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
