package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
)

// Violation is one failed invariant, with enough context to debug it.
// The paper's trace-generation pipeline checks "a raft of logical
// invariants" (§9); the Validator reproduces that practice for the
// synthetic traces.
type Violation struct {
	Invariant string
	Detail    string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s", v.Invariant, v.Detail)
}

const (
	// maxViolations stops recording after this many findings. Large
	// traces with a systemic bug would otherwise produce millions of
	// identical rows.
	maxViolations = 100

	// cpuOvercommitTolerance is how much the summed CPU *usage* on a
	// machine may exceed its capacity before it is flagged. Per-task
	// usage may exceed the task's limit (CPU is work conserving, §2), but
	// the machine cannot physically exceed its capacity; memory is a hard
	// bound.
	cpuOvercommitTolerance = 1e-9

	// parentKillGrace is how long a child collection may outlive its
	// parent's termination (parent exit kills children, §5.2).
	parentKillGrace = 5 * sim.Minute
)

// Validator is a Sink that checks the §9-style invariants in one pass
// over the rows:
//
//  1. A SUBMIT precedes any collection termination, and an instance's
//     SCHEDULE.
//  2. At most one terminal state is "open" at a time: termination events
//     must be separated by a re-SUBMIT (instances may restart).
//  3. Event times are non-decreasing per collection/instance.
//  4. Every SCHEDULE names a machine that has been added (and not removed).
//  5. Instance events reference collections that have events.
//  6. Usage windows are well-formed (Start < End) and usage is
//     non-negative; average <= max.
//  7. Per-machine, per-5-minute-window summed usage does not exceed
//     capacity (hard for memory, cpuOvercommitTolerance for CPU).
//  8. Usage arrives in window order: a record for a window that was
//     already checked is itself a violation.
//  9. A child collection does not outlive its parent's termination by
//     more than parentKillGrace.
//
// Row checks run as rows arrive, against the machine events seen so far.
// A window's usage sum is checked, and dropped, once a record from a
// later window arrives. Finish checks the windows still open, then
// parent-kill and orphan instances. The state therefore grows with
// collections, instances and machines, never with usage rows or windows.
// Instances are kept after they terminate, so that a later second
// termination is still seen.
type Validator struct {
	out []Violation

	lifetimes map[MachineID]lifetime
	capacity  map[MachineID]Resources
	colls     map[CollectionID]*collState
	insts     map[InstanceKey]lifecycle

	usageRows int                     // usage records seen, for messages
	window    sim.Time                // start of the latest window a record opened
	open      map[windowKey]Resources // summed usage of windows not yet checked
}

// lifetime is when a machine was added and removed (-1 while it lives).
type lifetime struct{ add, remove sim.Time }

// lifecycle is the event history of one collection or instance so far.
type lifecycle struct {
	last       sim.Time // time of the latest event
	submitted  bool     // a SUBMIT has been seen
	terminated bool     // a termination is open: no SUBMIT since
}

// collState is a collection's lifecycle plus what parent-kill needs.
type collState struct {
	lifecycle
	parent CollectionID // from the first event
	submit sim.Time     // time of the first event
	term   sim.Time     // time of the latest termination, -1 if none
}

type windowKey struct {
	start   sim.Time
	machine MachineID
}

var _ Sink = (*Validator)(nil)

// NewValidator returns a Validator with no rows seen.
func NewValidator() *Validator {
	return &Validator{
		lifetimes: make(map[MachineID]lifetime),
		capacity:  make(map[MachineID]Resources),
		colls:     make(map[CollectionID]*collState),
		insts:     make(map[InstanceKey]lifecycle),
		window:    math.MinInt64,
		open:      make(map[windowKey]Resources),
	}
}

func (v *Validator) add(invariant, format string, args ...any) {
	if len(v.out) >= maxViolations {
		return
	}
	v.out = append(v.out, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// MachineEvent records the machine's lifetime and capacity.
func (v *Validator) MachineEvent(ev MachineEvent) {
	switch ev.Type {
	case MachineAdd:
		v.lifetimes[ev.Machine] = lifetime{add: ev.Time, remove: -1}
		v.capacity[ev.Machine] = ev.Capacity
	case MachineUpdate:
		v.capacity[ev.Machine] = ev.Capacity
	case MachineRemove:
		if lt, ok := v.lifetimes[ev.Machine]; ok {
			lt.remove = ev.Time
			v.lifetimes[ev.Machine] = lt
		}
	}
}

// CollectionEvent checks the row against the collection's history.
func (v *Validator) CollectionEvent(ev CollectionEvent) {
	id := ev.Collection
	c := v.colls[id]
	if c == nil {
		c = &collState{lifecycle: lifecycle{last: -1}, parent: ev.Parent, submit: ev.Time, term: -1}
		v.colls[id] = c
	}
	if ev.Time < c.last {
		v.add("coll-time-order", "collection %d: %s at %v after %v", id, ev.Type, ev.Time, c.last)
	}
	c.last = ev.Time
	switch {
	case ev.Type == EventSubmit:
		c.submitted, c.terminated = true, false
	case ev.Type.IsTermination():
		if !c.submitted {
			v.add("submit-before-termination", "collection %d: %s at %v before any SUBMIT", id, ev.Type, ev.Time)
		}
		if c.terminated {
			v.add("double-termination", "collection %d: %s at %v after prior termination", id, ev.Type, ev.Time)
		}
		c.terminated, c.term = true, ev.Time
	}
}

// InstanceEvent checks the row against the instance's history and the
// machines added so far.
func (v *Validator) InstanceEvent(ev InstanceEvent) {
	key := ev.Key
	l, ok := v.insts[key]
	if !ok {
		l.last = -1
	}
	if ev.Time < l.last {
		v.add("inst-time-order", "instance %s: %s at %v after %v", key, ev.Type, ev.Time, l.last)
	}
	l.last = ev.Time
	switch {
	case ev.Type == EventSubmit:
		l.submitted, l.terminated = true, false
	case ev.Type == EventSchedule:
		if !l.submitted {
			v.add("schedule-before-submit", "instance %s scheduled at %v before SUBMIT", key, ev.Time)
		}
		if ev.Machine == 0 {
			v.add("schedule-machine", "instance %s scheduled at %v with no machine", key, ev.Time)
		} else if lt, ok := v.lifetimes[ev.Machine]; !ok {
			v.add("schedule-machine", "instance %s scheduled on unknown machine %d", key, ev.Machine)
		} else if ev.Time < lt.add || (lt.remove >= 0 && ev.Time > lt.remove) {
			v.add("schedule-machine", "instance %s scheduled on machine %d outside its lifetime", key, ev.Machine)
		}
	case ev.Type.IsTermination():
		if l.terminated {
			v.add("double-termination", "instance %s: %s at %v after prior termination", key, ev.Type, ev.Time)
		}
		l.terminated = true
	}
	v.insts[key] = l
}

// UsageBatch checks each record and adds it to its machine's window sums.
func (v *Validator) UsageBatch(recs []UsageRecord) {
	for _, rec := range recs {
		v.usage(rec)
	}
}

func (v *Validator) usage(rec UsageRecord) {
	i := v.usageRows
	v.usageRows++
	if rec.End <= rec.Start {
		v.add("usage-window", "usage[%d] %s window [%v,%v) is empty or inverted", i, rec.Key, rec.Start, rec.End)
	}
	if !rec.AvgUsage.NonNegative() || !rec.MaxUsage.NonNegative() {
		v.add("usage-negative", "usage[%d] %s has negative usage", i, rec.Key)
	}
	if rec.AvgUsage.CPU > rec.MaxUsage.CPU+1e-9 || rec.AvgUsage.Mem > rec.MaxUsage.Mem+1e-9 {
		v.add("usage-avg-max", "usage[%d] %s average exceeds max", i, rec.Key)
	}
	if rec.Machine == 0 || rec.End <= rec.Start {
		return
	}
	first := rec.Start / sim.SampleWindow * sim.SampleWindow
	if first < v.window {
		v.add("usage-order", "usage[%d] %s for window %v arrived after that window was checked", i, rec.Key, first)
		return
	}
	if first > v.window {
		v.checkWindows(first)
	}
	// Time-weighted accounting: a record contributes its average usage
	// scaled by its overlap with each 5-minute window, so partial-window
	// records from short tasks are weighed by how long they actually
	// occupied the machine.
	for start := first; start < rec.End; start += sim.SampleWindow {
		lo, hi := max(rec.Start, start), min(rec.End, start+sim.SampleWindow)
		frac := float64(hi-lo) / float64(sim.SampleWindow)
		k := windowKey{start: start, machine: rec.Machine}
		v.open[k] = v.open[k].Add(rec.AvgUsage.Scale(frac))
	}
}

// checkWindows checks the capacity of every open window that starts
// before the given time, in (window, machine) order, and drops it.
func (v *Validator) checkWindows(before sim.Time) {
	var due []windowKey
	for k := range v.open {
		if k.start < before {
			due = append(due, k)
		}
	}
	slices.SortFunc(due, func(a, b windowKey) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.machine, b.machine))
	})
	for _, k := range due {
		sum := v.open[k]
		delete(v.open, k)
		c, ok := v.capacity[k.machine]
		if !ok {
			v.add("usage-machine", "usage on machine %d with no capacity record", k.machine)
			continue
		}
		if sum.Mem > c.Mem+1e-9 {
			v.add("machine-mem-capacity", "machine %d window %v: summed mem usage %.4f > capacity %.4f",
				k.machine, k.start, sum.Mem, c.Mem)
		}
		if sum.CPU > c.CPU+cpuOvercommitTolerance {
			v.add("machine-cpu-capacity", "machine %d window %v: summed cpu usage %.4f > capacity %.4f",
				k.machine, k.start, sum.CPU, c.CPU)
		}
	}
	v.window = before
}

// Finish runs the end-of-run checks — the capacity of the windows still
// open, then parent-kill by collection ID, then orphan instances by key —
// and returns every violation found, row checks first. Call it once,
// after the last row.
func (v *Validator) Finish() []Violation {
	v.checkWindows(math.MaxInt64)

	var children []CollectionID
	for id, c := range v.colls {
		if c.parent != 0 {
			children = append(children, id)
		}
	}
	slices.Sort(children)
	for _, id := range children {
		c := v.colls[id]
		p := v.colls[c.parent]
		if p == nil || p.term < 0 {
			continue // parent absent or still running at trace end
		}
		if c.term < 0 {
			v.add("parent-kill", "collection %d still open after parent %d terminated at %v", id, c.parent, p.term)
			continue
		}
		// A child submitted after its parent's exit is killed on arrival,
		// so the grace window runs from whichever came last.
		if c.term > max(p.term, c.submit)+parentKillGrace {
			v.add("parent-kill", "collection %d terminated at %v, > grace after parent %d at %v", id, c.term, c.parent, p.term)
		}
	}

	var orphans []InstanceKey
	for k := range v.insts {
		if v.colls[k.Collection] == nil {
			orphans = append(orphans, k)
		}
	}
	slices.SortFunc(orphans, func(a, b InstanceKey) int {
		return cmp.Or(cmp.Compare(a.Collection, b.Collection), cmp.Compare(a.Index, b.Index))
	})
	for _, k := range orphans {
		v.add("orphan-instance", "instance %s references collection with no events", k)
	}
	return v.out
}
