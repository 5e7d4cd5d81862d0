package trace

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Violation is one failed invariant, with enough context to debug it.
// The paper's trace-generation pipeline checks "a raft of logical
// invariants" (§9); this validator reproduces that practice for the
// synthetic traces.
type Violation struct {
	Invariant string
	Detail    string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s", v.Invariant, v.Detail)
}

// ValidateOptions tunes validation strictness.
type ValidateOptions struct {
	// MaxViolations stops validation after this many findings
	// (0 = unlimited). Large traces with a systemic bug would otherwise
	// produce millions of identical rows.
	MaxViolations int

	// CPUOvercommitTolerance is how much the sum of *usage* on a machine
	// may exceed CPU capacity before it is flagged. CPU is work
	// conserving (§2), so transient usage above capacity is legal;
	// memory is a hard bound.
	CPUOvercommitTolerance float64
}

// DefaultValidateOptions mirrors the paper's model: memory hard-capped,
// CPU allowed 0% above capacity at the usage level (the machine cannot
// physically exceed its capacity; per-task usage may exceed per-task limit).
func DefaultValidateOptions() ValidateOptions {
	return ValidateOptions{MaxViolations: 100, CPUOvercommitTolerance: 1e-9}
}

// Validate checks the §9-style invariants over a stored trace and returns
// all violations found (bounded by opts.MaxViolations):
//
//  1. A SUBMIT precedes any termination event, per collection and instance.
//  2. At most one terminal state is "open" at a time: termination events
//     must be separated by a re-SUBMIT (instances may restart).
//  3. Event times are non-decreasing per collection/instance.
//  4. Every SCHEDULE names a machine that has been added (and not removed).
//  5. Instance events reference collections that have events.
//  6. Usage windows are well-formed (Start < End) and usage is
//     non-negative; average <= max.
//  7. Per-machine, per-window summed usage does not exceed capacity
//     (hard for memory, tolerance for CPU).
//  8. A child collection does not outlive its parent's termination by
//     more than a grace window (parent exit kills children, §5.2).
func Validate(t *MemTrace, opts ValidateOptions) []Violation {
	var out []Violation
	add := func(invariant, format string, args ...any) bool {
		out = append(out, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
		return opts.MaxViolations > 0 && len(out) >= opts.MaxViolations
	}

	// Machine liveness intervals.
	type interval struct{ add, remove sim.Time }
	machines := make(map[MachineID]*interval)
	for ev := range t.MachineEvents.All() {
		switch ev.Type {
		case MachineAdd:
			machines[ev.Machine] = &interval{add: ev.Time, remove: -1}
		case MachineRemove:
			if iv, ok := machines[ev.Machine]; ok {
				iv.remove = ev.Time
			}
		}
	}
	capacity := make(map[MachineID]Resources)
	for ev := range t.MachineEvents.All() {
		if ev.Type == MachineAdd || ev.Type == MachineUpdate {
			capacity[ev.Machine] = ev.Capacity
		}
	}

	// Collection-level checks.
	collTerm := make(map[CollectionID]sim.Time)
	for _, id := range t.Collections() {
		evs := t.EventsOf(id)
		var last sim.Time = -1
		seenSubmit := false
		openTermination := false
		for _, ev := range evs {
			if ev.Time < last {
				if add("coll-time-order", "collection %d: %s at %v after %v", id, ev.Type, ev.Time, last) {
					return out
				}
			}
			last = ev.Time
			switch {
			case ev.Type == EventSubmit:
				seenSubmit = true
				openTermination = false
			case ev.Type.IsTermination():
				if !seenSubmit {
					if add("submit-before-termination", "collection %d: %s at %v before any SUBMIT", id, ev.Type, ev.Time) {
						return out
					}
				}
				if openTermination {
					if add("double-termination", "collection %d: %s at %v after prior termination", id, ev.Type, ev.Time) {
						return out
					}
				}
				openTermination = true
				collTerm[id] = ev.Time
			}
		}
	}

	// Parent/child causality: children must terminate within the grace
	// window after the parent's termination.
	const parentKillGrace = 5 * sim.Minute
	infos := t.CollectionInfos()
	infoByID := make(map[CollectionID]CollectionInfo, len(infos))
	for _, info := range infos {
		infoByID[info.ID] = info
	}
	for _, info := range infos {
		if info.Parent == 0 {
			continue
		}
		pterm, ok := collTerm[info.Parent]
		if !ok {
			continue // parent still running at trace end
		}
		cterm, terminated := collTerm[info.ID]
		if !terminated {
			if add("parent-kill", "collection %d still open after parent %d terminated at %v", info.ID, info.Parent, pterm) {
				return out
			}
			continue
		}
		// A child submitted after its parent's exit is killed on arrival,
		// so the grace window runs from whichever came last.
		deadline := pterm
		if info.SubmitTime > deadline {
			deadline = info.SubmitTime
		}
		if cterm > deadline+parentKillGrace {
			if add("parent-kill", "collection %d terminated at %v, > grace after parent %d at %v", info.ID, cterm, info.Parent, pterm) {
				return out
			}
		}
	}
	_ = infoByID

	// Instance-level checks.
	for _, key := range t.Instances() {
		evs := t.InstanceEventsOf(key)
		var last sim.Time = -1
		seenSubmit := false
		running := false
		terminated := false
		for _, ev := range evs {
			if ev.Time < last {
				if add("inst-time-order", "instance %s: %s at %v after %v", key, ev.Type, ev.Time, last) {
					return out
				}
			}
			last = ev.Time
			switch {
			case ev.Type == EventSubmit:
				seenSubmit = true
				terminated = false
			case ev.Type == EventSchedule:
				if !seenSubmit {
					if add("schedule-before-submit", "instance %s scheduled at %v before SUBMIT", key, ev.Time) {
						return out
					}
				}
				if ev.Machine == 0 {
					if add("schedule-machine", "instance %s scheduled at %v with no machine", key, ev.Time) {
						return out
					}
				} else if iv, ok := machines[ev.Machine]; !ok {
					if add("schedule-machine", "instance %s scheduled on unknown machine %d", key, ev.Machine) {
						return out
					}
				} else if ev.Time < iv.add || (iv.remove >= 0 && ev.Time > iv.remove) {
					if add("schedule-machine", "instance %s scheduled on machine %d outside its lifetime", key, ev.Machine) {
						return out
					}
				}
				running = true
			case ev.Type.IsTermination():
				if terminated {
					if add("double-termination", "instance %s: %s at %v after prior termination", key, ev.Type, ev.Time) {
						return out
					}
				}
				terminated = true
				running = false
			}
		}
		_ = running
		if !t.hasCollection(key.Collection) {
			if add("orphan-instance", "instance %s references collection with no events", key) {
				return out
			}
		}
	}

	// Usage-record checks, plus per-machine-window capacity accounting.
	type windowKey struct {
		machine MachineID
		start   sim.Time
	}
	usageSum := make(map[windowKey]Resources)
	for i := range t.UsageRecords.Len() {
		rec := t.UsageRecords.At(i)
		if rec.End <= rec.Start {
			if add("usage-window", "usage[%d] %s window [%v,%v) is empty or inverted", i, rec.Key, rec.Start, rec.End) {
				return out
			}
		}
		if !rec.AvgUsage.NonNegative() || !rec.MaxUsage.NonNegative() {
			if add("usage-negative", "usage[%d] %s has negative usage", i, rec.Key) {
				return out
			}
		}
		if rec.AvgUsage.CPU > rec.MaxUsage.CPU+1e-9 || rec.AvgUsage.Mem > rec.MaxUsage.Mem+1e-9 {
			if add("usage-avg-max", "usage[%d] %s average exceeds max", i, rec.Key) {
				return out
			}
		}
		if rec.Machine != 0 && rec.End > rec.Start {
			// Time-weighted accounting: a record contributes its average
			// usage scaled by its overlap with each 5-minute window, so
			// partial-window records from short tasks are weighed by
			// how long they actually occupied the machine.
			firstW := rec.Start / sim.SampleWindow
			lastW := (rec.End - 1) / sim.SampleWindow
			for w := firstW; w <= lastW; w++ {
				wStart := w * sim.SampleWindow
				wEnd := wStart + sim.SampleWindow
				lo, hi := rec.Start, rec.End
				if wStart > lo {
					lo = wStart
				}
				if wEnd < hi {
					hi = wEnd
				}
				frac := float64(hi-lo) / float64(sim.SampleWindow)
				k := windowKey{machine: rec.Machine, start: wStart}
				usageSum[k] = usageSum[k].Add(rec.AvgUsage.Scale(frac))
			}
		}
	}
	keys := make([]windowKey, 0, len(usageSum))
	for k := range usageSum {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].machine != keys[j].machine {
			return keys[i].machine < keys[j].machine
		}
		return keys[i].start < keys[j].start
	})
	for _, k := range keys {
		sum := usageSum[k]
		cap, ok := capacity[k.machine]
		if !ok {
			if add("usage-machine", "usage on machine %d with no capacity record", k.machine) {
				return out
			}
			continue
		}
		if sum.Mem > cap.Mem+1e-9 {
			if add("machine-mem-capacity", "machine %d window %v: summed mem usage %.4f > capacity %.4f",
				k.machine, k.start, sum.Mem, cap.Mem) {
				return out
			}
		}
		if sum.CPU > cap.CPU+opts.CPUOvercommitTolerance {
			if add("machine-cpu-capacity", "machine %d window %v: summed cpu usage %.4f > capacity %.4f",
				k.machine, k.start, sum.CPU, cap.CPU) {
				return out
			}
		}
	}

	return out
}
