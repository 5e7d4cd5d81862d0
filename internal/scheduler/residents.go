package scheduler

import (
	"fmt"

	"repro/internal/trace"
)

// Slot is one task resident on a machine. It holds inline the victim key
// the binary search reads, (priority, instance key), so a search never
// dereferences a task, and the task's last sampled usage on the machine.
// Everything else about the resident (its request, tier and alloc
// hosting) is read from the task.
type Slot struct {
	priority int
	key      trace.InstanceKey
	// Task is the resident task.
	Task  *Task
	usage trace.Resources
}

// Usage returns the slot's last sampled usage: zero until the sampler
// records the task's first window on the machine (SetUsage).
func (sl *Slot) Usage() trace.Resources { return sl.usage }

// before orders slots by victim order: priority, then collection, then
// index.
func (sl *Slot) before(priority int, key trace.InstanceKey) bool {
	if sl.priority != priority {
		return sl.priority < priority
	}
	if sl.key.Collection != key.Collection {
		return sl.key.Collection < key.Collection
	}
	return sl.key.Index < key.Index
}

// residents is one machine's tasks and the sums over them. slots is
// always in victim order, weakest first: placement inserts by binary
// search and removal shifts in place. allocated sums the residents'
// machine limits (machineLimit) and usage their slots' last usage; both
// change incrementally, in the same order of float operations at every
// place, remove, request change and usage sample.
type residents struct {
	slots     []Slot
	allocated trace.Resources
	usage     trace.Resources
}

// machineLimit is what t counts against its machine's allocation: its
// request, or nothing when an alloc instance hosts it, since the
// instance's reservation already counts it.
func machineLimit(t *Task) trace.Resources {
	if t.AllocInstance != nil {
		return trace.Resources{}
	}
	return t.Request
}

// on returns machine id's residents. The table is indexed by machine ID;
// New sizes it to the cell, and it grows when asked for an ID beyond it
// (a machine added after New).
func (s *Scheduler) on(id trace.MachineID) *residents {
	if n := int(id) + 1; n > len(s.machines) {
		s.machines = append(s.machines, make([]residents, n-len(s.machines))...)
	}
	return &s.machines[id]
}

// Residents returns the tasks on machine id in victim order —
// (priority, collection, index) ascending — as the scheduler's own
// slots, valid only until the machine's next placement or removal.
// Callers must not change them: usage goes through SetUsage.
func (s *Scheduler) Residents(id trace.MachineID) []Slot { return s.on(id).slots }

// Allocated returns the summed machine limits of machine id's residents.
func (s *Scheduler) Allocated(id trace.MachineID) trace.Resources { return s.on(id).allocated }

// UsageTotal returns the summed last sampled usage of machine id's
// residents.
func (s *Scheduler) UsageTotal(id trace.MachineID) trace.Resources { return s.on(id).usage }

// Headroom returns how much more machine id may allocate under the
// cell's overcommit ceiling.
func (s *Scheduler) Headroom(id trace.MachineID) trace.Resources {
	return s.cell.Machine(id).Ceiling().Sub(s.Allocated(id))
}

// search returns the position of (priority, key) in r's victim order:
// where it is, or where it would be inserted, and whether it is there.
func (r *residents) search(priority int, key trace.InstanceKey) (int, bool) {
	lo, hi := 0, len(r.slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.slots[mid].before(priority, key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(r.slots) && r.slots[lo].priority == priority && r.slots[lo].key == key
}

// find returns the residents of t's machine and t's position among
// them. A task that claims a machine it is not on is a scheduler bug, so
// find panics.
func (s *Scheduler) find(t *Task) (*residents, int) {
	r := s.on(t.Machine)
	i, ok := r.search(t.Job.Priority, t.Key())
	if !ok {
		panic(fmt.Sprintf("scheduler: task %s not on machine %d", t.Key(), t.Machine))
	}
	return r, i
}

// place puts t on machine id, under its job's priority, and counts its
// machine limit there. Placing on an unknown machine, or placing a task
// already there, panics: both are scheduler bugs.
func (s *Scheduler) place(t *Task, id trace.MachineID) {
	if s.cell.Machine(id) == nil {
		panic(fmt.Sprintf("scheduler: placing %s on unknown machine %d", t.Key(), id))
	}
	r := s.on(id)
	key := t.Key()
	i, dup := r.search(t.Job.Priority, key)
	if dup {
		panic(fmt.Sprintf("scheduler: instance %s already on machine %d", key, id))
	}
	r.slots = append(r.slots, Slot{})
	copy(r.slots[i+1:], r.slots[i:])
	r.slots[i] = Slot{priority: t.Job.Priority, key: key, Task: t}
	r.allocated = r.allocated.Add(machineLimit(t))
	r.usage = r.usage.Add(r.slots[i].usage)
	t.Machine = id
}

// remove takes t off its machine and its machine limit and usage off
// the sums. The limit is read before the caller clears t.AllocInstance.
func (s *Scheduler) remove(t *Task) {
	r, i := s.find(t)
	sl := r.slots[i]
	n := len(r.slots) - 1
	copy(r.slots[i:], r.slots[i+1:])
	r.slots[n] = Slot{}
	r.slots = r.slots[:n]
	r.allocated = r.allocated.Sub(machineLimit(t))
	r.usage = r.usage.Sub(sl.usage)
	r.clamp()
	t.Machine = 0
}

// SetUsage records t's sampled usage in its slot and keeps its machine's
// usage sum consistent. at is the position where a walk of Residents
// found t; when an eviction since then has shifted the slots, t's slot
// is searched for instead.
func (s *Scheduler) SetUsage(t *Task, at int, usage trace.Resources) {
	r := s.on(t.Machine)
	if at >= len(r.slots) || r.slots[at].Task != t {
		r, at = s.find(t)
	}
	sl := &r.slots[at]
	r.usage = r.usage.Sub(sl.usage).Add(usage)
	r.clamp()
	sl.usage = usage
}

// clamp zeroes numeric drift so long simulations cannot accumulate
// negative sums; with no residents both sums are reset to exactly zero.
func (r *residents) clamp() {
	if len(r.slots) == 0 {
		r.allocated = trace.Resources{}
		r.usage = trace.Resources{}
		return
	}
	if r.allocated.CPU < 0 {
		r.allocated.CPU = 0
	}
	if r.allocated.Mem < 0 {
		r.allocated.Mem = 0
	}
	if r.usage.CPU < 0 {
		r.usage.CPU = 0
	}
	if r.usage.Mem < 0 {
		r.usage.Mem = 0
	}
}
