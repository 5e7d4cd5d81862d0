// Package sim provides the discrete-event simulation kernel that drives the
// Borg cell reproduction: a virtual clock in microseconds (the trace's time
// unit), a pooled priority event queue, and helpers for periodic processes
// such as the 5-minute usage sampler.
//
// Event records live in a slab owned by the kernel and are recycled after
// they fire or are canceled, so the kernel itself never allocates per
// event once the slab covers the peak number of queued events. An event
// is any value with a Fire method: hot callers schedule a pointer to
// state they already own (the scheduler schedules its tasks themselves),
// which boxes into the Event interface without allocating, and cold
// callers wrap a closure in Func. Callers hold EventRef handles — small
// (slot, generation) values that become harmless no-ops once the
// underlying record has been recycled, which makes "cancel the
// end-of-run timer that may already have fired" safe without any
// bookkeeping on the caller's side.
//
// What a whole cell run allocates is therefore decided by the kernel's
// callers. core.Run allocates per job the Job. A job the scheduler keeps
// holds its tasks by value in one array taken from a per-cell pool that
// grows to about the peak number of live tasks, since a finished job's
// array is reused once nothing names its tasks; a job killed on arrival
// allocates only its Job. Nothing is allocated per task event:
// placements, restarts, retries and usage windows reuse pooled state.
// TestRunAllocsPerJob in internal/core pins that bound end to end, and
// TestKernelStepZeroAllocs pins the kernel's own part.
package sim

import "fmt"

// Time is virtual simulation time in microseconds since trace start,
// matching the published trace's timestamp unit.
type Time int64

// Common durations in trace time units.
const (
	Microsecond Time = 1
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
	Day              = 24 * Hour

	// SampleWindow is the usage-sampling period used by the trace
	// (5-minute windows, §3).
	SampleWindow = 5 * Minute
)

// FromSeconds converts floating-point seconds to simulation time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromHours converts floating-point hours to simulation time.
func FromHours(h float64) Time { return Time(h * float64(Hour)) }

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Hours returns t as floating-point hours.
func (t Time) Hours() float64 { return float64(t) / float64(Hour) }

// String renders the time as d.hh:mm:ss.mmm for logs and debugging.
func (t Time) String() string {
	neg := ""
	if t < 0 {
		neg, t = "-", -t
	}
	d := t / Day
	h := (t % Day) / Hour
	m := (t % Hour) / Minute
	s := (t % Minute) / Second
	ms := (t % Second) / Millisecond
	return fmt.Sprintf("%s%d.%02d:%02d:%02d.%03d", neg, d, h, m, s, ms)
}

// EventRef is a handle to a scheduled event. The zero value refers to
// nothing: canceling it is a no-op and Scheduled reports false. A ref goes
// stale the moment its event fires or is canceled; stale refs are equally
// inert, so callers can keep them around without caring which happened.
type EventRef struct {
	slot uint32
	gen  uint32
}

// IsZero reports whether the ref was never assigned a scheduled event.
func (r EventRef) IsZero() bool { return r.gen == 0 }

// Event is what the kernel fires: Fire runs at the event's due time with
// the clock already advanced to it.
type Event interface {
	Fire(now Time)
}

// Func adapts a plain callback to Event. A func value is pointer-shaped,
// so the conversion to Event does not allocate; building the closure
// itself may.
type Func func(now Time)

// Fire calls f.
func (f Func) Fire(now Time) { f(now) }

// eventSlot is one pooled event record in the kernel's slab.
type eventSlot struct {
	due Time
	seq uint64 // tie-break: FIFO among equal times
	gen uint32 // bumped on every recycle; stale EventRefs mismatch
	pos int32  // index into Kernel.order, -1 when not queued
	ev  Event
}

// Kernel is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; the simulation model is deterministic and sequential by
// design (randomness is injected via rng streams), and multi-cell
// parallelism lives a layer up, in internal/engine, with one kernel per
// cell.
type Kernel struct {
	now    Time
	slots  []eventSlot
	free   []uint32 // recycled slot ids
	order  []uint32 // slot ids, heap-ordered by (due, seq)
	seq    uint64
	events uint64 // fired events, for stats
}

// NewKernel returns a kernel with the clock at 0.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Fired returns how many events have been executed.
func (k *Kernel) Fired() uint64 { return k.events }

// PoolSize returns the slab size: the high-water mark of simultaneously
// scheduled events, for capacity diagnostics.
func (k *Kernel) PoolSize() int { return len(k.slots) }

// Scheduled reports whether the ref's event is still queued (not yet
// fired, not canceled).
func (k *Kernel) Scheduled(r EventRef) bool {
	return !r.IsZero() && int(r.slot) < len(k.slots) &&
		k.slots[r.slot].gen == r.gen && k.slots[r.slot].pos >= 0
}

// alloc takes a slot from the freelist (or grows the slab) and stamps a
// fresh generation.
func (k *Kernel) alloc() uint32 {
	var id uint32
	if n := len(k.free); n > 0 {
		id = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.slots = append(k.slots, eventSlot{})
		id = uint32(len(k.slots) - 1)
	}
	k.slots[id].gen++
	return id
}

// release invalidates all outstanding refs to the slot and returns it to
// the pool.
func (k *Kernel) release(id uint32) {
	s := &k.slots[id]
	s.gen++
	s.pos = -1
	s.ev = nil
	k.free = append(k.free, id)
}

// The event queue is a binary min-heap of slot ids in k.order, ordered by
// (due, seq). The sift methods below follow container/heap's up/down/Remove
// algorithm step for step, so the array layout and pop order are the ones
// that package would produce, but they move the sifted id through a hole
// instead of swapping and keep each slot's pos index in sync so Cancel can
// remove mid-heap entries in O(log n).

// before reports whether slot a fires before slot b.
func (k *Kernel) before(a, b uint32) bool {
	sa, sb := &k.slots[a], &k.slots[b]
	if sa.due != sb.due {
		return sa.due < sb.due
	}
	return sa.seq < sb.seq
}

// place stores id at heap index i.
func (k *Kernel) place(i int, id uint32) {
	k.order[i] = id
	k.slots[id].pos = int32(i)
}

// up moves the id at heap index j toward the root until its parent fires
// first.
func (k *Kernel) up(j int) {
	id := k.order[j]
	for j > 0 {
		i := (j - 1) / 2
		p := k.order[i]
		if !k.before(id, p) {
			break
		}
		k.place(j, p)
		j = i
	}
	k.place(j, id)
}

// down moves the id at heap index i0 toward the leaves of order[:n] until
// both children fire after it, and reports whether it moved.
func (k *Kernel) down(i0, n int) bool {
	id := k.order[i0]
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && k.before(k.order[j2], k.order[j]) {
			j = j2
		}
		c := k.order[j]
		if !k.before(c, id) {
			break
		}
		k.place(i, c)
		i = j
	}
	k.place(i, id)
	return i > i0
}

// removeAt deletes heap index i and returns its slot id; the caller
// releases the slot.
func (k *Kernel) removeAt(i int) uint32 {
	id := k.order[i]
	n := len(k.order) - 1
	if n != i {
		k.order[i] = k.order[n]
		if !k.down(i, n) {
			k.up(i)
		}
	}
	k.order = k.order[:n]
	return id
}

// At schedules ev to fire at the absolute time due. Scheduling in the past
// panics: it would silently corrupt causality.
func (k *Kernel) At(due Time, ev Event) EventRef {
	if due < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", due, k.now))
	}
	id := k.alloc()
	s := &k.slots[id]
	s.due = due
	s.seq = k.seq
	s.ev = ev
	k.seq++
	k.order = append(k.order, id)
	k.up(len(k.order) - 1)
	return EventRef{slot: id, gen: s.gen}
}

// After schedules ev to fire delay after the current time.
func (k *Kernel) After(delay Time, ev Event) EventRef {
	if delay < 0 {
		delay = 0
	}
	return k.At(k.now+delay, ev)
}

// Cancel removes a pending event. Canceling a zero, already-fired, or
// already-canceled ref is a no-op.
func (k *Kernel) Cancel(r EventRef) {
	if !k.Scheduled(r) {
		return
	}
	k.release(k.removeAt(int(k.slots[r.slot].pos)))
}

// Step fires the next event, advancing the clock. It returns false when the
// queue is empty.
func (k *Kernel) Step() bool {
	if len(k.order) == 0 {
		return false
	}
	id := k.removeAt(0)
	s := &k.slots[id]
	k.now = s.due
	k.events++
	ev := s.ev
	// Recycle before firing so a callback canceling its own ref (or
	// scheduling into the freed slot) behaves.
	k.release(id)
	ev.Fire(k.now)
	return true
}

// RunUntil fires events until the queue is drained or the next event is
// later than end; the clock is then advanced to end. Events scheduled by
// callbacks during the run are honored.
func (k *Kernel) RunUntil(end Time) {
	for len(k.order) > 0 && k.slots[k.order[0]].due <= end {
		k.Step()
	}
	if k.now < end {
		k.now = end
	}
}

// Every schedules fire at start, start+period, ... while the kernel runs,
// until (optional) end is reached (end <= 0 means no end).
func (k *Kernel) Every(start, period, end Time, fire func(now Time)) {
	if period <= 0 {
		panic("sim: non-positive period")
	}
	var tick Func
	tick = func(now Time) {
		fire(now)
		if next := now + period; end <= 0 || next <= end {
			k.At(next, tick)
		}
	}
	if end <= 0 || start <= end {
		k.At(start, tick)
	}
}
