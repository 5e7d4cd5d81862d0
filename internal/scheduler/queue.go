package scheduler

import "repro/internal/sim"

// pendingQueue holds tasks waiting for placement and serves them the way
// Borg's scheduler scans its pending queue: strongest priority first, FIFO
// within a priority. Each distinct priority gets a level, and levels are
// kept sorted by priority, descending. A level is a slice plus a head
// index: push appends, pop takes from the head of the first non-empty
// level. That is exactly the (priority desc, push order asc) order, so
// bursts of tasks arriving in the same simulation instant still pop
// deterministically.
//
// Levels are never removed: a level that empties is reset and keeps its
// backing array, so a steady push/pop cycle over known priorities does not
// allocate. A withdrawn (killed) task stays queued until popped and counts
// toward Len.
type pendingQueue struct {
	levels []pendingLevel
	// first is the lowest index of a level that may be non-empty; every
	// level before it is empty.
	first int
	n     int
}

// pendingLevel is the FIFO of one priority: tasks[head:] are queued.
type pendingLevel struct {
	priority int
	head     int
	tasks    []*Task
}

// Len reports the number of queued tasks, including withdrawn ones not yet
// popped.
func (q *pendingQueue) Len() int { return q.n }

// push appends t to its priority's level, creating the level on first use.
func (q *pendingQueue) push(t *Task) {
	p := t.Job.Priority
	// Binary search for the first level whose priority is <= p.
	i, j := 0, len(q.levels)
	for i < j {
		h := int(uint(i+j) >> 1)
		if q.levels[h].priority > p {
			i = h + 1
		} else {
			j = h
		}
	}
	if i == len(q.levels) || q.levels[i].priority != p {
		q.levels = append(q.levels, pendingLevel{})
		copy(q.levels[i+1:], q.levels[i:])
		q.levels[i] = pendingLevel{priority: p}
	}
	q.levels[i].tasks = append(q.levels[i].tasks, t)
	if i < q.first {
		q.first = i
	}
	q.n++
}

// pop removes and returns the first task to serve. The queue must be
// non-empty.
func (q *pendingQueue) pop() *Task {
	for q.levels[q.first].head == len(q.levels[q.first].tasks) {
		q.first++
	}
	l := &q.levels[q.first]
	t := l.tasks[l.head]
	l.tasks[l.head] = nil
	l.head++
	switch n := len(l.tasks); {
	case l.head == n:
		l.tasks, l.head = l.tasks[:0], 0
	case 2*l.head > n:
		// Compact once the popped prefix outgrows the queued tail: the
		// copy moves fewer tasks than were popped since the last one.
		live := copy(l.tasks, l.tasks[l.head:])
		clear(l.tasks[live:n])
		l.tasks, l.head = l.tasks[:live], 0
	}
	q.n--
	return t
}

// enqueue adds a task to the pending queue and pokes the scheduling server.
func (s *Scheduler) enqueue(t *Task) {
	t.State = TaskPending
	s.accountBEB(t)
	s.pending.push(t)
	s.met.pendingQueue.Set(float64(s.pending.Len()))
	s.kick()
}

// kick starts the scheduling server if it is idle and work is pending.
// The server processes one placement attempt per service time draw; the
// resulting queueing behaviour produces the scheduling-delay distributions
// of Figure 10.
func (s *Scheduler) kick() {
	if s.busy || s.pending.Len() == 0 {
		return
	}
	s.busy = true
	service := s.cfg.ServiceTime.Sample(s.src)
	if service < 0 {
		service = 0
	}
	s.k.After(sim.FromSeconds(service), s.serveEv)
}

// serve is the scheduling server's service-completion event, bound once
// to serveEv in New so kick schedules it without allocating a closure.
func (s *Scheduler) serve(now sim.Time) {
	s.busy = false
	s.serveOne(now)
	s.kick()
}

// serveOne pops the strongest pending task and attempts placement.
func (s *Scheduler) serveOne(now sim.Time) {
	for s.pending.Len() > 0 {
		t := s.pending.pop()
		if t.State != TaskPending || t.Job.State == JobDone {
			continue // withdrawn (killed) while queued
		}
		// The gauge updates before the attempt: any path out of
		// attemptPlacement that re-enqueues refreshes it again.
		s.met.pendingQueue.Set(float64(s.pending.Len()))
		s.attemptPlacement(t, now)
		return
	}
	s.met.pendingQueue.Set(0)
}
