package scheduler

import "repro/internal/sim"

// taskHeap orders pending tasks by (priority desc, enqueue sequence asc):
// strongest tier first, FIFO within a priority. A policy implementing
// QueueOrderer substitutes its own primary ordering via queueLess; ties
// under either ordering break by enqueue sequence rather than a timestamp,
// so bursts of tasks arriving in the same simulation instant still pop
// deterministically.
//
// push and pop follow container/heap's up/down algorithm step for step, so
// the array layout and pop order are the ones that package would produce,
// without its interface dispatch.
type taskHeap struct {
	tasks []*Task
	// queueLess is the optional QueueOrderer hook; nil selects the default
	// priority-descending order.
	queueLess func(a, b *Task) bool
}

func (h *taskHeap) Len() int { return len(h.tasks) }

// less reports whether a is served before b.
func (h *taskHeap) less(a, b *Task) bool {
	if h.queueLess != nil {
		if h.queueLess(a, b) {
			return true
		}
		if h.queueLess(b, a) {
			return false
		}
	} else if a.Job.Priority != b.Job.Priority {
		return a.Job.Priority > b.Job.Priority
	}
	return a.enqueueSeq < b.enqueueSeq
}

// push adds t and sifts it toward the root.
func (h *taskHeap) push(t *Task) {
	h.tasks = append(h.tasks, t)
	j := len(h.tasks) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(t, h.tasks[i]) {
			break
		}
		h.tasks[j] = h.tasks[i]
		j = i
	}
	h.tasks[j] = t
}

// pop removes and returns the first task to serve. The heap must be
// non-empty.
func (h *taskHeap) pop() *Task {
	n := len(h.tasks) - 1
	top, last := h.tasks[0], h.tasks[n]
	h.tasks[n] = nil
	h.tasks = h.tasks[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(h.tasks[j2], h.tasks[j]) {
			j = j2
		}
		if !h.less(h.tasks[j], last) {
			break
		}
		h.tasks[i] = h.tasks[j]
		i = j
	}
	h.tasks[i] = last
	return top
}

// enqueue adds a task to the pending queue and pokes the scheduling server.
func (s *Scheduler) enqueue(t *Task) {
	t.State = TaskPending
	s.accountBEB(t)
	t.enqueueSeq = s.seq
	s.seq++
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
	s.k.After(sim.FromSeconds(service), s.serveFn)
}

// serve is the scheduling server's service-completion event, bound once
// to serveFn in New so kick schedules it without allocating a closure.
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
