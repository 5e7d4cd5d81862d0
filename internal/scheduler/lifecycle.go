package scheduler

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Submit enters a job (or alloc set) into the system at the current
// simulation time, emitting SUBMIT rows and routing it either to the batch
// queue or straight to the ready state. It reads the job's task bodies
// from j.Specs and does not retain them: a job it keeps gets its Tasks
// array built from them (in an array Reclaim freed, if its size class
// has one), and either way j.Specs is cleared, so the source may reuse
// that buffer once Submit returns.
func (s *Scheduler) Submit(j *Job) {
	now := s.k.Now()
	if _, dup := s.jobs[j.ID]; dup {
		panic(fmt.Sprintf("scheduler: duplicate job %d", j.ID))
	}
	if len(j.Specs) == 0 {
		panic(fmt.Sprintf("scheduler: job %d has no tasks", j.ID))
	}
	specs := j.Specs
	j.Specs = nil
	s.jobs[j.ID] = j
	j.sched = s
	s.met.jobsSubmitted.Inc()
	j.State = JobSubmitted
	j.SubmitTime = now
	j.FinalType = trace.EventSubmit

	// Terminated jobs leave s.jobs, so a parent found there is live (and
	// Parent 0, meaning none, is found nowhere: collection IDs start at 1).
	// A child whose parent has terminated (or never came) is killed on
	// arrival: §5.2's parent-exit cleanup applies to late submissions too.
	parent := s.jobs[j.Parent]
	if j.Parent != 0 && parent == nil {
		s.killOnArrival(j, specs)
		return
	}

	j.Tasks = s.taskArray(len(specs))
	for i := range j.Tasks {
		t := &j.Tasks[i]
		t.Job, t.TaskSpec, t.index = j, specs[i], int32(i)
		t.remaining = t.Duration
		t.planSegments()
	}
	j.liveTasks = len(j.Tasks)

	// j dies with a live parent, and with a live alloc set it targets:
	// each keeps j in its dependents.
	if parent != nil {
		parent.dependents = append(parent.dependents, j)
	}
	if as := s.jobs[j.AllocSet]; as != nil && as != parent && targets(j, as) {
		as.dependents = append(as.dependents, j)
	}

	s.emitCollection(j, trace.EventSubmit)
	for i := range j.Tasks {
		s.emitInstance(&j.Tasks[i], trace.EventSubmit, now)
	}

	// Schedule the scripted user kill, if any. Parent-driven kills happen
	// via propagation instead.
	if j.KillAfter > 0 {
		j.killEvent = s.k.After(j.KillAfter, (*jobKill)(j))
	}

	// Batch-tier jobs go through the batch scheduler's queue (§3); all
	// others are immediately ready.
	if s.cfg.Batch && j.Scheduler == trace.SchedulerBatch {
		j.State = JobQueued
		s.emitCollection(j, trace.EventQueue)
		s.batchQueue = append(s.batchQueue, j)
		return
	}
	s.enableJob(j)
}

// killOnArrival submits and at once kills a job whose parent is gone. It
// emits the rows KillJob would for a job whose tasks are all pending —
// the collection SUBMIT, every instance SUBMIT, every instance KILL, the
// collection KILL — through the one reused s.arriving value, so the job
// allocates no task array and keeps none.
func (s *Scheduler) killOnArrival(j *Job, specs []TaskSpec) {
	now := s.k.Now()
	s.met.killedOnArrival.Inc()
	s.emitCollection(j, trace.EventSubmit)
	t := &s.arriving
	t.Job = j
	for _, typ := range [...]trace.EventType{trace.EventSubmit, trace.EventKill} {
		for i := range specs {
			t.TaskSpec, t.index = specs[i], int32(i)
			s.emitInstance(t, typ, now)
		}
	}
	*t = Task{}
	delete(s.jobs, j.ID)
	j.State = JobDone
	j.FinalType = trace.EventKill
	s.emitCollection(j, trace.EventKill)
}

// enableJob marks a job ready and enqueues its tasks for placement.
func (s *Scheduler) enableJob(j *Job) {
	j.State = JobReady
	j.ReadyTime = s.k.Now()
	s.emitCollection(j, trace.EventEnable)
	for i := range j.Tasks {
		s.enqueue(&j.Tasks[i])
	}
}

// batchAdmissionCheck admits queued batch jobs while the best-effort batch
// tier's allocation is below the configured ceiling.
func (s *Scheduler) batchAdmissionCheck() {
	if len(s.batchQueue) == 0 {
		return
	}
	admitted := 0
	for len(s.batchQueue) > 0 && admitted < batchMaxAdmitPerCheck {
		if s.bebAllocatedFraction() >= s.cfg.BatchAllocCeiling {
			break
		}
		j := s.batchQueue[0]
		s.batchQueue = s.batchQueue[1:]
		if j.State == JobDone {
			continue // killed while queued
		}
		admitted++
		s.met.batchAdmitted.Inc()
		s.enableJob(j)
	}
}

// bebAllocatedFraction returns the best-effort batch tier's current share
// of cell CPU capacity, counting both running allocations and tasks already
// waiting for placement. The numerator is the incrementally maintained
// bebAllocCPU sum — O(1) per admission check instead of walking every job
// ever submitted — and, unlike the recomputed walk it replaced, its
// summation order is simulation order, not map order, so the value is
// identical across same-seed runs down to the last bit.
func (s *Scheduler) bebAllocatedFraction() float64 {
	capacity := s.cell.Capacity().CPU
	if capacity <= 0 {
		return 1
	}
	return s.bebAllocCPU / capacity
}

// planSegments splits the task's remaining duration into equal segments,
// one per scripted crash-restart plus the final run, preserving the total
// resource integral while generating FAIL churn (Figure 9).
func (t *Task) planSegments() {
	n := sim.Time(t.Restarts + 1)
	t.segment = t.remaining / n
	if t.segment <= 0 {
		t.segment = 1
	}
}

// startRunning transitions a placed task to running and schedules the end
// of its current segment.
func (s *Scheduler) startRunning(t *Task) {
	now := s.k.Now()
	t.State = TaskRunning
	t.runStart = now
	if t.Job.FirstRun < 0 {
		t.Job.FirstRun = now
	}
	s.emitInstance(t, trace.EventSchedule, now)

	segment := t.segment
	if segment > t.remaining {
		segment = t.remaining
	}
	if segment <= 0 {
		segment = 1
	}
	t.event = s.k.After(segment, (*taskEnd)(t))
}

// segmentEnd handles a task reaching the end of a running segment: either
// a scripted crash-restart or final termination.
func (s *Scheduler) segmentEnd(t *Task) {
	now := s.k.Now()
	s.stopRun(t, now)
	s.unplace(t, !(t.Restarts > 0 && t.remaining > 0))

	if t.Restarts > 0 && t.remaining > 0 {
		// Scripted crash: FAIL, then come back after the restart delay.
		t.Restarts--
		s.met.tasksFailedRestarts.Inc()
		s.emitInstance(t, trace.EventFail, now)
		s.requeueAfter(t, failRestartDelay)
		return
	}

	s.finishScripted(t)
}

// stopRun ends t's current run at now: its segment end is canceled and
// the time it ran comes off its remaining duration.
func (s *Scheduler) stopRun(t *Task, now sim.Time) {
	s.k.Cancel(t.event)
	t.event = sim.EventRef{}
	t.remaining = max(0, t.remaining-(now-t.runStart))
}

// finishScripted terminates t for good with its job's scripted outcome.
func (s *Scheduler) finishScripted(t *Task) {
	final := trace.EventFinish
	if t.Job.Outcome == OutcomeFail {
		final = trace.EventFail
	}
	s.finishTask(t, final)
}

// finishTask marks a task dead and, if it is the job's last live task,
// terminates the job.
func (s *Scheduler) finishTask(t *Task, final trace.EventType) {
	if t.State == TaskDead {
		return
	}
	t.State = TaskDead
	s.accountBEB(t)
	s.emitInstance(t, final, s.k.Now())
	t.Job.liveTasks--
	if t.Job.liveTasks <= 0 && t.Job.State != JobDone {
		s.terminateJob(t.Job, final)
	}
}

// terminateJob emits the job's terminal event, kills the jobs that die
// with it (§5.2: a child job is killed automatically when its parent
// terminates; §5.1: so is a job running in an alloc set that ends) and
// releases the job: nothing looks a finished job up again, so it leaves
// s.jobs, and its task array is retired for Reclaim to free.
func (s *Scheduler) terminateJob(j *Job, final trace.EventType) {
	if j.State == JobDone {
		return
	}
	delete(s.jobs, j.ID)
	s.retired = append(s.retired, j)
	j.State = JobDone
	j.FinalType = final
	s.accountBEBJob(j)
	s.k.Cancel(j.killEvent)
	j.killEvent = sim.EventRef{}
	s.emitCollection(j, final)

	for _, d := range s.dependents(j) {
		// An earlier kill in the list may have cascaded to d.
		if d.State != JobDone {
			s.KillJob(d, trace.EventKill)
		}
	}
	// An alloc set's instances left with its tasks; drop its entry.
	delete(s.allocs, j.ID)
}

// sizeClass returns the task-array size class of n tasks: the exponent
// of the power of two at or above n, which is the capacity of the
// class's arrays.
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// taskArray returns a zeroed array of n tasks: a reclaimed one from n's
// size class if one is free, else a new one with the class's capacity.
func (s *Scheduler) taskArray(n int) []Task {
	c := sizeClass(n)
	if free := s.freeTasks[c]; len(free) > 0 {
		tasks := free[len(free)-1]
		free[len(free)-1] = nil
		s.freeTasks[c] = free[:len(free)-1]
		return tasks[:n]
	}
	return make([]Task, n, 1<<c)
}

// Reclaim frees the task arrays that nothing can name any longer, for
// Submit to reuse. Call it at a quiescent point of the cell, after the
// autopilot's sweep: core.Run calls it at the end of each usage
// sampling window. A job's array is freed once the job was retired
// before the previous Reclaim, so a sweep has passed that did not
// observe its tasks, and once none of its tasks is left in the pending
// queue. Freeing zeroes the array and sets the job's Tasks to nil.
// Until a caller calls Reclaim, the scheduler keeps every finished job's
// array, and the free lists live and die with the scheduler.
func (s *Scheduler) Reclaim() {
	kept := s.retired[:0]
	for i, j := range s.retired {
		if i >= s.aged || j.queued > 0 {
			kept = append(kept, j)
			continue
		}
		// Past len the array is still zero from make or an earlier clear.
		clear(j.Tasks)
		c := sizeClass(cap(j.Tasks))
		s.freeTasks[c] = append(s.freeTasks[c], j.Tasks[:cap(j.Tasks)])
		j.Tasks = nil
	}
	clear(s.retired[len(kept):])
	s.retired = kept
	s.aged = len(kept)
}

// targets reports whether job d runs inside alloc set j.
func targets(d, j *Job) bool {
	return j.CollectionType == trace.CollectionAllocSet && d.CollectionType == trace.CollectionJob && d.AllocSet == j.ID
}

// dependents returns the live jobs that die with j, in the order they
// are killed: if j is an alloc set, the jobs targeting it — running or
// still pending — and then j's children, each group in collection-ID
// order. That is submission order, since collections are numbered as
// they are submitted. It reads j's dependents list and releases it.
func (s *Scheduler) dependents(j *Job) []*Job {
	// rank is 0 for a job targeting j, 1 for a child of j.
	rank := func(d *Job) int {
		if targets(d, j) {
			return 0
		}
		return 1
	}
	var deps []*Job
	for _, d := range j.dependents {
		if d.State != JobDone {
			deps = append(deps, d)
		}
	}
	j.dependents = nil
	slices.SortFunc(deps, func(a, b *Job) int {
		if ra, rb := rank(a), rank(b); ra != rb {
			return ra - rb
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return deps
}

// KillJob cancels a job: running tasks are stopped, pending tasks are
// withdrawn, and the collection-level terminal event is emitted.
func (s *Scheduler) KillJob(j *Job, final trace.EventType) {
	if j.State == JobDone {
		return
	}
	now := s.k.Now()
	for i := range j.Tasks {
		t := &j.Tasks[i]
		switch t.State {
		case TaskRunning:
			s.stopRun(t, now)
			s.unplace(t, true)
			if t.State == TaskDead {
				// t is an alloc set instance that hosted this job's
				// parent: its teardown killed the parent, and that kill
				// came back here and ended t already.
				continue
			}
			t.State = TaskDead
			s.emitInstance(t, final, now)
		case TaskPending, TaskWaiting:
			s.k.Cancel(t.event)
			t.event = sim.EventRef{}
			t.State = TaskDead
			s.emitInstance(t, final, now)
		}
	}
	j.liveTasks = 0
	s.terminateJob(j, final)
}

// unplace removes a running task from its machine (and alloc instance),
// leaving its state untouched; callers decide what happens next. terminal
// says whether the task is ending for good (vs. being evicted): a
// terminally de-scheduled alloc instance kills its inner jobs, an evicted
// one merely displaces them.
func (s *Scheduler) unplace(t *Task, terminal bool) {
	if t.Machine == 0 {
		return
	}
	// A nested call for an alloc instance already being unplaced (see
	// below) skips the hook: the outer call fired it for this run.
	if s.UnplaceHook != nil && !t.unplacing {
		s.UnplaceHook(t, t.runStart)
	}
	// A de-scheduled alloc instance takes its reservation with it.
	if t.Job.CollectionType == trace.CollectionAllocSet {
		// The teardown may kill a job whose end kills this alloc set,
		// which unplaces this instance again from inside the teardown.
		t.unplacing = true
		s.removeAllocInstance(t.Key(), terminal)
		t.unplacing = false
		if t.Machine == 0 {
			// A job killed with the instance's hosted tasks had this
			// alloc set as a dependent and unplaced it already.
			return
		}
	}
	// The task leaves its machine while its alloc instance is still
	// set, so its zero machine limit is what comes off the allocation.
	s.remove(t)
	// The hosting instance gets its reservation back. While an instance
	// is torn down (removeAllocInstance) its hosted tasks return it to an
	// instance no longer in its set, which nothing reads again.
	if ai := t.AllocInstance; ai != nil {
		ai.Used = ai.Used.Sub(t.Request)
		t.AllocInstance = nil
	}
}

// Evict de-schedules a running task for an infrastructure reason (§5.2:
// machine failure, OS upgrade, preemption, or overcommit pressure) and
// requeues it for rescheduling after the eviction restart delay.
func (s *Scheduler) Evict(t *Task) {
	if t.State != TaskRunning {
		return
	}
	now := s.k.Now()
	s.stopRun(t, now)
	s.unplace(t, false)
	s.emitInstance(t, trace.EventEvict, now)

	if t.remaining == 0 {
		// Evicted at the very end of its run; treat as completed work.
		s.finishScripted(t)
		return
	}
	s.requeueAfter(t, evictionRestartDelay)
}

// requeueAfter re-queues a de-scheduled task: the trace-visible re-SUBMIT
// happens immediately (the instance is pending again, as in the real
// trace), while actual placement eligibility is delayed.
func (s *Scheduler) requeueAfter(t *Task, delay sim.Time) {
	t.State = TaskWaiting
	s.accountBEB(t)
	s.emitInstance(t, trace.EventSubmit, s.k.Now())
	t.event = s.k.After(delay, (*taskRetry)(t))
}

// EvictMachine evicts residents of a machine for maintenance (an OS
// upgrade, about one per machine-month, §5.2). Production-tier residents
// are usually spared: Borg's eviction-rate SLOs protect them (migrated
// gracefully, which the trace does not record as an EVICT).
func (s *Scheduler) EvictMachine(id trace.MachineID) {
	if s.cell.Machine(id) == nil {
		return
	}
	s.met.machineEvictions.Inc()
	// Evicting an alloc instance evicts the tasks it hosts, which leave
	// the same machine, so the walk reads a copy of the list. A task that
	// has left by the time the walk reaches it is skipped before any
	// production-SLO coin is drawn for it.
	for _, sl := range s.on(id).slots {
		s.evicting = append(s.evicting, sl.Task)
	}
	for _, t := range s.evicting {
		if t.Machine != id {
			continue
		}
		if t.Job.Tier == trace.TierProduction && !s.src.Bool(prodEvictionSLO) {
			continue
		}
		s.Evict(t)
	}
	clear(s.evicting)
	s.evicting = s.evicting[:0]
}

// HandleMemoryPressure evicts the lowest-priority residents of a machine
// until summed memory usage fits under limitMem (§5.2: "the machine was
// over-committed and Borg had to kill one or more instances"). Pass the
// machine's memory capacity, less any already-committed window usage.
func (s *Scheduler) HandleMemoryPressure(id trace.MachineID, limitMem float64) int {
	if s.cell.Machine(id) == nil {
		return 0
	}
	evicted := 0
	for s.UsageTotal(id).Mem > limitMem+1e-9 {
		// The pick finishes reading before the eviction below changes
		// the machine, so it reads the live list.
		victim := pickOOMVictim(s.Residents(id))
		if victim == nil {
			break
		}
		t := victim.Task
		if limit := machineLimit(t); limit.Mem > 0 && victim.Usage().Mem > limit.Mem {
			// Over its own limit: the task FAILs (§5.2: "trying to use
			// more resources than it had requested"), rather than being
			// evicted by the infrastructure.
			s.failOverLimit(t)
			s.met.oomKills.Inc()
		} else {
			s.Evict(t)
			s.met.oomEvictions.Inc()
		}
		evicted++
	}
	return evicted
}

// failOverLimit crashes a task that exceeded its own memory limit. The
// first failure restarts it (a crashloop the trace is full of); repeat
// offenders die for good — their memory demand simply does not fit the
// request, and Borg will not reschedule them forever.
func (s *Scheduler) failOverLimit(t *Task) {
	if t.State != TaskRunning {
		return
	}
	now := s.k.Now()
	s.stopRun(t, now)
	t.oomFails++
	if t.oomFails >= 2 || t.remaining == 0 {
		s.unplace(t, true)
		s.finishTask(t, trace.EventFail)
		return
	}
	s.unplace(t, false)
	s.emitInstance(t, trace.EventFail, now)
	s.requeueAfter(t, failRestartDelay)
}

// pickOOMVictim chooses which resident dies under memory pressure:
// first a non-production resident using more memory than its limit (the
// culprit), then the weakest non-production resident, and only as a last
// resort a production resident — eviction SLOs shield the production tier
// (§5.2). slots arrive sorted weakest-first. Alloc-hosted residents count
// a zero machine limit (the reservation backs them) and are not treated
// as over-limit.
func pickOOMVictim(slots []Slot) *Slot {
	for i := range slots {
		t := slots[i].Task
		if limit := machineLimit(t); t.Job.Tier != trace.TierProduction && limit.Mem > 0 && slots[i].Usage().Mem > limit.Mem {
			return &slots[i]
		}
	}
	for i := range slots {
		if slots[i].Task.Job.Tier != trace.TierProduction {
			return &slots[i]
		}
	}
	if len(slots) > 0 {
		return &slots[0]
	}
	return nil
}

// emitCollection emits a collection event carrying the job's static
// attributes.
func (s *Scheduler) emitCollection(j *Job, typ trace.EventType) {
	s.sink.CollectionEvent(trace.CollectionEvent{
		Time:            s.k.Now(),
		Collection:      j.ID,
		Type:            typ,
		CollectionAttrs: j.CollectionAttrs,
	})
}

// emitInstance emits an instance event for a task: every instance_events
// row a simulation writes is built here.
func (s *Scheduler) emitInstance(t *Task, typ trace.EventType, now sim.Time) {
	s.sink.InstanceEvent(trace.InstanceEvent{
		Time:          now,
		Key:           t.Key(),
		Type:          typ,
		Machine:       t.Machine,
		Priority:      t.Job.Priority,
		Tier:          t.Job.Tier,
		Request:       t.Request,
		AllocInstance: t.allocKey(),
	})
}
