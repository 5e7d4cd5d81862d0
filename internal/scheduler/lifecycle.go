package scheduler

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Submit enters a job (or alloc set) into the system at the current
// simulation time, emitting SUBMIT rows and routing it either to the batch
// queue or straight to the ready state.
func (s *Scheduler) Submit(j *Job) {
	now := s.k.Now()
	if _, dup := s.jobs[j.ID]; dup {
		panic(fmt.Sprintf("scheduler: duplicate job %d", j.ID))
	}
	if len(j.Tasks) == 0 {
		panic(fmt.Sprintf("scheduler: job %d has no tasks", j.ID))
	}
	s.jobs[j.ID] = j
	j.sched = s
	s.met.jobsSubmitted.Inc()
	j.State = JobSubmitted
	j.SubmitTime = now
	j.FinalType = trace.EventSubmit
	j.liveTasks = len(j.Tasks)
	for _, t := range j.Tasks {
		t.remaining = t.Duration
		t.planSegments()
	}

	// Terminated jobs leave s.jobs, so a parent found there is live (and
	// Parent 0, meaning none, is found nowhere: collection IDs start at 1).
	parent := s.jobs[j.Parent]

	s.emitCollection(j, trace.EventSubmit)
	for _, t := range j.Tasks {
		s.emitInstance(t, trace.EventSubmit, now)
	}

	// A child whose parent has terminated (or never came) is killed on
	// arrival: §5.2's parent-exit cleanup applies to late submissions too.
	if j.Parent != 0 && parent == nil {
		s.KillJob(j, trace.EventKill)
		return
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

// enableJob marks a job ready and enqueues its tasks for placement.
func (s *Scheduler) enableJob(j *Job) {
	j.State = JobReady
	j.ReadyTime = s.k.Now()
	s.emitCollection(j, trace.EventEnable)
	for _, t := range j.Tasks {
		s.enqueue(t)
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
func (s *Scheduler) startRunning(t *Task, m trace.MachineID) {
	now := s.k.Now()
	t.State = TaskRunning
	t.Machine = m
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
	t.endEvent = s.k.After(segment, (*taskEnd)(t))
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
	s.k.Cancel(t.endEvent)
	t.endEvent = sim.EventRef{}
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
// s.jobs.
func (s *Scheduler) terminateJob(j *Job, final trace.EventType) {
	if j.State == JobDone {
		return
	}
	delete(s.jobs, j.ID)
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

// dependents returns the live jobs that die with j, in the order they
// are killed: if j is an alloc set, the jobs targeting it — running or
// still pending — and then j's children, each group in collection-ID
// order. That is submission order, since collections are numbered as
// they are submitted.
func (s *Scheduler) dependents(j *Job) []*Job {
	// rank is 0 for a job targeting j, 1 for a child of j.
	rank := func(d *Job) int {
		if j.Type == trace.CollectionAllocSet && d.Type == trace.CollectionJob && d.AllocSet == j.ID {
			return 0
		}
		return 1
	}
	var deps []*Job
	for _, d := range s.jobs {
		if d.Parent == j.ID || rank(d) == 0 {
			deps = append(deps, d)
		}
	}
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
	for _, t := range j.Tasks {
		switch t.State {
		case TaskRunning:
			s.stopRun(t, now)
			s.unplace(t, true)
			t.State = TaskDead
			s.emitInstance(t, final, now)
		case TaskPending, TaskWaiting:
			s.k.Cancel(t.retryEvent)
			t.retryEvent = sim.EventRef{}
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
	if s.UnplaceHook != nil {
		s.UnplaceHook(t, t.runStart)
	}
	// A de-scheduled alloc instance takes its reservation with it.
	if t.Job.Type == trace.CollectionAllocSet {
		s.removeAllocInstance(t.Key, terminal)
	}
	if key := t.AllocInstance; key.Collection != 0 {
		if i := s.allocIndex(key); i >= 0 {
			ai := s.allocs[key.Collection][i]
			ai.Used = ai.Used.Sub(t.Request)
		}
		t.AllocInstance = trace.InstanceKey{}
	}
	if m := s.cell.Machine(t.Machine); m != nil && m.Resident(t.Key) != nil {
		// The detached record is recycled: nothing else may retain it.
		s.releaseResident(s.cell.Remove(t.Machine, t.Key))
	}
	t.Machine = 0
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
	t.retryEvent = s.k.After(delay, (*taskRetry)(t))
}

// EvictMachine evicts residents of a machine for maintenance (an OS
// upgrade, about one per machine-month, §5.2). Production-tier residents
// are usually spared: Borg's eviction-rate SLOs protect them (migrated
// gracefully, which the trace does not record as an EVICT).
func (s *Scheduler) EvictMachine(id trace.MachineID) {
	m := s.cell.Machine(id)
	if m == nil {
		return
	}
	s.met.machineEvictions.Inc()
	// Evicting an alloc instance evicts the tasks it hosts, which leave
	// the same machine, so the walk reads a copy of the list. Their
	// records are recycled and zeroed by then, so they name no task and
	// are skipped.
	s.evicting = append(s.evicting[:0], m.LiveResidents()...)
	for _, r := range s.evicting {
		if r.Tier == trace.TierProduction && !s.src.Bool(prodEvictionSLO) {
			continue
		}
		if t, _ := r.Task.(*Task); t != nil {
			s.Evict(t)
		}
	}
	clear(s.evicting)
}

// HandleMemoryPressure evicts the lowest-priority residents of a machine
// until summed memory usage fits under limitMem (§5.2: "the machine was
// over-committed and Borg had to kill one or more instances"). Pass the
// machine's memory capacity, less any already-committed window usage.
func (s *Scheduler) HandleMemoryPressure(id trace.MachineID, limitMem float64) int {
	m := s.cell.Machine(id)
	if m == nil {
		return 0
	}
	evicted := 0
	for m.UsageTotal().Mem > limitMem+1e-9 {
		// The pick finishes reading before the eviction below changes
		// the machine, so it reads the live list.
		victim := pickOOMVictim(m.LiveResidents())
		if victim == nil {
			break
		}
		t, _ := victim.Task.(*Task)
		if t == nil {
			break
		}
		if victim.Limit.Mem > 0 && victim.Usage.Mem > victim.Limit.Mem {
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
// (§5.2). residents arrive sorted weakest-first. Zero-limit residents are
// reservation-backed (alloc-hosted) and not treated as over-limit.
func pickOOMVictim(residents []*cluster.Resident) *cluster.Resident {
	for _, r := range residents {
		if r.Tier != trace.TierProduction && r.Limit.Mem > 0 && r.Usage.Mem > r.Limit.Mem {
			return r
		}
	}
	for _, r := range residents {
		if r.Tier != trace.TierProduction {
			return r
		}
	}
	if len(residents) > 0 {
		return residents[0]
	}
	return nil
}

// emitCollection emits a collection event carrying the job's static
// attributes.
func (s *Scheduler) emitCollection(j *Job, typ trace.EventType) {
	s.sink.CollectionEvent(trace.CollectionEvent{
		Time:           s.k.Now(),
		Collection:     j.ID,
		Type:           typ,
		CollectionType: j.Type,
		Priority:       j.Priority,
		Tier:           j.Tier,
		User:           j.User,
		Parent:         j.Parent,
		AllocSet:       j.AllocSet,
		Scheduler:      j.Scheduler,
		Scaling:        j.Scaling,
	})
}

// emitInstance emits an instance event for a task.
func (s *Scheduler) emitInstance(t *Task, typ trace.EventType, now sim.Time) {
	s.sink.InstanceEvent(trace.InstanceEvent{
		Time:          now,
		Key:           t.Key,
		Type:          typ,
		Machine:       t.Machine,
		Priority:      t.Job.Priority,
		Tier:          t.Job.Tier,
		Request:       t.Request,
		AllocInstance: t.AllocInstance,
	})
}
