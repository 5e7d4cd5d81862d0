package scheduler

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

// attemptPlacement tries to put one pending task onto a machine (or into
// an alloc instance), falling back to preemption and then to a backoff
// retry.
func (s *Scheduler) attemptPlacement(t *Task, now sim.Time) {
	if t.Job.State == JobDone || t.State != TaskPending {
		return
	}
	s.met.placementAttempts.Inc()
	// Jobs targeting an alloc set place tasks inside its reservations
	// (§5.1) instead of claiming machine allocation directly.
	if t.Job.CollectionType == trace.CollectionJob && t.Job.AllocSet != 0 {
		s.placeInAlloc(t, now)
		return
	}

	// Production-tier tasks evict lower tiers when no machine is
	// otherwise feasible (§2).
	m := s.pickMachine(t)
	if m == nil && t.Job.Tier == trace.TierProduction {
		m = s.tryPreemption(t)
	}
	if m == nil {
		if s.cfg.Policy == OneShot {
			// A one-shot policy abandons the task instead of parking it
			// for backoff: the cluster has room now or the work is dropped.
			s.met.placementGiveUps.Inc()
			s.finishTask(t, trace.EventKill)
			return
		}
		s.retryLater(t)
		return
	}
	s.placeOnMachine(t, m)
}

// pickMachine samples candidate machines and returns the best feasible one
// under the configured policy, or nil. This is the placement fast path:
// candidate feasibility and scoring read only O(1) machine aggregates.
func (s *Scheduler) pickMachine(t *Task) *cluster.Machine {
	ids := s.cell.MachineIDs()
	if len(ids) == 0 {
		return nil
	}
	first, end := s.scanPlan(len(ids))
	var best *cluster.Machine
	bestScore := math.Inf(1)
	for c := first; c < end; c++ {
		m := s.candidate(ids, c)
		if m == nil {
			continue
		}
		r := s.on(m.ID)
		if !m.FitsLimit(r.allocated, t.Request) {
			continue
		}
		// Usage-aware feasibility: do not stack onto a machine whose
		// sampled memory usage leaves no room — memory is a hard bound
		// and placing here would trigger OOM evictions next window.
		if r.usage.Mem+0.6*t.Request.Mem > m.Capacity.Mem {
			continue
		}
		if s.cfg.Policy == RandomFit {
			// First fit: the first feasible candidate wins outright.
			return m
		}
		if score := s.cfg.Policy.score(m.Capacity, r.allocated, t.Request, r.usage); score < bestScore {
			best, bestScore = m, score
		}
	}
	return best
}

// scanPlan returns the scan positions [first, end) of one placement
// attempt over a cell of n machines. A cell larger than the candidate
// sample is sampled with replacement: the positions are negative and
// each draws a machine. A cell no larger than the sample is scanned
// whole instead, each machine once from one random offset, so a lone fit
// is never missed: position c is machine c mod n (Config.CandidateSample
// says what that order favours).
func (s *Scheduler) scanPlan(n int) (first, end int) {
	if s.cfg.CandidateSample >= n {
		off := s.src.Intn(n)
		return off, off + n
	}
	return -s.cfg.CandidateSample, 0
}

// candidate returns the machine at scan position c (see scanPlan). It
// is kept out of the scan loops: inlined there, its draw spills
// registers in the preemption walk.
//
//go:noinline
func (s *Scheduler) candidate(ids []trace.MachineID, c int) *cluster.Machine {
	j := c
	if c < 0 {
		j = s.src.Intn(len(ids))
	} else if j >= len(ids) {
		j -= len(ids)
	}
	return s.cell.Machine(ids[j])
}

// placeOnMachine commits a placement and starts the task.
func (s *Scheduler) placeOnMachine(t *Task, m *cluster.Machine) {
	s.place(t, m.ID)
	s.met.tasksPlaced.Inc()
	s.startRunning(t)

	// A newly placed alloc instance becomes a reservation jobs can
	// schedule into.
	if t.Job.CollectionType == trace.CollectionAllocSet {
		ai := &AllocInstance{Key: t.Key(), Machine: m.ID, Reserved: t.Request}
		s.allocs[t.Job.ID] = append(s.allocs[t.Job.ID], ai)
	}
}

// placeInAlloc places a task inside the freest alloc instance of its
// job's target alloc set.
func (s *Scheduler) placeInAlloc(t *Task, now sim.Time) {
	instances := s.allocs[t.Job.AllocSet]
	var best *AllocInstance
	bestFree := -1.0
	for _, ai := range instances {
		free := ai.Free()
		if t.Request.CPU <= free.CPU+1e-12 && t.Request.Mem <= free.Mem+1e-12 {
			score := free.CPU + free.Mem
			if score > bestFree {
				best, bestFree = ai, score
			}
		}
	}
	if best == nil {
		// The alloc set is not (yet) placed or is full; retry later.
		s.retryLater(t)
		return
	}
	best.Used = best.Used.Add(t.Request)
	// Inner tasks consume the alloc set's reservation, not fresh machine
	// allocation, so they join the machine with a zero limit
	// (machineLimit).
	t.AllocInstance = best
	s.place(t, best.Machine)
	s.met.tasksPlaced.Inc()
	s.startRunning(t)
}

// tryPreemption finds a machine where evicting weaker residents makes room
// for t, performs the evictions, and returns the machine (§2: "Borg will
// evict lower-tier jobs in order to ensure production tier jobs receive
// their expected level of service"). Each candidate's victim list is
// built in the scheduler's scratch slices (preCand, and preBest for the
// best plan so far), so a scan allocates nothing once they have grown.
func (s *Scheduler) tryPreemption(t *Task) *cluster.Machine {
	ids := s.cell.MachineIDs()
	if len(ids) == 0 {
		return nil
	}
	first, end := s.scanPlan(len(ids))
	var best *cluster.Machine
	s.preBest = s.preBest[:0]
	for c := first; c < end; c++ {
		m := s.candidate(ids, c)
		if m == nil {
			continue
		}
		need := s.on(m.ID).allocated.Add(t.Request).Sub(m.Ceiling())
		if need.CPU <= 0 && need.Mem <= 0 {
			// Already fits; pickMachine should have found it, but the
			// random samples differ.
			return m
		}
		victims := s.preCand[:0]
		freed := trace.Resources{}
		// The scan only plans: victims are evicted after every candidate
		// has been read, so it walks the live list, weakest first.
		slots := s.on(m.ID).slots
		for i := range slots {
			if slots[i].priority > t.Job.Priority-preemptionPriorityGap {
				break
			}
			// Production never preempts production: eviction-rate SLOs
			// protect the tier (§5.2).
			vt := slots[i].Task
			if vt.Job.Tier == trace.TierProduction || vt.State != TaskRunning {
				continue
			}
			victims = append(victims, vt)
			freed = freed.Add(machineLimit(vt))
			if freed.CPU >= need.CPU && freed.Mem >= need.Mem {
				break
			}
		}
		s.preCand = victims
		if freed.CPU >= need.CPU && freed.Mem >= need.Mem && len(victims) > 0 {
			// Fewer victims wins; a tie keeps the earlier plan.
			if best == nil || len(victims) < len(s.preBest) {
				best = m
				s.preBest, s.preCand = s.preCand, s.preBest
			}
		}
	}
	if best == nil {
		return nil
	}
	// Evict never re-enters placement, so preBest is not reused while
	// this loop reads it.
	for _, v := range s.preBest {
		s.Evict(v)
		s.met.preemptions.Inc()
	}
	clear(s.preBest)
	if !best.FitsLimit(s.on(best.ID).allocated, t.Request) {
		return nil // eviction freed less than planned (racing state)
	}
	return best
}

// retryLater parks a task and re-enqueues it after the retry backoff.
// Unlike eviction, a feasibility retry is not a trace-visible resubmit.
func (s *Scheduler) retryLater(t *Task) {
	s.met.placementRetries.Inc()
	t.State = TaskWaiting
	s.accountBEB(t)
	t.event = s.k.After(retryBackoff, (*taskRetry)(t))
}

// removeAllocInstance drops an alloc instance, found by its key, from its
// set. The tasks running inside lose their reservation: if the alloc set
// is terminating, their jobs are killed outright (they would be killed by
// the teardown moments later anyway — an EVICT first would misattribute
// infrastructure evictions to them); if the instance was merely evicted,
// they are displaced and rescheduled.
func (s *Scheduler) removeAllocInstance(key trace.InstanceKey, terminal bool) {
	set := s.allocs[key.Collection]
	i := slices.IndexFunc(set, func(ai *AllocInstance) bool { return ai.Key == key })
	if i < 0 {
		return
	}
	ai := set[i]
	s.allocs[key.Collection] = slices.Delete(set, i, i+1)
	// The hosted tasks are the residents of the instance's machine that
	// point at it, taken in key order.
	var hosted []*Task
	for _, sl := range s.on(ai.Machine).slots {
		if sl.Task.AllocInstance == ai {
			hosted = append(hosted, sl.Task)
		}
	}
	sortTasks(hosted)
	for _, t := range hosted {
		if terminal {
			if t.Job.State != JobDone {
				s.KillJob(t.Job, trace.EventKill)
			}
		} else if t.State == TaskRunning {
			s.Evict(t)
		}
	}
}

// sortTasks orders tasks by key for deterministic iteration.
func sortTasks(ts []*Task) {
	slices.SortFunc(ts, func(a, b *Task) int {
		if c := cmp.Compare(a.Job.ID, b.Job.ID); c != 0 {
			return c
		}
		return cmp.Compare(a.index, b.index)
	})
}
