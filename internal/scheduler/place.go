package scheduler

import (
	"math"
	"sort"

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
	if t.Job.Type == trace.CollectionJob && t.Job.AllocSet != 0 {
		s.placeInAlloc(t, now)
		return
	}

	m := s.pickMachine(t)
	if m == nil && s.cfg.EnablePreemption && t.Job.Tier == trace.TierProduction {
		m = s.tryPreemption(t)
	}
	if m == nil {
		if !s.policy.RetryOnFailure() {
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
// candidate feasibility and scoring read only O(1) machine aggregates,
// and scores memoize per equivalence class. The RNG draw sequence is
// identical whether or not the cache hits, so caching cannot perturb the
// deterministic trace.
func (s *Scheduler) pickMachine(t *Task) *cluster.Machine {
	ids := s.cell.MachineIDs()
	if len(ids) == 0 {
		return nil
	}
	k := s.cfg.CandidateSample
	if k > len(ids) {
		k = len(ids)
	}
	var class uint32 // interned lazily: RandomFit never needs it
	var best *cluster.Machine
	bestScore := math.Inf(1)
	// Cache hits/misses accumulate locally and post to the atomic
	// counters once per pick, not once per candidate, so instrumentation
	// adds O(1) atomics to the fast path.
	var hits, misses int64
	for i := 0; i < k; i++ {
		m := s.cell.Machine(ids[s.src.Intn(len(ids))])
		if m == nil || !m.FitsLimit(t.Request, s.cfg.Overcommit) {
			continue
		}
		// Usage-aware feasibility: do not stack onto a machine whose
		// sampled memory usage leaves no room — memory is a hard bound
		// and placing here would trigger OOM evictions next window.
		usage := m.UsageTotal()
		if usage.Mem+0.6*t.Request.Mem > m.Capacity.Mem {
			continue
		}
		if s.policy.FirstFit() {
			return m
		}
		if class == 0 {
			class = s.classID(t)
		}
		score, hit := s.cachedScore(m, t, usage, class)
		if hit {
			hits++
		} else {
			misses++
		}
		if score < bestScore {
			best, bestScore = m, score
		}
	}
	if hits != 0 {
		s.met.scoreCacheHits.Add(hits)
	}
	if misses != 0 {
		s.met.scoreCacheMisses.Add(misses)
	}
	return best
}

// cachedScore returns the policy's Score(m, req, usage) through the
// equivalence-class cache, and whether the slot hit: a slot whose class
// and machine generation both match is exact memoization (see
// scoreSlot) and skips recomputation — valid because Policy.Score is
// contractually a pure function of state covered by (class, m.Gen()).
// The probe is a bare array index — no hashing on the per-candidate
// path; the caller batches hit/miss counts into the metrics counters.
func (s *Scheduler) cachedScore(m *cluster.Machine, t *Task, usage trace.Resources, class uint32) (float64, bool) {
	i := int(m.ID)
	if i >= len(s.scoreSlots) {
		grown := make([]scoreSlot, i+1)
		copy(grown, s.scoreSlots)
		s.scoreSlots = grown
	}
	slot := &s.scoreSlots[i]
	if slot.class == class && slot.gen == m.Gen() {
		return slot.score, true
	}
	sc := s.policy.Score(m, t.Request, usage)
	*slot = scoreSlot{class: class, gen: m.Gen(), score: sc}
	return sc, false
}

// takeResident returns a Resident record for a placement, recycling one
// from the pool when possible so steady-state placement does not allocate.
func (s *Scheduler) takeResident(key trace.InstanceKey, limit trace.Resources, priority int, tier trace.Tier) *cluster.Resident {
	if n := len(s.residentPool); n > 0 {
		r := s.residentPool[n-1]
		s.residentPool = s.residentPool[:n-1]
		*r = cluster.Resident{Key: key, Limit: limit, Priority: priority, Tier: tier}
		return r
	}
	return &cluster.Resident{Key: key, Limit: limit, Priority: priority, Tier: tier}
}

// releaseResident returns an unplaced Resident record to the pool. The
// record must already be detached from its machine; a stale victim-order
// snapshot may still reference it until the snapshot holder's current
// scheduling event completes, so the record is zeroed here — any such
// latent read then resolves to a non-existent instance (a loud no-op)
// rather than silently aliasing whatever task reuses the record next.
func (s *Scheduler) releaseResident(r *cluster.Resident) {
	if r != nil {
		*r = cluster.Resident{}
		s.residentPool = append(s.residentPool, r)
	}
}

// placeOnMachine commits a placement and starts the task.
func (s *Scheduler) placeOnMachine(t *Task, m *cluster.Machine) {
	limit := t.Request
	res := s.takeResident(t.Key, limit, t.Job.Priority, t.Job.Tier)
	// The resident carries the task pointer so the usage sampler reads
	// residents straight into tasks with no key lookup; recycling the
	// record (releaseResident) clears it.
	res.Task = t
	s.cell.Place(m.ID, res)
	s.met.tasksPlaced.Inc()
	s.startRunning(t, m.ID)

	// A newly placed alloc instance becomes a reservation jobs can
	// schedule into.
	if t.Job.Type == trace.CollectionAllocSet {
		ai := &AllocInstance{
			Key:      t.Key,
			Machine:  m.ID,
			Reserved: t.Request,
			tasks:    make(map[trace.InstanceKey]*Task),
			slot:     len(s.allocs[t.Job.ID]),
		}
		s.allocs[t.Job.ID] = append(s.allocs[t.Job.ID], ai)
		s.allocByKey[ai.Key] = ai
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
	best.tasks[t.Key] = t
	t.AllocInstance = best.Key
	// Inner tasks consume the alloc set's reservation, not fresh machine
	// allocation, so they join the machine with a zero limit.
	res := s.takeResident(t.Key, trace.Resources{}, t.Job.Priority, t.Job.Tier)
	res.Task = t
	s.cell.Place(best.Machine, res)
	s.met.tasksPlaced.Inc()
	s.startRunning(t, best.Machine)
}

// tryPreemption finds a machine where evicting weaker residents makes room
// for t, performs the evictions, and returns the machine (§2: "Borg will
// evict lower-tier jobs in order to ensure production tier jobs receive
// their expected level of service").
func (s *Scheduler) tryPreemption(t *Task) *cluster.Machine {
	ids := s.cell.MachineIDs()
	if len(ids) == 0 {
		return nil
	}
	k := s.cfg.CandidateSample
	if k > len(ids) {
		k = len(ids)
	}
	type plan struct {
		m       *cluster.Machine
		victims []*Task
		freed   trace.Resources
	}
	var best *plan
	for i := 0; i < k; i++ {
		m := s.cell.Machine(ids[s.src.Intn(len(ids))])
		if m == nil {
			continue
		}
		ceiling := m.Ceiling(s.cfg.Overcommit)
		need := m.Allocated().Add(t.Request).Sub(ceiling)
		if need.CPU <= 0 && need.Mem <= 0 {
			// Already fits; pickMachine should have found it, but the
			// random samples differ.
			return m
		}
		var victims []*Task
		freed := trace.Resources{}
		for _, r := range m.Residents() { // weakest first
			if r.Priority > t.Job.Priority-preemptionPriorityGap {
				break
			}
			// Production never preempts production: eviction-rate SLOs
			// protect the tier (§5.2).
			if r.Tier == trace.TierProduction {
				continue
			}
			vt := s.taskByKey(r.Key)
			if vt == nil || vt.State != TaskRunning {
				continue
			}
			victims = append(victims, vt)
			freed = freed.Add(r.Limit)
			if freed.CPU >= need.CPU && freed.Mem >= need.Mem {
				break
			}
		}
		if freed.CPU >= need.CPU && freed.Mem >= need.Mem && len(victims) > 0 {
			if best == nil || s.policy.PreferPlan(len(victims), freed, len(best.victims), best.freed) {
				best = &plan{m: m, victims: victims, freed: freed}
			}
		}
	}
	if best == nil {
		return nil
	}
	for _, v := range best.victims {
		s.Evict(v)
		s.met.preemptions.Inc()
	}
	if !best.m.FitsLimit(t.Request, s.cfg.Overcommit) {
		return nil // eviction freed less than planned (racing state)
	}
	return best.m
}

// retryLater parks a task and re-enqueues it after the retry backoff.
// Unlike eviction, a feasibility retry is not a trace-visible resubmit.
func (s *Scheduler) retryLater(t *Task) {
	s.met.placementRetries.Inc()
	t.State = TaskWaiting
	s.accountBEB(t)
	t.retryEvent = s.k.After(s.cfg.RetryBackoff, s.retryFn(t))
}

// retryFn returns the task's cached re-enqueue callback, shared by
// feasibility retries and post-eviction requeues (the guard conditions
// are identical) so neither path allocates a closure per attempt.
func (s *Scheduler) retryFn(t *Task) func(sim.Time) {
	if t.retryFn == nil {
		t.retryFn = func(sim.Time) {
			t.retryEvent = sim.EventRef{}
			if t.Job.State == JobDone || t.State != TaskWaiting {
				return
			}
			s.enqueue(t)
		}
	}
	return t.retryFn
}

// findAllocInstance resolves an alloc-instance key to its live record.
func (s *Scheduler) findAllocInstance(key trace.InstanceKey) *AllocInstance {
	return s.allocByKey[key]
}

// removeAllocInstance drops an alloc instance from the registry. The
// tasks running inside lose their reservation: if the alloc set is
// terminating, their jobs are killed outright (they would be killed by the
// teardown moments later anyway — an EVICT first would misattribute
// infrastructure evictions to them); if the instance was merely evicted,
// they are displaced and rescheduled.
func (s *Scheduler) removeAllocInstance(key trace.InstanceKey, terminal bool) {
	ai := s.allocByKey[key]
	if ai == nil {
		return
	}
	delete(s.allocByKey, key)
	instances := s.allocs[key.Collection]
	// Close the slot and renumber the shifted tail (the shift itself is
	// already O(tail); renumbering adds no asymptotic cost).
	i := ai.slot
	s.allocs[key.Collection] = append(instances[:i], instances[i+1:]...)
	for j := i; j < len(s.allocs[key.Collection]); j++ {
		s.allocs[key.Collection][j].slot = j
	}
	inner := make([]*Task, 0, len(ai.tasks))
	for _, t := range ai.tasks {
		inner = append(inner, t)
	}
	sortTasks(inner)
	for _, t := range inner {
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
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Key.Collection != ts[j].Key.Collection {
			return ts[i].Key.Collection < ts[j].Key.Collection
		}
		return ts[i].Key.Index < ts[j].Key.Index
	})
}

// teardownAllocSet kills the jobs targeting a terminated alloc set —
// running or still pending — and forgets its reservations.
func (s *Scheduler) teardownAllocSet(j *Job) {
	for _, inner := range s.allocJobs[j.ID] {
		if inner.State != JobDone {
			s.KillJob(inner, trace.EventKill)
		}
	}
	delete(s.allocJobs, j.ID)
	for _, ai := range s.allocs[j.ID] {
		delete(s.allocByKey, ai.Key)
	}
	delete(s.allocs, j.ID)
}
