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
	if t.Job.Type == trace.CollectionJob && t.Job.AllocSet != 0 {
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
		if m == nil || !m.FitsLimit(t.Request) {
			continue
		}
		// Usage-aware feasibility: do not stack onto a machine whose
		// sampled memory usage leaves no room — memory is a hard bound
		// and placing here would trigger OOM evictions next window.
		usage := m.UsageTotal()
		if usage.Mem+0.6*t.Request.Mem > m.Capacity.Mem {
			continue
		}
		if s.cfg.Policy == RandomFit {
			// First fit: the first feasible candidate wins outright, with
			// no class interning and no score cache.
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

// cachedScore returns the policy's score(m, req, usage) through the
// equivalence-class cache, and whether the slot hit: a slot whose class
// and machine generation both match is exact memoization (see
// scoreSlot) and skips recomputation — valid because score is
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
	sc := s.cfg.Policy.score(m, t.Request, usage)
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
// record must already be detached from its machine. EvictMachine's copy
// of the machine's residents may still reference it until that walk
// ends, so the record is zeroed here: a later read of it finds no task
// and skips it, rather than aliasing whatever task reuses the record
// next.
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
		ai := &AllocInstance{Key: t.Key, Machine: m.ID, Reserved: t.Request}
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
// their expected level of service"). Each candidate's victim list is
// built in the scheduler's scratch slices (preCand, and preBest for the
// best plan so far), so a scan allocates nothing once they have grown.
func (s *Scheduler) tryPreemption(t *Task) *cluster.Machine {
	ids := s.cell.MachineIDs()
	if len(ids) == 0 {
		return nil
	}
	k := s.cfg.CandidateSample
	if k > len(ids) {
		k = len(ids)
	}
	var best *cluster.Machine
	s.preBest = s.preBest[:0]
	for i := 0; i < k; i++ {
		m := s.cell.Machine(ids[s.src.Intn(len(ids))])
		if m == nil {
			continue
		}
		need := m.Allocated().Add(t.Request).Sub(m.Ceiling())
		if need.CPU <= 0 && need.Mem <= 0 {
			// Already fits; pickMachine should have found it, but the
			// random samples differ.
			return m
		}
		victims := s.preCand[:0]
		freed := trace.Resources{}
		// The scan only plans: victims are evicted after every candidate
		// has been read, so it walks the live list, weakest first.
		for _, r := range m.LiveResidents() {
			if r.Priority > t.Job.Priority-preemptionPriorityGap {
				break
			}
			// Production never preempts production: eviction-rate SLOs
			// protect the tier (§5.2).
			if r.Tier == trace.TierProduction {
				continue
			}
			vt, _ := r.Task.(*Task)
			if vt == nil || vt.State != TaskRunning {
				continue
			}
			victims = append(victims, vt)
			freed = freed.Add(r.Limit)
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
	if !best.FitsLimit(t.Request) {
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
	t.retryEvent = s.k.After(retryBackoff, (*taskRetry)(t))
}

// allocIndex returns the position of the live alloc instance key in its
// set's instance list, or -1.
func (s *Scheduler) allocIndex(key trace.InstanceKey) int {
	return slices.IndexFunc(s.allocs[key.Collection], func(ai *AllocInstance) bool { return ai.Key == key })
}

// removeAllocInstance drops an alloc instance from its set. The tasks
// running inside lose their reservation: if the alloc set is
// terminating, their jobs are killed outright (they would be killed by the
// teardown moments later anyway — an EVICT first would misattribute
// infrastructure evictions to them); if the instance was merely evicted,
// they are displaced and rescheduled.
func (s *Scheduler) removeAllocInstance(key trace.InstanceKey, terminal bool) {
	i := s.allocIndex(key)
	if i < 0 {
		return
	}
	ai := s.allocs[key.Collection][i]
	s.allocs[key.Collection] = slices.Delete(s.allocs[key.Collection], i, i+1)
	// The hosted tasks are the residents of the instance's machine that
	// name it, taken in key order.
	var hosted []*Task
	for _, r := range s.cell.Machine(ai.Machine).LiveResidents() {
		if t, _ := r.Task.(*Task); t != nil && t.AllocInstance == key {
			hosted = append(hosted, t)
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
		if c := cmp.Compare(a.Key.Collection, b.Key.Collection); c != 0 {
			return c
		}
		return cmp.Compare(a.Key.Index, b.Key.Index)
	})
}
