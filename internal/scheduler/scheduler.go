// Package scheduler implements the Borg cluster scheduler reproduced by
// the paper: tiered priority scheduling with preemption (§2), limit-based
// admission with resource overcommit (§4), alloc sets (§5.1), job
// parent→child kill propagation (§5.2), an Omega-style batch-queue
// front-end for the best-effort batch tier (§3), and rescheduling of
// evicted and failed tasks (the churn of §6.2).
//
// The scheduler runs inside a discrete-event kernel and emits trace rows
// through a trace.Sink, so a simulated month of cell operation produces a
// trace with the same causal structure as the published one.
package scheduler

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config parameterizes the scheduler.
type Config struct {
	// Policy selects the placement brain (see policy.go).
	Policy PlacementPolicy
	// CandidateSample is how many machines a placement attempt examines
	// (power-of-k-choices sampling, as production schedulers do to bound
	// scan cost).
	CandidateSample int
	// ServiceTime is the simulated time one placement attempt occupies
	// the scheduler, in seconds. Scheduling delay distributions
	// (Figure 10) emerge from this service process and the arrival burst
	// structure.
	ServiceTime dist.Sampler
	// Batch enables the batch-queue front-end that holds best-effort
	// batch jobs until the cell can handle them (§3).
	Batch bool
	// BatchAllocCeiling is the fraction of cell CPU capacity the
	// best-effort batch tier may have allocated before further jobs are
	// held in the queue.
	BatchAllocCeiling float64
	// Metrics receives the scheduler's activity counters (the sched_*
	// instruments; see newSchedInstruments for the catalogue). Nil gets a
	// private registry, so counting is unconditional and Stats always
	// works. Instruments observe only — they consume no randomness and
	// cannot change a single trace byte (the metrics package contract).
	Metrics *metrics.Registry
}

const (
	// retryBackoff delays re-attempts for tasks that found no feasible
	// machine.
	retryBackoff = 30 * sim.Second
	// evictionRestartDelay is how long an evicted task waits before
	// re-entering the pending queue ("in almost all cases, an evicted
	// instance will be rescheduled elsewhere in the same cell", §5.2).
	evictionRestartDelay = 15 * sim.Second
	// failRestartDelay is how long a crashed task waits before its next
	// attempt.
	failRestartDelay = 10 * sim.Second
	// batchCheckPeriod is how often the batch admission controller runs.
	batchCheckPeriod = 20 * sim.Second
	// batchMaxAdmitPerCheck caps admissions per controller run; the queue
	// drains in bursts, which lengthens the beb-tier delay tail
	// (Figure 10b).
	batchMaxAdmitPerCheck = 8
	// preemptionPriorityGap is the minimum priority advantage a task
	// needs over a victim.
	preemptionPriorityGap = 10
	// prodEvictionSLO is the probability a production-tier task is
	// actually evicted during machine maintenance. Borg's eviction-rate
	// SLOs protect important collections (§5.2: <0.2% of prod
	// collections see any eviction), modeled as sparing prod residents
	// with high probability (they are migrated gracefully instead).
	prodEvictionSLO = 0.08
)

// DefaultConfig returns a 2019-profile scheduler configuration. core.Run
// starts from it and overrides the fields a cell profile sets.
func DefaultConfig() Config {
	return Config{
		Policy:            LeastAllocated,
		CandidateSample:   16,
		ServiceTime:       dist.LogNormalFromMedian(0.06, 0.9),
		Batch:             true,
		BatchAllocCeiling: 0.85,
	}
}

// Outcome is a job's scripted final state, decided by the workload model.
type Outcome int

// Outcomes.
const (
	OutcomeFinish Outcome = iota // completes normally
	OutcomeKill                  // canceled by the user (or a parent exit)
	OutcomeFail                  // dies of its own bug
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeFinish:
		return "finish"
	case OutcomeKill:
		return "kill"
	case OutcomeFail:
		return "fail"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// TaskState is a task's position in its lifecycle. It is a byte so it
// packs beside Task's other small fields.
type TaskState uint8

// Task states.
const (
	TaskPending TaskState = iota // awaiting placement
	TaskWaiting                  // backoff or restart delay
	TaskRunning                  // placed on a machine
	TaskDead                     // terminal
)

// Task is one replica of a job (or one alloc instance of an alloc set).
// Its size is what a job's task array allocates per task, so the small
// fields are grouped to share words: 176 bytes, within the 192-byte size
// class that TestTaskSize pins. The task's kernel events carry the task
// itself as their receiver (taskEnd, taskRetry), so no callback is
// stored here.
type Task struct {
	Key     trace.InstanceKey
	Job     *Job
	Request trace.Resources

	// Duration is the total running time the task needs to complete.
	// Restarts split it into equal segments separated by FAIL events.
	Duration sim.Time
	// Restarts is the number of scripted crash-restarts remaining.
	Restarts int

	// Usage model parameters, consumed by the simulation's sampling loop:
	// mean absolute usage in NCU/NMU (independent of the limit, so
	// Autopilot limit changes alter slack, not consumption), and the
	// peak-to-mean factor within a sampling window.
	MeanCPU  float64
	MeanMem  float64
	PeakFact float64

	State TaskState
	// bebCounted/bebCountedCPU track this task's contribution to the
	// scheduler's incremental beb CPU sum: the recorded amount — not the
	// live Request — is what removal subtracts, so even a request write
	// that bypasses UpdateTaskRequest can only make the sum stale until
	// the task's next transition, never permanently drift it.
	bebCounted bool
	Machine    trace.MachineID
	// classID caches the task's interned scoring class (see
	// Scheduler.classID), valid while it was issued in the intern table's
	// current epoch; UpdateTaskRequest clears it, so every request write
	// must go through that setter.
	classID  uint32
	oomFails int32 // times killed for exceeding its own memory limit
	// AllocInstance hosts this task when the job targets an alloc set.
	AllocInstance trace.InstanceKey

	remaining     sim.Time
	segment       sim.Time // remaining time in the current segment plan
	runStart      sim.Time
	endEvent      sim.EventRef
	retryEvent    sim.EventRef
	bebCountedCPU float64
	// Autoscale is an opaque owner cookie, like cluster.Resident.Task: the
	// autopilot hangs the task's usage window here so per-window
	// observation needs no key-to-window map. The scheduler never reads it.
	Autoscale any
}

// taskEnd is the kernel event that ends a task's running segment, and
// taskRetry the one that re-enqueues a waiting task. Both are the task
// itself under another method set, so scheduling either boxes a pointer
// the task already is: no closure, no allocation.
type (
	taskEnd   Task
	taskRetry Task
)

// Fire ends the task's current segment.
func (e *taskEnd) Fire(sim.Time) {
	t := (*Task)(e)
	t.Job.sched.segmentEnd(t)
}

// Fire re-enqueues the task after a feasibility retry or a post-eviction
// restart delay (the guard conditions are identical).
func (e *taskRetry) Fire(sim.Time) {
	t := (*Task)(e)
	t.retryEvent = sim.EventRef{}
	if t.Job.State == JobDone || t.State != TaskWaiting {
		return
	}
	t.Job.sched.enqueue(t)
}

// JobState is a job's position in its lifecycle.
type JobState int

// Job states.
const (
	JobSubmitted JobState = iota
	JobQueued             // held by the batch scheduler
	JobReady              // eligible for placement
	JobDone
)

// Job is a collection: a job proper or an alloc set.
type Job struct {
	ID        trace.CollectionID
	Type      trace.CollectionType
	Priority  int
	Tier      trace.Tier
	User      string
	Parent    trace.CollectionID
	AllocSet  trace.CollectionID // target alloc set for task placement
	Scheduler trace.SchedulerKind
	Scaling   trace.VerticalScaling

	// Outcome scripts how the job ends if it runs to completion;
	// KillAfter > 0 schedules a user-initiated kill that long after
	// submission (before natural completion, it wins).
	Outcome   Outcome
	KillAfter sim.Time

	Tasks []*Task

	State      JobState
	SubmitTime sim.Time
	ReadyTime  sim.Time
	// FirstRun is when the first task started running (scheduling delay
	// measurement, Figure 10); -1 until then.
	FirstRun  sim.Time
	FinalType trace.EventType // termination event emitted, EventSubmit if still open

	liveTasks int
	killEvent sim.EventRef
	// sched is the scheduler the job was submitted to, which its tasks'
	// kernel events and its kill event call back into.
	sched *Scheduler
}

// jobKill is the kernel event of a job's scripted user kill.
type jobKill Job

// Fire kills the job.
func (e *jobKill) Fire(sim.Time) {
	j := (*Job)(e)
	j.sched.KillJob(j, trace.EventKill)
}

// NewJob constructs a job with sensible zero-state bookkeeping.
func NewJob(id trace.CollectionID) *Job {
	return &Job{ID: id, FirstRun: -1}
}

// AddTask appends a task to the job, assigning the next instance index.
func (j *Job) AddTask(t *Task) {
	t.Key = trace.InstanceKey{Collection: j.ID, Index: int32(len(j.Tasks))}
	t.Job = j
	j.Tasks = append(j.Tasks, t)
}

// SetTasks makes tasks the job's tasks, numbered in order. The job keeps
// pointers into the one array and sizes Tasks once, so a job costs the
// same three allocations (Job, task array, Tasks) however many tasks it
// has; the workload generator and the replayer build jobs this way.
func (j *Job) SetTasks(tasks []Task) {
	j.Tasks = make([]*Task, len(tasks))
	for i := range tasks {
		t := &tasks[i]
		t.Key = trace.InstanceKey{Collection: j.ID, Index: int32(i)}
		t.Job = j
		j.Tasks[i] = t
	}
}

// Stats is a point-in-time snapshot of scheduler activity for logs and
// ablation benches, read off the scheduler's registry-backed counters
// (see schedInstruments) plus the batch queue's current length.
type Stats struct {
	JobsSubmitted    int
	TasksPlaced      int
	PlacementRetries int
	// PlacementGiveUps counts tasks abandoned by the no-retry OneShot
	// policy after finding no feasible machine.
	PlacementGiveUps    int
	Preemptions         int
	OOMEvictions        int // aggregate-overcommit evictions (EVICT)
	OOMKills            int // over-own-limit kills (FAIL, §5.2's "fail")
	MachineEvictions    int
	BatchAdmitted       int
	BatchQueuedNow      int
	TasksFailedRestarts int
	// ScoreCacheHits/Misses count equivalence-class score lookups served
	// from cache versus recomputed (placement fast path telemetry).
	ScoreCacheHits   int
	ScoreCacheMisses int
}

// schedInstruments binds the scheduler's activity counters to a metrics
// registry once at construction, so every increment site is a bare
// atomic add with no name lookup. Counters are the only instrument kind
// here: the placement fast path must stay allocation-free and lock-free
// (histograms take a mutex), so distributional views (queue depth over
// sim-time) are sampled by the usage pipeline's periodic tick instead.
type schedInstruments struct {
	jobsSubmitted       *metrics.Counter // sched_jobs_submitted_total
	tasksPlaced         *metrics.Counter // sched_tasks_placed_total
	placementAttempts   *metrics.Counter // sched_placement_attempts_total
	placementRetries    *metrics.Counter // sched_placement_retries_total
	placementGiveUps    *metrics.Counter // sched_placement_giveups_total
	preemptions         *metrics.Counter // sched_preemptions_total
	oomEvictions        *metrics.Counter // sched_oom_evictions_total
	oomKills            *metrics.Counter // sched_oom_kills_total
	machineEvictions    *metrics.Counter // sched_machine_evictions_total
	batchAdmitted       *metrics.Counter // sched_batch_admitted_total
	tasksFailedRestarts *metrics.Counter // sched_task_failed_restarts_total
	scoreCacheHits      *metrics.Counter // sched_score_cache_hits_total
	scoreCacheMisses    *metrics.Counter // sched_score_cache_misses_total
	pendingQueue        *metrics.Gauge   // sched_pending_queue (QueueDepth)
}

func newSchedInstruments(reg *metrics.Registry) schedInstruments {
	return schedInstruments{
		jobsSubmitted:       reg.Counter("sched_jobs_submitted_total"),
		tasksPlaced:         reg.Counter("sched_tasks_placed_total"),
		placementAttempts:   reg.Counter("sched_placement_attempts_total"),
		placementRetries:    reg.Counter("sched_placement_retries_total"),
		placementGiveUps:    reg.Counter("sched_placement_giveups_total"),
		preemptions:         reg.Counter("sched_preemptions_total"),
		oomEvictions:        reg.Counter("sched_oom_evictions_total"),
		oomKills:            reg.Counter("sched_oom_kills_total"),
		machineEvictions:    reg.Counter("sched_machine_evictions_total"),
		batchAdmitted:       reg.Counter("sched_batch_admitted_total"),
		tasksFailedRestarts: reg.Counter("sched_task_failed_restarts_total"),
		scoreCacheHits:      reg.Counter("sched_score_cache_hits_total"),
		scoreCacheMisses:    reg.Counter("sched_score_cache_misses_total"),
		pendingQueue:        reg.Gauge("sched_pending_queue"),
	}
}

// AllocInstance is a reserved slot of an alloc set placed on a machine;
// jobs targeting the alloc set place tasks inside these reservations.
type AllocInstance struct {
	Key      trace.InstanceKey
	Machine  trace.MachineID
	Reserved trace.Resources
	Used     trace.Resources
}

// eqClass is the equivalence-class key for placement scoring: tasks with
// the same request shape, tier and priority band rank machines
// identically, so their machine scores share cache entries (the 2015-era
// Borg fast path the paper credits for scheduler throughput).
type eqClass struct {
	req  trace.Resources
	tier trace.Tier
	band int
}

// scoreSlot is one machine's memoized score for the equivalence class
// that last scored it, valid while the machine's generation is unchanged.
// Every input of score() is covered by the generation (allocation, usage,
// limits) or by the class (request shape), so a valid slot is
// bit-identical to recomputation — the cache can never change placement
// behavior, only skip work. One slot per machine suffices because the
// pending queue serves a job's identically-shaped tasks back to back.
type scoreSlot struct {
	class uint32
	gen   uint64
	score float64
}

// maxClassIDs bounds the class-interning table; crossing it clears the
// table wholesale. IDs keep monotonically increasing across clears, so a
// re-interned class can never alias a stale score slot. Autopilot resizes
// give most tasks a shape of their own after a few windows, so most
// interned classes stop being held by any task soon after. A bound of
// 1,024 keeps the table small and its buckets reused, at a near-identical
// hit rate: 0.4779 against 0.4780 with 65,536 entries, for
// borgexperiments at default scale and seed 1.
const maxClassIDs = 1 << 10

// classID interns a task's scoring equivalence class to a small integer,
// so the per-candidate cache probe is an array index instead of a struct
// hash. Priority bands of ten keep the class count small; priority does
// not feed the score itself, so band width only shifts hit rates. The ID
// is cached on the task: while its request is unchanged (UpdateTaskRequest
// clears the cache) and the table has not been cleared since, the table
// would return the same ID, so the cache skips the hash without changing
// any returned ID.
func (s *Scheduler) classID(t *Task) uint32 {
	if t.classID > s.classEpoch {
		return t.classID
	}
	c := eqClass{req: t.Request, tier: t.Job.Tier, band: t.Job.Priority / 10}
	id, ok := s.classIDs[c]
	if !ok {
		if len(s.classIDs) >= maxClassIDs {
			s.clearClassIDs()
		}
		s.nextClassID++
		id = s.nextClassID
		s.classIDs[c] = id
	}
	t.classID = id
	return id
}

// clearClassIDs empties the class-interning table and starts a new
// epoch, which invalidates every task's cached class ID: IDs only grow,
// so the epoch is the last ID issued before the clear.
func (s *Scheduler) clearClassIDs() {
	clear(s.classIDs)
	s.classEpoch = s.nextClassID
}

// Free returns the unused reservation.
func (a *AllocInstance) Free() trace.Resources { return a.Reserved.Sub(a.Used) }

// Scheduler is the cell scheduler.
type Scheduler struct {
	cfg  Config
	cell *cluster.Cell
	k    *sim.Kernel
	sink trace.Sink
	src  *rng.Source

	pending pendingQueue
	busy    bool
	// serveEv is serve bound once, so each service event reuses it.
	serveEv sim.Func

	// jobs holds the live jobs: submitted and not yet terminated. It is
	// the only job registry: a job's live children and an alloc set's
	// live inner jobs are found by scanning it (see dependents).
	jobs map[trace.CollectionID]*Job
	// allocs holds each alloc set's placed instances in placement order,
	// the only record of them; the tasks an instance hosts are the
	// residents of its machine that name it.
	allocs map[trace.CollectionID][]*AllocInstance

	// scoreSlots memoizes placement scores per machine (indexed by
	// machine ID) for the last equivalence class that scored the machine,
	// invalidated by machine generation counters.
	scoreSlots  []scoreSlot
	classIDs    map[eqClass]uint32
	nextClassID uint32
	classEpoch  uint32 // IDs above it were issued since the last clear
	// residentPool recycles Resident records between placements so the
	// steady-state place/unplace cycle does not allocate.
	residentPool []*cluster.Resident
	// preBest and preCand are tryPreemption's victim lists: the best
	// plan so far and the candidate being scanned.
	preBest, preCand []*Task
	// evicting is EvictMachine's copy of a machine's residents, which
	// the evictions it makes would otherwise shift under it.
	evicting []*cluster.Resident

	batchQueue []*Job

	// bebAllocCPU is the incrementally maintained sum of CPU requests of
	// best-effort-batch tasks that are pending or running in admitted
	// jobs — the numerator of bebAllocatedFraction. Maintained at every
	// task/job state transition and request update instead of walking all
	// jobs each admission check.
	bebAllocCPU float64

	met schedInstruments

	// UnplaceHook, when set, is invoked just before a running task
	// leaves its machine, with the time it started running. The usage
	// sampler uses it to emit partial-window usage records so that
	// short-lived tasks (most of the workload's "mice") appear in the
	// usage table.
	UnplaceHook func(t *Task, runStart sim.Time)
}

// New constructs a scheduler bound to a cell, kernel and sink.
func New(cfg Config, cell *cluster.Cell, k *sim.Kernel, sink trace.Sink, src *rng.Source) *Scheduler {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Scheduler{
		cfg:      cfg,
		cell:     cell,
		k:        k,
		sink:     sink,
		src:      src,
		jobs:     make(map[trace.CollectionID]*Job),
		allocs:   make(map[trace.CollectionID][]*AllocInstance),
		classIDs: make(map[eqClass]uint32),
		met:      newSchedInstruments(reg),
	}
	s.serveEv = s.serve
	if cfg.Batch {
		k.Every(batchCheckPeriod, batchCheckPeriod, 0, func(sim.Time) {
			s.batchAdmissionCheck()
		})
	}
	return s
}

// Stats returns a snapshot of activity counters, read from the
// registry-backed instruments.
func (s *Scheduler) Stats() Stats {
	return Stats{
		JobsSubmitted:       int(s.met.jobsSubmitted.Value()),
		TasksPlaced:         int(s.met.tasksPlaced.Value()),
		PlacementRetries:    int(s.met.placementRetries.Value()),
		PlacementGiveUps:    int(s.met.placementGiveUps.Value()),
		Preemptions:         int(s.met.preemptions.Value()),
		OOMEvictions:        int(s.met.oomEvictions.Value()),
		OOMKills:            int(s.met.oomKills.Value()),
		MachineEvictions:    int(s.met.machineEvictions.Value()),
		BatchAdmitted:       int(s.met.batchAdmitted.Value()),
		BatchQueuedNow:      len(s.batchQueue),
		TasksFailedRestarts: int(s.met.tasksFailedRestarts.Value()),
		ScoreCacheHits:      int(s.met.scoreCacheHits.Value()),
		ScoreCacheMisses:    int(s.met.scoreCacheMisses.Value()),
	}
}

// QueueDepth returns the pending-queue length: tasks waiting for
// placement plus withdrawn (killed) tasks that are still queued because
// the scheduler drops them only when it pops them. The usage pipeline's
// sampling tick observes it into the sched_queue_depth histogram so the
// queue's sim-time distribution is visible without touching the
// placement fast path.
func (s *Scheduler) QueueDepth() int { return s.pending.Len() }

// accountBEB reconciles one task's contribution to the incremental
// best-effort-batch allocated-CPU sum with its current state: a task
// counts while it is pending or running inside a job that is neither
// done nor still held in the batch queue (the same predicate the
// admission controller's recomputed walk used). Idempotent — callers
// invoke it after any transition that might change eligibility.
func (s *Scheduler) accountBEB(t *Task) {
	if t.Job.Tier != trace.TierBestEffortBatch {
		return
	}
	want := (t.State == TaskPending || t.State == TaskRunning) &&
		t.Job.State != JobDone && t.Job.State != JobQueued
	if want == t.bebCounted {
		return
	}
	if want {
		t.bebCountedCPU = t.Request.CPU
		s.bebAllocCPU += t.bebCountedCPU
	} else {
		s.bebAllocCPU -= t.bebCountedCPU
		t.bebCountedCPU = 0
	}
	t.bebCounted = want
}

// accountBEBJob reconciles every task of a job after a job-level state
// change (queued → ready, ready → done).
func (s *Scheduler) accountBEBJob(j *Job) {
	if j.Tier != trace.TierBestEffortBatch {
		return
	}
	for _, t := range j.Tasks {
		s.accountBEB(t)
	}
}

// UpdateTaskRequest changes a task's resource request in place (the
// autopilot's limit updates route through here) while keeping the
// incremental admission accounting consistent with the new request, and
// drops the task's cached scoring class, which the old shape keyed.
func (s *Scheduler) UpdateTaskRequest(t *Task, rec trace.Resources) {
	if t.bebCounted {
		s.bebAllocCPU += rec.CPU - t.bebCountedCPU
		t.bebCountedCPU = rec.CPU
	}
	t.Request = rec
	t.classID = 0
}

// Cell returns the scheduled cell.
func (s *Scheduler) Cell() *cluster.Cell { return s.cell }
