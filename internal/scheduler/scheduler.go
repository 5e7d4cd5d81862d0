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
	"math/bits"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config parameterizes the scheduler. A cell's configuration lives in
// its profile (workload.CellProfile.Sched, which Profile2011 and
// Profile2019 fill per era); core.Run hands it over unchanged. The
// run's metrics registry is passed to New beside it, so a profile holds
// no registry.
type Config struct {
	// Policy selects the placement brain (see policy.go).
	Policy PlacementPolicy
	// CandidateSample is how many machines a placement attempt examines
	// (power-of-k-choices sampling with replacement, as production
	// schedulers do to bound scan cost). A cell of at most this many
	// machines is scanned whole instead, each machine once in ID order
	// from a random offset: a lone fit is never missed, but among several
	// feasible or tied machines the first after the offset wins, which
	// is not uniform.
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

// TaskSpec is a task's scripted body: what the workload generator sets
// and a workload recording stores.
type TaskSpec struct {
	// Request is the resource limit. Once the task is submitted it
	// changes only through UpdateTaskRequest, which keeps its machine's
	// allocation in step.
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
}

// Task is one replica of a job (or one alloc instance of an alloc set).
// A job the scheduler keeps holds its tasks by value in one array, which
// Submit fills from the job's specs, so a task's size is what that array
// takes per task: 128 bytes, which TestTaskSize pins. A job
// killed on arrival gets no Task of its own (see Submit). The
// small fields share words, facts held elsewhere are not repeated (the
// collection ID is the job's, read by Key), and each reference is a
// pointer or a handle rather than a copied key. The task's kernel event
// carries the task itself as its receiver (taskEnd, taskRetry), so no
// callback is stored here.
type Task struct {
	Job *Job
	TaskSpec

	State TaskState
	// bebCounted/bebCountedCPU track this task's contribution to the
	// scheduler's incremental beb CPU sum: the recorded amount — not the
	// live Request — is what removal subtracts, so even a request write
	// that bypasses UpdateTaskRequest can only make the sum stale until
	// the task's next transition, never permanently drift it.
	bebCounted bool
	oomFails   uint8 // times killed for exceeding its own memory limit (at most 2)
	// unplacing is set while unplace tears down the alloc instance this
	// task is, so that a nested unplace of it does not fire UnplaceHook
	// a second time.
	unplacing bool
	Machine   trace.MachineID
	// index is the task's instance index within its job: its spec's
	// position in Job.Specs, set by Submit.
	index int32
	// Autoscale is the autopilot's handle for the task's usage window: an
	// index into a table the autopilot owns, 0 when the task has none. The
	// scheduler never reads it.
	Autoscale int32
	// AllocInstance hosts this task when the job targets an alloc set;
	// nil otherwise.
	AllocInstance *AllocInstance

	remaining sim.Time
	segment   sim.Time // remaining time in the current segment plan
	runStart  sim.Time
	// event is the task's one scheduled kernel event: its segment end
	// while it runs (startRunning sets it, stopRun clears it) or its
	// re-enqueue while it waits (retryLater and requeueAfter set it,
	// taskRetry.Fire and KillJob clear it). A task never runs and waits
	// at once, so the two never overlap.
	event         sim.EventRef
	bebCountedCPU float64
}

// Key returns the task's instance key: its job's collection ID and its
// index within the job.
func (t *Task) Key() trace.InstanceKey {
	return trace.InstanceKey{Collection: t.Job.ID, Index: t.index}
}

// allocKey returns the key of the alloc instance hosting the task, or the
// zero key when none does.
func (t *Task) allocKey() trace.InstanceKey {
	if t.AllocInstance == nil {
		return trace.InstanceKey{}
	}
	return t.AllocInstance.Key
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
	t.event = sim.EventRef{}
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
	ID trace.CollectionID
	// CollectionAttrs are the attributes every collection event carries;
	// AllocSet is also the target alloc set for task placement.
	trace.CollectionAttrs

	// Outcome scripts how the job ends if it runs to completion;
	// KillAfter > 0 schedules a user-initiated kill that long after
	// submission (before natural completion, it wins).
	Outcome   Outcome
	KillAfter sim.Time

	// Specs are the bodies of the job's tasks, in instance-index order:
	// what a workload source hands Submit. They may be the source's
	// buffer (a generator's scratch, a recording's slice), so Submit
	// copies them into Tasks and clears the field rather than keep them.
	Specs []TaskSpec
	// Tasks are the job's tasks, held by value: the job's one task
	// array, which Submit builds from Specs, in an array reclaimed from a
	// finished job when its size class has one. A job killed on arrival
	// never gets one, and Tasks stays nil. Code that changes a task takes
	// &Tasks[i] after Submit.
	//
	// A *Task names its task only until the job's array is reclaimed.
	// When the job terminates the array is retired, and Reclaim frees it
	// once the two holders that outlive a job have let go: the pending
	// queue, which keeps a withdrawn task until it is popped (queued
	// counts those entries), and the autopilot's tracked list, which
	// drops a task at the first sweep that did not observe it. Reclaim
	// zeroes the array and sets Tasks to nil. Any other holder must not
	// use a *Task past the kernel event that took it.
	Tasks []Task

	State      JobState
	SubmitTime sim.Time
	ReadyTime  sim.Time
	// FirstRun is when the first task started running (scheduling delay
	// measurement, Figure 10); -1 until then.
	FirstRun  sim.Time
	FinalType trace.EventType // termination event emitted, EventSubmit if still open

	liveTasks int
	// queued is how many of the pending queue's entries are this job's
	// tasks, withdrawn ones included: Reclaim keeps the array while any
	// is left.
	queued    int
	killEvent sim.EventRef
	// dependents are the jobs submitted while this job was live that
	// named it as their parent or, if it is an alloc set, as their alloc
	// set: the jobs that may die with it. Submit appends; the list is
	// read, filtered by state, once, when this job terminates.
	dependents []*Job
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

// AddTask appends a task body to the job's Specs; its instance index is
// its position there. The Task itself exists once Submit keeps the job.
func (j *Job) AddTask(spec TaskSpec) {
	j.Specs = append(j.Specs, spec)
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
}

// schedInstruments binds the scheduler's activity counters to a metrics
// registry once at construction, so every increment site is a bare
// atomic add with no name lookup. Counters are the only instrument kind
// here: the placement fast path must stay allocation-free and lock-free
// (histograms take a mutex), so distributional views (queue depth over
// sim-time) are sampled by the usage pipeline's periodic tick instead.
type schedInstruments struct {
	jobsSubmitted       *metrics.Counter // sched_jobs_submitted_total
	killedOnArrival     *metrics.Counter // sched_jobs_killed_on_arrival_total
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
	pendingQueue        *metrics.Gauge   // sched_pending_queue (QueueDepth)
}

func newSchedInstruments(reg *metrics.Registry) schedInstruments {
	return schedInstruments{
		jobsSubmitted:       reg.Counter("sched_jobs_submitted_total"),
		killedOnArrival:     reg.Counter("sched_jobs_killed_on_arrival_total"),
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
	// the only registry of live jobs; the jobs that die with a job are
	// in that job's dependents.
	jobs map[trace.CollectionID]*Job
	// allocs holds each alloc set's placed instances in placement order,
	// the only record of them; the tasks an instance hosts are the
	// residents of its machine that name it.
	allocs map[trace.CollectionID][]*AllocInstance

	// machines holds each machine's resident tasks in victim order and
	// the allocation and usage sums over them, indexed by machine ID
	// (see residents.go). A slot is a value, so placing and removing a
	// task allocates nothing once a machine's slice has grown.
	machines []residents
	// preBest and preCand are tryPreemption's victim lists: the best
	// plan so far and the candidate being scanned.
	preBest, preCand []*Task
	// evicting is EvictMachine's copy of a machine's resident tasks,
	// which the evictions it makes would otherwise shift under it.
	evicting []*Task

	batchQueue []*Job

	// arriving is the one Task value through which a job killed on
	// arrival emits its instance rows, one spec at a time, so such a job
	// allocates no task array. It holds no job between Submits.
	arriving Task

	// freeTasks[c] holds zeroed task arrays of capacity 1<<c, reclaimed
	// from terminated jobs, for Submit to reuse before it allocates.
	freeTasks [bits.UintSize][][]Task
	// retired lists the terminated jobs whose task arrays are not yet
	// reclaimed, oldest first; the first aged of them were retired before
	// the previous Reclaim.
	retired []*Job
	aged    int

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

// New constructs a scheduler bound to a cell, kernel and sink. reg
// receives the scheduler's activity counters (the sched_* instruments;
// see newSchedInstruments for the catalogue). Nil gets a private
// registry, so counting is unconditional and Stats always works.
// Instruments observe only — they consume no randomness and cannot
// change a single trace byte (the metrics package contract).
func New(cfg Config, cell *cluster.Cell, k *sim.Kernel, sink trace.Sink, src *rng.Source, reg *metrics.Registry) *Scheduler {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Scheduler{
		cfg:      cfg,
		cell:     cell,
		machines: make([]residents, len(cell.MachineIDs())+1),
		k:        k,
		sink:     sink,
		src:      src,
		jobs:     make(map[trace.CollectionID]*Job),
		allocs:   make(map[trace.CollectionID][]*AllocInstance),
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
	for i := range j.Tasks {
		s.accountBEB(&j.Tasks[i])
	}
}

// UpdateTaskRequest changes a running task's resource request in place.
// It is the one place a request changes (the autopilot's limit updates
// route through here): the task's machine allocation and the incremental
// admission accounting follow the new request, and the UPDATE_RUNNING
// instance event carries it. An alloc-hosted task counts no machine
// limit, so its machine's allocation does not move.
func (s *Scheduler) UpdateTaskRequest(t *Task, rec trace.Resources) {
	if t.Machine != 0 && t.AllocInstance == nil {
		r, _ := s.find(t)
		r.allocated = r.allocated.Sub(t.Request).Add(rec)
	}
	if t.bebCounted {
		s.bebAllocCPU += rec.CPU - t.bebCountedCPU
		t.bebCountedCPU = rec.CPU
	}
	t.Request = rec
	s.emitInstance(t, trace.EventUpdateRunning, s.k.Now())
}
