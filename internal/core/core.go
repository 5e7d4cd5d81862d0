// Package core is the public façade of the reproduction: it wires the
// cluster substrate, the Borg scheduler, the Autopilot vertical autoscaler
// and the calibrated workload generator into a discrete-event simulation
// of one Borg cell, and emits a 2019-schema trace while it runs.
//
// Typical use, checking the §9 invariants as the rows stream past:
//
//	profile := workload.Profile2019("a", 600)
//	v := trace.NewValidator()
//	core.Run(profile, core.Options{Horizon: 48 * sim.Hour, Seed: 1,
//		ExtraSinks: []trace.Sink{v}})
//	violations := v.Finish()
//
// Other sinks ride along the same way: a streaming.CellReducer computes
// the paper's tables and figures, a trace.DirSink writes the CSV tables.
// Run keeps no rows itself; a caller that wants them attaches
// trace.NewMemTrace(core.TraceMeta(profile, opts)) the same way.
//
// Run hands the scheduler the cell profile's Sched configuration as it
// stands, attaching only the run's metrics registry; the Autopilot's
// settings are package constants. The profile is the only place a cell's
// scheduler configuration and arrival process are kept: multi-cell
// runners apply their run-level overrides to it with RunKnobs.Apply.
package core

import (
	"math"
	"time"

	"repro/internal/autopilot"
	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RunKnobs are the per-run knobs a multi-cell runner applies to every
// cell: experiments.Scale and fleet.Config embed this struct (and sweeps
// inherit it through their Scale). Policy and Arrival reach each cell
// through its profile (Apply); Metrics and Timeline through the engine's
// per-cell instruments (engine.RunInstruments).
type RunKnobs struct {
	// Policy, when non-nil, overrides every profile's placement policy.
	// CLIs parse it once from the -policy flag (scheduler.ParsePolicy).
	Policy *scheduler.PlacementPolicy
	// Arrival, when non-nil, overrides every profile's arrival process.
	// CLIs parse it once from the -arrival flag (workload.ParseArrival,
	// e.g. "gamma:cv=2.5"). A replayed cell ignores it.
	Arrival *workload.ArrivalSpec
	// Metrics, when non-nil, receives the run's instrument rollup: each
	// cell gets a private registry, merged in spec order
	// (engine.RunInstruments). Instruments only observe, so a run with
	// Metrics set is byte-identical to one without.
	Metrics *metrics.Registry
	// Timeline, when non-nil, records wall-clock spans (warmup/run per
	// cell, reduce at the runner level) exportable as Chrome trace_event
	// JSON. Same observe-only contract as Metrics.
	Timeline *metrics.Timeline
}

// Apply overrides p's placement policy and arrival process with the
// knobs' non-nil choices, so a cell's policy and arrival process are
// always read from its profile.
func (k RunKnobs) Apply(p *workload.CellProfile) {
	if k.Policy != nil {
		p.Sched.Policy = *k.Policy
	}
	if k.Arrival != nil {
		p.Arrival = *k.Arrival
	}
}

// Options configures one cell simulation.
type Options struct {
	// Horizon is the simulated duration (the trace window).
	Horizon sim.Time
	// Seed is the root seed; every random stream derives from it, so a
	// (profile, horizon, seed) triple fully determines the trace.
	Seed uint64
	// ExtraSinks receive every trace row (streaming analyzers, a
	// validator, a DirSink, or a trace.MemTrace to keep the rows); none
	// may be nil. They are driven by this cell's goroutine only, so a
	// sink instance must not be shared with other concurrently simulated
	// cells.
	ExtraSinks []trace.Sink
	// Deprecated: NoMemTrace has no effect. Run keeps no rows unless a
	// trace.MemTrace is attached through ExtraSinks. The field stays only
	// because the frozen benchmark harness under bench/ sets it.
	NoMemTrace bool
	// IDBase offsets collection IDs so multi-cell runs have disjoint ID
	// spaces.
	IDBase trace.CollectionID
	// DisableAutopilot turns vertical scaling off even for jobs marked
	// as autoscaled (ablation support).
	DisableAutopilot bool
	// RecordWorkload captures the generated arrival/job stream into
	// CellResult.Workload (a versioned workload.Recording) while the run
	// proceeds normally.
	RecordWorkload bool
	// TimelineID labels this cell's timeline spans (the Chrome trace TID)
	// so concurrent cells render as separate rows. Ignored when
	// Timeline is nil.
	TimelineID int
	// TimelineWarmup, when positive and Timeline is non-nil, splits the
	// simulation span at this simulated instant into separate "warmup" and
	// "run" wall-clock spans. The kernel's RunUntil is resumable, so the
	// split cannot reorder events or change the trace.
	TimelineWarmup sim.Time
	// Metrics, when non-nil, receives this cell's instruments (sched_*,
	// sim_*, usage_*, trace_* series; see internal/metrics). Instruments
	// only observe: they consume no randomness and never alter trace
	// bytes. A registry must not be shared with concurrently simulated
	// cells.
	Metrics *metrics.Registry
	// Timeline, when non-nil, records this cell's wall-clock spans.
	// Same observe-only contract as Metrics.
	Timeline *metrics.Timeline
	// Replay, when non-nil, replays a recorded workload instead of
	// generating one: the cell sees the recording's exact arrival instants
	// and job bodies (IDs rebased onto IDBase), under whatever policy and
	// parameters the profile selects. The workload RNG stream goes unused;
	// all other streams (machines, scheduler, maintenance, usage) draw
	// exactly as in a generating run at the same seed.
	Replay *workload.Recording
}

// CellResult is the outcome of one simulated cell.
type CellResult struct {
	Profile *workload.CellProfile
	Sched   scheduler.Stats
	// Rows counts every row emitted.
	Rows trace.RowCounts
	// AutopilotUpdates counts limit adjustments issued.
	AutopilotUpdates int
	// Workload is the captured arrival/job stream, non-nil iff
	// Options.RecordWorkload was set.
	Workload *workload.Recording
}

// defaultHorizon is the simulated duration when Options.Horizon is unset.
const defaultHorizon = 24 * sim.Hour

// TraceMeta is the metadata of the trace Run emits for profile p under
// opts: the profile's era, name and machine count, the horizon (24 h
// when unset) and the seed. Sinks that need a cell's metadata before it
// runs (a reducer, a DirSink, a MemTrace) take it from here.
func TraceMeta(p *workload.CellProfile, opts Options) trace.Meta {
	if opts.Horizon <= 0 {
		opts.Horizon = defaultHorizon
	}
	return trace.Meta{Era: p.Era, Cell: p.Name, Duration: opts.Horizon, Machines: p.Machines, Seed: opts.Seed}
}

// Run simulates one cell for opts.Horizon, emitting its trace rows to
// opts.ExtraSinks.
func Run(p *workload.CellProfile, opts Options) *CellResult {
	meta := TraceMeta(p, opts)
	opts.Horizon = meta.Duration
	root := rng.New(opts.Seed)
	k := sim.NewKernel()

	counter := &trace.CountingSink{}
	sink := append(trace.MultiSink{counter}, opts.ExtraSinks...)

	// Build the cell and announce its machines.
	cell := cluster.BuildCell(p.Name, p.Machines, p.Shapes, p.Overcommit, root.Split("machines"))
	cell.Machines(func(m *cluster.Machine) {
		sink.MachineEvent(trace.MachineEvent{
			Time: 0, Machine: m.ID, Type: trace.MachineAdd,
			Capacity: m.Capacity, Platform: m.Platform,
		})
	})

	// Scheduler.
	sched := scheduler.New(p.Sched, cell, k, sink, root.Split("scheduler"), opts.Metrics)

	// Autopilot. Limit updates flow through the scheduler's setter so its
	// incremental admission accounting tracks autoscaled requests.
	var ap *autopilot.Autopilot
	if !opts.DisableAutopilot {
		ap = autopilot.New(cell, sched.UpdateTaskRequest)
	}

	// Workload arrivals: a live generator by default, or a replayer over
	// a recorded stream. Constructing a generator consumes no randomness
	// and root.Split never advances the parent state, so the replay path
	// leaves every other stream's draws untouched — a replay at the same
	// seed is byte-identical to the run that recorded it.
	var gen workload.JobSource
	if opts.Replay != nil {
		gen = workload.NewReplayer(opts.Replay, opts.IDBase)
	} else {
		g := workload.NewGeneratorArrival(p, cell.Capacity().CPU, opts.Horizon,
			root.Split("workload"), opts.IDBase+1)
		// Every job is submitted by the time Run returns, so the next
		// cell may reuse the generator's task-spec scratch.
		defer g.Release()
		gen = g
	}
	var recorder *workload.Recorder
	if opts.RecordWorkload {
		arrival := p.Arrival
		if opts.Replay != nil {
			arrival = opts.Replay.Meta.Arrival
		}
		recorder = workload.NewRecorder(gen, workload.RecordingMeta{
			Meta: meta, Arrival: arrival, IDBase: opts.IDBase,
		})
		gen = recorder
	}
	arr := &arrivals{k: k, gen: gen, sched: sched, horizon: opts.Horizon}
	arr.schedule(0)

	// Machine maintenance (~1 OS upgrade per machine-month, §5.2).
	maintSrc := root.Split("maintenance")
	expected := p.MaintenanceRate * opts.Horizon.Hours() / (30 * 24)
	for _, id := range cell.MachineIDs() {
		id := id
		n := dist.PoissonCount(maintSrc, expected)
		for i := 0; i < n; i++ {
			at := sim.Time(maintSrc.Float64() * float64(opts.Horizon))
			k.At(at, sim.Func(func(sim.Time) { sched.EvictMachine(id) }))
		}
	}

	// Usage sampling every 5 minutes, plus partial-window records when
	// tasks stop between samples (so sub-window mice show up in the
	// usage table, as they do in the real trace).
	sampler := newUsageSampler(p, cell, sched, ap, sink, root.Split("usage"))
	sampler.k = k
	sched.UnplaceHook = sampler.taskStopped
	// Instruments piggyback on the sampling tick: the queue-depth
	// histogram sees one observation per window, a sim-time series rather
	// than a wall-clock one. Observing is read-only — no randomness, no
	// trace rows — so the instrumented tick is byte-identical to the bare
	// one.
	var queueDepth *metrics.Histogram
	if opts.Metrics != nil {
		sampler.mWindows = opts.Metrics.Counter("usage_windows_total")
		queueDepth = opts.Metrics.Histogram("sched_queue_depth")
	}
	k.Every(sim.SampleWindow, sim.SampleWindow, opts.Horizon, func(now sim.Time) {
		if queueDepth != nil {
			queueDepth.Observe(float64(sched.QueueDepth()))
		}
		sampler.sample(now)
	})

	// The kernel run splits at the warmup boundary only when a timeline
	// wants separate spans; RunUntil is resumable, so the split leaves the
	// event order — and therefore the trace — untouched.
	tl := opts.Timeline
	if tl != nil && opts.TimelineWarmup > 0 && opts.TimelineWarmup < opts.Horizon {
		warmStart := time.Now()
		k.RunUntil(opts.TimelineWarmup)
		tl.Record("warmup", "cell", opts.TimelineID, warmStart, time.Since(warmStart))
		runStart := time.Now()
		k.RunUntil(opts.Horizon)
		tl.Record("run", "cell", opts.TimelineID, runStart, time.Since(runStart))
	} else {
		done := tl.Span("run", "cell", opts.TimelineID)
		k.RunUntil(opts.Horizon)
		done()
	}
	if reg := opts.Metrics; reg != nil {
		reg.Counter("sim_events_total").Add(int64(k.Fired()))
		reg.Histogram("sim_event_slab").Observe(float64(k.PoolSize()))
		rows := counter.Counts()
		reg.Counter("trace_rows_collections_total").Add(rows.Collections)
		reg.Counter("trace_rows_instances_total").Add(rows.Instances)
		reg.Counter("trace_rows_usage_total").Add(rows.Usage)
		reg.Counter("trace_rows_machines_total").Add(rows.Machines)
	}

	res := &CellResult{Profile: p, Sched: sched.Stats(), Rows: counter.Counts()}
	if ap != nil {
		res.AutopilotUpdates = ap.Updates()
	}
	if recorder != nil {
		res.Workload = recorder.Recording()
	}
	return res
}

// arrivals is the kernel event of the next workload submission. One
// value serves the whole run: each firing submits what the source
// generates and reschedules the same value, so an arrival allocates
// nothing beyond the jobs it submits.
type arrivals struct {
	k       *sim.Kernel
	gen     workload.JobSource
	sched   *scheduler.Scheduler
	horizon sim.Time
}

// schedule queues the arrival that follows now, unless it falls at or
// beyond the horizon, which ends the stream.
func (a *arrivals) schedule(now sim.Time) {
	next := now + a.gen.NextInterArrival(now)
	if next >= a.horizon {
		return
	}
	a.k.At(next, a)
}

// Fire submits the collections arriving now and queues the next arrival.
// Each job is submitted before the source is asked for more, since its
// Specs are the source's buffer until then.
func (a *arrivals) Fire(now sim.Time) {
	for _, j := range a.gen.Generate(now) {
		a.sched.Submit(j)
	}
	a.schedule(now)
}

// obs is one running task's sampled usage for the current window.
type obs struct {
	task *scheduler.Task
	res  *cluster.Resident
	avg  trace.Resources
	peak trace.Resources
}

// usageSampler turns each running task's usage model into 5-minute usage
// records, applies work-conserving CPU throttling and memory OOM pressure,
// and feeds Autopilot.
type usageSampler struct {
	p     *workload.CellProfile
	cell  *cluster.Cell
	sched *scheduler.Scheduler
	ap    *autopilot.Autopilot
	sink  trace.Sink
	src   *rng.Source
	k     *sim.Kernel
	// obsBuf is the per-machine observation scratch, reused every window
	// so steady-state sampling does not allocate.
	obsBuf []obs
	// recBuf collects one machine-window's usage records and is handed to
	// the sink as a single batch; the sink must not retain it, so the
	// buffer is reused every machine.
	recBuf []trace.UsageRecord
	// partialRec is the one-record batch a task stopping mid-window
	// emits. It is separate from recBuf because a stop can happen while
	// sample is filling recBuf (an OOM kill under memory pressure).
	partialRec [1]trace.UsageRecord
	// mWindows counts sampled windows when Options.Metrics is set; nil
	// otherwise. Observe-only: it draws no randomness and emits no rows.
	mWindows *metrics.Counter
	// partialCPU/partialMem accumulate the time-weighted usage already
	// emitted for the current window by tasks that stopped mid-window,
	// indexed by machine ID; partialIDs lists the machines with an entry
	// so the per-window reset touches only those. The tick throttle
	// subtracts them so a machine's window total never exceeds its
	// physical capacity.
	partialCPU []float64
	partialMem []float64
	partialIDs []trace.MachineID
}

func newUsageSampler(p *workload.CellProfile, cell *cluster.Cell, sched *scheduler.Scheduler,
	ap *autopilot.Autopilot, sink trace.Sink, src *rng.Source) *usageSampler {
	return &usageSampler{p: p, cell: cell, sched: sched, ap: ap, sink: sink, src: src}
}

// draw returns one resident-window observation of t: its average usage
// under lognormal noise (σ for CPU, 0.3σ for memory) and the factor that
// scales that average to the window's peak. It draws a normal for CPU,
// then a normal for memory, then a uniform for the peak; sample and
// taskStopped both draw through it, so that order is the usage stream's
// whole randomness sequence.
func (u *usageSampler) draw(t *scheduler.Task) (avg trace.Resources, peakJitter float64) {
	sigma := u.p.UsageNoiseSigma
	avg.CPU = t.MeanCPU * math.Exp(sigma*u.src.NormFloat64())
	avg.Mem = t.MeanMem * math.Exp(sigma*0.3*u.src.NormFloat64())
	peakJitter = 1 + (t.PeakFact-1)*(0.7+0.6*u.src.Float64())
	return avg, peakJitter
}

// sample emits one 5-minute window of usage records ending at now. It
// walks the cell's machines in ID order and each machine's resident
// victim order — both deterministic — so randomness consumption stays a
// pure function of the simulation state, with no per-window sorting or
// grouping maps. Machines without residents are skipped and draw
// nothing. Each machine's records leave as one batch, and steady-state
// sampling with autopilot disabled performs zero heap allocations.
func (u *usageSampler) sample(now sim.Time) {
	if u.mWindows != nil {
		u.mWindows.Inc()
	}
	for _, mid := range u.cell.MachineIDs() {
		m := u.cell.Machine(mid)
		if m.NumResidents() == 0 {
			continue
		}
		list := u.obsBuf[:0]
		var cpuSum, memSum float64
		// The walk only reads: memory pressure evicts after it, so it
		// reads the live list, and the next placement on this machine
		// copies nothing.
		for _, r := range m.LiveResidents() {
			// Every resident was placed by the scheduler, which hands it
			// its task pointer.
			t := r.Task.(*scheduler.Task)
			if t.State != scheduler.TaskRunning || t.Machine != mid {
				continue
			}
			avg, peakJitter := u.draw(t)
			cpuSum += avg.CPU
			memSum += avg.Mem
			if n := len(list); n < cap(list) {
				list = list[:n+1]
			} else {
				list = append(list, obs{})
			}
			o := &list[len(list)-1]
			o.task, o.res = t, r
			o.avg, o.peak = avg, avg.Scale(peakJitter)
		}
		u.obsBuf = list[:0]
		if len(list) == 0 {
			continue
		}
		// Work-conserving CPU: the machine cannot exceed its physical
		// capacity; oversubscribed machines throttle everyone
		// proportionally (§2). Capacity already consumed by tasks that
		// stopped earlier in this window is reserved first.
		capCPU := m.Capacity.CPU
		capMem := m.Capacity.Mem
		if int(mid) < len(u.partialCPU) {
			capCPU -= u.partialCPU[mid]
			capMem -= u.partialMem[mid]
		}
		if capCPU < 0 {
			capCPU = 0
		}
		if capMem < 0 {
			capMem = 0
		}
		if cpuSum > capCPU && cpuSum > 0 {
			f := capCPU / cpuSum
			for i := range list {
				list[i].avg.CPU *= f
				list[i].peak.CPU *= f
			}
		}
		// Memory is a hard bound: pressure evicts the weakest residents
		// (§5.2); the evicted tasks' usage vanishes with them.
		if memSum > capMem {
			for i := range list {
				// SetResidentUsage keeps the machine's incremental usage
				// aggregate consistent; the pressure handler below reads it.
				m.SetResidentUsage(list[i].res, list[i].avg)
			}
			u.sched.HandleMemoryPressure(mid, capMem)
		}

		recs := u.recBuf[:0]
		for i := range list {
			o := &list[i]
			t := o.task
			if t.State != scheduler.TaskRunning || t.Machine != mid {
				continue // evicted by the pressure handler above
			}
			m.SetResidentUsage(o.res, o.avg)
			if n := len(recs); n < cap(recs) {
				recs = recs[:n+1]
			} else {
				recs = append(recs, trace.UsageRecord{})
			}
			// Field assignments instead of a composite literal: the
			// literal would be built in a temporary and copied into the
			// reused slot.
			rec := &recs[len(recs)-1]
			rec.Start = now - sim.SampleWindow
			rec.End = now
			rec.Key = t.Key()
			rec.Machine = mid
			rec.Tier = t.Job.Tier
			rec.AvgUsage = o.avg
			rec.MaxUsage = o.peak
			rec.Limit = t.Request
			if u.ap != nil {
				// Observe may resize this task's request through the
				// scheduler, which emits the UPDATE_RUNNING row; the
				// record above already captured the pre-update limit.
				u.ap.Observe(t, o.peak)
			}
		}
		if len(recs) > 0 {
			u.sink.UsageBatch(recs)
		}
		u.recBuf = recs[:0]
	}

	if u.ap != nil {
		// Tasks the walk did not observe stopped running since their last
		// window: the sweep closes their autopilot windows.
		u.ap.Sweep()
	}

	// A new window begins: release the partial-usage reservations.
	for _, id := range u.partialIDs {
		u.partialCPU[id], u.partialMem[id] = 0, 0
	}
	u.partialIDs = u.partialIDs[:0]
}

// partial returns the machine's partial-usage slots for the current
// window, registering the machine while its slots are zero (listing one
// twice only resets it twice).
func (u *usageSampler) partial(id trace.MachineID) (cpu, mem *float64) {
	if grow := int(id) + 1 - len(u.partialCPU); grow > 0 {
		u.partialCPU = append(u.partialCPU, make([]float64, grow)...)
		u.partialMem = append(u.partialMem, make([]float64, grow)...)
	}
	if u.partialCPU[id] == 0 && u.partialMem[id] == 0 {
		u.partialIDs = append(u.partialIDs, id)
	}
	return &u.partialCPU[id], &u.partialMem[id]
}

// taskStopped emits the partial usage record for a task leaving its
// machine mid-window: the interval from the later of its run start and the
// last sampling boundary, up to now.
func (u *usageSampler) taskStopped(t *scheduler.Task, runStart sim.Time) {
	now := u.k.Now()
	boundary := now - now%sim.SampleWindow
	start := boundary
	if runStart > start {
		start = runStart
	}
	if start >= now || t.Machine == 0 {
		return
	}
	m := u.cell.Machine(t.Machine)
	if m == nil {
		return
	}
	avg, peakJitter := u.draw(t)
	// The machine's window capacity not already claimed by earlier
	// partial records bounds what this record may report.
	frac := float64(now-start) / float64(sim.SampleWindow)
	partCPU, partMem := u.partial(t.Machine)
	availCPU := m.Capacity.CPU - *partCPU
	availMem := m.Capacity.Mem - *partMem
	if avg.CPU*frac > availCPU {
		avg.CPU = math.Max(0, availCPU/frac)
	}
	if avg.Mem*frac > availMem {
		avg.Mem = math.Max(0, availMem/frac)
	}
	*partCPU += avg.CPU * frac
	*partMem += avg.Mem * frac
	u.partialRec[0] = trace.UsageRecord{
		Start:    start,
		End:      now,
		Key:      t.Key(),
		Machine:  t.Machine,
		Tier:     t.Job.Tier,
		AvgUsage: avg,
		MaxUsage: avg.Scale(peakJitter),
		Limit:    t.Request,
	}
	u.sink.UsageBatch(u.partialRec[:])
}
