// Package core is the public façade of the reproduction: it wires the
// cluster substrate, the Borg scheduler, the Autopilot vertical autoscaler
// and the calibrated workload generator into a discrete-event simulation
// of one Borg cell, and emits a 2019-schema trace while it runs.
//
// Typical use:
//
//	profile := workload.Profile2019("a", 600)
//	res := core.Run(profile, core.Options{Horizon: 48 * sim.Hour, Seed: 1})
//	violations := trace.Validate(res.Trace, trace.DefaultValidateOptions())
//
// The resulting MemTrace feeds the analysis package, which regenerates
// every table and figure of the paper.
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
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RunKnobs are the per-run tuning knobs shared verbatim by every runner
// configuration: core.Options, experiments.Scale and fleet.Config all
// embed this struct (and sweeps inherit it through their Scale), so a
// new shared knob is added in exactly one place and every layer's
// selector (opts.Policy, sc.Policy, cfg.Policy, …) keeps compiling.
type RunKnobs struct {
	// Policy, when non-empty, overrides the profile's placement policy by
	// canonical name (see scheduler.ParsePolicy). Run panics on an unknown
	// name, like it would on any other malformed static configuration.
	Policy string
	// Arrival, when non-empty, overrides the profile's arrival process by
	// spec (see workload.ParseArrival, e.g. "gamma:cv=2.5"). Ignored when
	// a replay supplies the workload. Run panics on a malformed spec.
	Arrival string
	// UsageNoiseFast replaces the usage sampler's two per-resident
	// lognormal noise draws (math.Exp over Box–Muller normals) with one
	// 64-bit draw indexing a stratified inverse-CDF lookup table — the
	// same marginal distribution to table resolution, with the table mean
	// normalized to the exact lognormal mean (see noiseTable). It is OFF
	// by default because it changes the randomness consumption sequence:
	// enabling it is a versioned trace bump — same-seed traces differ
	// from the exact path byte-for-byte, while scalar figure metrics stay
	// statistically equivalent (pinned by test). Fleet-scale runs enable
	// it to cheapen the sampler's dominant remaining cost.
	UsageNoiseFast bool
	// Metrics, when non-nil, receives this run's instruments (sched_*,
	// sim_*, usage_*, trace_* series; see internal/metrics). Instruments
	// only observe: they consume no randomness and never alter trace
	// bytes, so a run with Metrics set is byte-identical to one without.
	// Multi-cell runners give each cell a private registry and merge them
	// in spec order (engine.RunInstruments); this field must therefore be
	// nilled per cell by fleet-level configs.
	Metrics *metrics.Registry
	// Timeline, when non-nil, records wall-clock spans (warmup/run
	// per cell, reduce at the runner level) exportable as Chrome
	// trace_event JSON. Same observe-only contract as Metrics.
	Timeline *metrics.Timeline
}

// Options configures one cell simulation.
type Options struct {
	RunKnobs
	// Horizon is the simulated duration (the trace window).
	Horizon sim.Time
	// Seed is the root seed; every random stream derives from it, so a
	// (profile, horizon, seed) triple fully determines the trace.
	Seed uint64
	// Histograms enables per-window 21-bucket CPU histograms on usage
	// records (costly; off by default).
	Histograms bool
	// ExtraSinks receive every trace row in addition to the in-memory
	// store (e.g. streaming analyzers). They are driven by this cell's
	// goroutine only, so a sink instance must not be shared with other
	// concurrently simulated cells.
	ExtraSinks []trace.Sink
	// NoMemTrace disables full in-memory trace retention: rows stream
	// only to ExtraSinks (and the row counter) and CellResult.Trace is
	// nil. Use for online-analysis or throughput runs where buffering a
	// whole cell-month of rows is waste.
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
	// RunKnobs.Timeline is nil.
	TimelineID int
	// TimelineWarmup, when positive and Timeline is non-nil, splits the
	// simulation span at this simulated instant into separate "warmup" and
	// "run" wall-clock spans. The kernel's RunUntil is resumable, so the
	// split cannot reorder events or change the trace.
	TimelineWarmup sim.Time
	// Replay, when non-nil, replays a recorded workload instead of
	// generating one: the cell sees the recording's exact arrival instants
	// and job bodies (IDs rebased onto IDBase), under whatever policy and
	// parameters this run selects. The workload RNG stream goes unused;
	// all other streams (machines, scheduler, maintenance, usage) draw
	// exactly as in a generating run at the same seed.
	Replay *workload.Recording
}

// CellResult is the outcome of one simulated cell.
type CellResult struct {
	Profile *workload.CellProfile
	// Trace is the retained in-memory trace, nil when Options.NoMemTrace
	// was set.
	Trace *trace.MemTrace
	Sched scheduler.Stats
	// Rows counts every row emitted, whether or not it was retained.
	Rows trace.RowCounts
	// AutopilotUpdates counts limit adjustments issued.
	AutopilotUpdates int
	// Workload is the captured arrival/job stream, non-nil iff
	// Options.RecordWorkload was set.
	Workload *workload.Recording
}

// Run simulates one cell for opts.Horizon and returns its trace.
func Run(p *workload.CellProfile, opts Options) *CellResult {
	if opts.Horizon <= 0 {
		opts.Horizon = 24 * sim.Hour
	}
	root := rng.New(opts.Seed)
	k := sim.NewKernel()

	var mem *trace.MemTrace
	if !opts.NoMemTrace {
		mem = trace.NewMemTrace(trace.Meta{
			Era:      p.Era,
			Cell:     p.Name,
			Duration: opts.Horizon,
			Machines: p.Machines,
			Seed:     opts.Seed,
		})
	}
	counter := &trace.CountingSink{}
	parts := make([]trace.Sink, 0, 2+len(opts.ExtraSinks))
	if mem != nil {
		parts = append(parts, mem)
	}
	parts = append(parts, counter)
	parts = append(parts, opts.ExtraSinks...)
	sink := trace.FanOut(parts...)

	// Build the cell and announce its machines.
	cell := cluster.BuildCell(p.Name, p.Machines, p.Shapes, root.Split("machines"))
	cell.Machines(func(m *cluster.Machine) {
		sink.MachineEvent(trace.MachineEvent{
			Time: 0, Machine: m.ID, Type: trace.MachineAdd,
			Capacity: m.Capacity, Platform: m.Platform,
		})
	})

	// Scheduler.
	policy := p.Policy
	if opts.Policy != "" {
		policy = scheduler.MustParsePolicy(opts.Policy)
	}
	schedCfg := scheduler.Config{
		Policy:                policy,
		CandidateSample:       p.CandidateSample,
		Overcommit:            p.Overcommit,
		ServiceTime:           dist.LogNormalFromMedian(p.SchedServiceMedian, p.SchedServiceSigma),
		RetryBackoff:          30 * sim.Second,
		EnablePreemption:      true,
		PreemptionPriorityGap: 10,
		EvictionRestartDelay:  15 * sim.Second,
		FailRestartDelay:      10 * sim.Second,
	}
	schedCfg.ProdEvictionSLO = 0.08
	schedCfg.Metrics = opts.Metrics
	if p.BatchQueue {
		ceiling := p.BatchAllocCeiling
		if ceiling <= 0 {
			ceiling = 0.85
		}
		schedCfg.Batch = &scheduler.BatchConfig{
			CheckPeriod:      20 * sim.Second,
			AllocCeiling:     ceiling,
			MaxAdmitPerCheck: 8,
		}
	}
	sched := scheduler.New(schedCfg, cell, k, sink, root.Split("scheduler"))

	// Autopilot. Limit updates flow through the scheduler's setter so its
	// incremental admission accounting tracks autoscaled requests.
	var ap *autopilot.Autopilot
	if !opts.DisableAutopilot {
		ap = autopilot.New(autopilot.DefaultConfig(p.Overcommit), cell, sink)
		ap.OnLimitChange(sched.UpdateTaskRequest)
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
		gen = workload.NewGeneratorArrival(p, cell.Capacity().CPU, opts.Horizon,
			root.Split("workload"), opts.IDBase+1, opts.Arrival)
	}
	var recorder *workload.Recorder
	if opts.RecordWorkload {
		arrival := opts.Arrival
		if arrival == "" {
			arrival = p.Arrival
		}
		if opts.Replay != nil {
			arrival = opts.Replay.Meta.Arrival
		}
		recorder = workload.NewRecorder(gen, workload.RecordingMeta{
			Cell:     p.Name,
			Era:      p.Era,
			Machines: p.Machines,
			Horizon:  opts.Horizon,
			Seed:     opts.Seed,
			Arrival:  workload.MustParseArrival(arrival).String(),
			IDBase:   opts.IDBase,
		})
		gen = recorder
	}
	var scheduleArrival func(now sim.Time)
	scheduleArrival = func(now sim.Time) {
		delta := gen.NextInterArrival(now)
		next := now + delta
		if next >= opts.Horizon {
			return
		}
		k.At(next, func(t sim.Time) {
			for _, j := range gen.Generate(t) {
				sched.Submit(j)
			}
			scheduleArrival(t)
		})
	}
	scheduleArrival(0)

	// Machine maintenance (~1 OS upgrade per machine-month, §5.2).
	maintSrc := root.Split("maintenance")
	expected := p.MaintenanceRate * opts.Horizon.Hours() / (30 * 24)
	for _, id := range cell.MachineIDs() {
		id := id
		n := dist.PoissonCount(maintSrc, expected)
		for i := 0; i < n; i++ {
			at := sim.Time(maintSrc.Float64() * float64(opts.Horizon))
			k.At(at, func(sim.Time) { sched.EvictMachine(id) })
		}
	}

	// Usage sampling every 5 minutes, plus partial-window records when
	// tasks stop between samples (so sub-window mice show up in the
	// usage table, as they do in the real trace).
	sampler := newUsageSampler(p, cell, sched, ap, sink, root.Split("usage"),
		opts.Histograms, opts.UsageNoiseFast)
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
		sampler.mBatch = opts.Metrics.Histogram("usage_batch_records")
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

	res := &CellResult{Profile: p, Trace: mem, Sched: sched.Stats(), Rows: counter.Counts()}
	if ap != nil {
		res.AutopilotUpdates = ap.Updates()
	}
	if recorder != nil {
		res.Workload = recorder.Recording()
	}
	return res
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
	p          *workload.CellProfile
	cell       *cluster.Cell
	sched      *scheduler.Scheduler
	ap         *autopilot.Autopilot
	sink       trace.Sink
	src        *rng.Source
	k          *sim.Kernel
	histograms bool
	// noise is non-nil iff Options.UsageNoiseFast: the stratified lookup
	// pair that stands in for the exact lognormal draws.
	noise *noiseTable
	// obsBuf is the per-machine observation scratch, reused every window
	// so steady-state sampling does not allocate.
	obsBuf []obs
	// machBuf snapshots the cell's occupied-machine index each window
	// (see sample); reused like obsBuf.
	machBuf []*cluster.Machine
	// recBuf collects one machine-window's usage records and is handed to
	// the sink as a single batch; the sink must not retain it, so the
	// buffer is reused every machine.
	recBuf []trace.UsageRecord
	// partialRec is the one-record batch a task stopping mid-window
	// emits. It is separate from recBuf because a stop can happen while
	// sample is filling recBuf (an OOM kill under memory pressure).
	partialRec [1]trace.UsageRecord
	// mWindows counts sampled windows and mBatch observes per-machine
	// batch sizes when Options.Metrics is set; both nil otherwise.
	// Observe-only: neither draws randomness nor emits rows.
	mWindows *metrics.Counter
	mBatch   *metrics.Histogram
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
	ap *autopilot.Autopilot, sink trace.Sink, src *rng.Source, histograms, fastNoise bool) *usageSampler {
	u := &usageSampler{
		p: p, cell: cell, sched: sched, ap: ap, sink: sink, src: src,
		histograms: histograms,
	}
	if fastNoise {
		u.noise = newNoiseTable(p.UsageNoiseSigma)
	}
	return u
}

// usageNoise returns the multiplicative (CPU, memory) noise pair for one
// resident-window observation: the exact lognormal draws by default, or
// the stratified table draw when Options.UsageNoiseFast is set. The
// exact branch is byte-for-byte the PR 7 randomness sequence.
func (u *usageSampler) usageNoise() (noiseC, noiseM float64) {
	if u.noise != nil {
		return u.noise.draw(u.src)
	}
	noiseC = math.Exp(u.p.UsageNoiseSigma * u.src.NormFloat64())
	noiseM = math.Exp(u.p.UsageNoiseSigma * 0.3 * u.src.NormFloat64())
	return noiseC, noiseM
}

// sample emits one 5-minute window of usage records ending at now. It
// walks the cell's occupied-machine index in ID order and each machine's
// resident victim order — both deterministic — so randomness consumption
// stays a pure function of the simulation state, with no per-window
// sorting or grouping maps. Machines without residents consume no
// randomness, which is what makes the occupied-only walk draw-for-draw
// identical to a full machine scan. Each machine's records leave as one
// batch, and steady-state sampling with autopilot disabled performs zero
// heap allocations.
func (u *usageSampler) sample(now sim.Time) {
	if u.mWindows != nil {
		u.mWindows.Inc()
	}
	// Snapshot the occupied index before walking it: handling one
	// machine's memory pressure can empty the machine, and the index's
	// in-place compaction would make a live range skip the next entry.
	// Nothing during the walk can occupy a new machine or touch another
	// machine's residents, so the snapshot visits exactly the machines a
	// full ID scan would.
	machines := append(u.machBuf[:0], u.cell.OccupiedMachines()...)
	for _, m := range machines {
		mid := m.ID
		if m.NumResidents() == 0 {
			continue
		}
		list := u.obsBuf[:0]
		var cpuSum, memSum float64
		for _, r := range m.Residents() {
			// The resident carries its task pointer; direct cluster
			// placements (tests) fall back to the key lookup.
			t, _ := r.Task.(*scheduler.Task)
			if t == nil {
				t = u.sched.TaskByKey(r.Key)
			}
			if t == nil || t.State != scheduler.TaskRunning || t.Machine != mid {
				continue
			}
			noiseC, noiseM := u.usageNoise()
			avg := trace.Resources{CPU: t.MeanCPU * noiseC, Mem: t.MeanMem * noiseM}
			peakJitter := 1 + (t.PeakFact-1)*(0.7+0.6*u.src.Float64())
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
			// reused slot. The histogram pointer is cleared explicitly
			// because the slot may hold a stale one from the last window.
			rec := &recs[len(recs)-1]
			rec.Start = now - sim.SampleWindow
			rec.End = now
			rec.Key = t.Key
			rec.Machine = mid
			rec.Tier = t.Job.Tier
			rec.AvgUsage = o.avg
			rec.MaxUsage = o.peak
			rec.Limit = t.Request
			rec.CPUHistogram = nil
			if u.histograms {
				rec.CPUHistogram = synthHistogram(o.avg.CPU, o.peak.CPU, t.Request.CPU, u.src)
			}
			if u.ap != nil {
				// Observe may emit UPDATE_RUNNING instance events and
				// resize this task's request; the record above already
				// captured the pre-update limit.
				u.ap.Observe(now, t, o.peak)
			}
		}
		if len(recs) > 0 {
			if u.mBatch != nil {
				u.mBatch.Observe(float64(len(recs)))
			}
			u.sink.UsageBatch(recs)
		}
		u.recBuf = recs[:0]
	}
	u.machBuf = machines[:0]

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
	noiseC, noiseM := u.usageNoise()
	avg := trace.Resources{CPU: t.MeanCPU * noiseC, Mem: t.MeanMem * noiseM}
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
	peakJitter := 1 + (t.PeakFact-1)*(0.7+0.6*u.src.Float64())
	peak := avg.Scale(peakJitter)
	u.partialRec[0] = trace.UsageRecord{
		Start:    start,
		End:      now,
		Key:      t.Key,
		Machine:  t.Machine,
		Tier:     t.Job.Tier,
		AvgUsage: avg,
		MaxUsage: peak,
		Limit:    t.Request,
	}
	if u.histograms {
		u.partialRec[0].CPUHistogram = synthHistogram(avg.CPU, peak.CPU, t.Request.CPU, u.src)
	}
	u.sink.UsageBatch(u.partialRec[:])
}

// synthHistogram builds the trace's 21-bucket CPU utilization histogram
// for one window from the window's average and peak, by sampling a
// plausible within-window trajectory.
func synthHistogram(avg, peak, limit float64, src *rng.Source) *stats.UsageHistogram {
	h := &stats.UsageHistogram{}
	if limit <= 0 {
		limit = 1e-9
	}
	// 30 pseudo-samples (≈10-second resolution): uniform between trough
	// and peak, centered on the average.
	trough := 2*avg - peak
	if trough < 0 {
		trough = 0
	}
	for i := 0; i < 30; i++ {
		v := trough + (peak-trough)*src.Float64()
		h.Add(v / limit)
	}
	return h
}
