// Package repro is a from-scratch Go reproduction of "Borg: the Next
// Generation" (Tirmazi et al., EuroSys 2020): a discrete-event Borg cell
// simulator with a calibrated synthetic workload generator that emits
// traces in the 2019 schema, plus the full analysis toolkit that
// regenerates every table and figure of the paper.
//
// # Architecture
//
// The system is layered, bottom to top:
//
//   - internal/sim — the discrete-event kernel: a virtual microsecond
//     clock and a pooled event heap (event records are slab-allocated
//     and recycled; cancellation goes through generation-checked
//     EventRef handles, so the kernel itself does not allocate per
//     event, which TestKernelStepZeroAllocs pins). An event is any value
//     with a Fire method: the scheduler schedules its tasks and jobs
//     themselves, core.Run one arrivals value for the whole run, and cold
//     callers wrap a closure in sim.Func. The queue is a typed binary
//     heap of slot ids with its own sift methods, not container/heap: the
//     (due, seq) comparison inlines, no slot id is boxed into an
//     interface, and because the sifts follow container/heap's algorithm
//     step for step the pop order is the one that package gave.
//     One kernel drives exactly one cell and is single-threaded by design.
//   - internal/rng, internal/dist — splittable deterministic randomness
//     (xoshiro256**) and the calibrated parametric distributions drawn
//     from it. All stochastic behavior flows through explicit sources, so
//     a trace is a pure function of (profile, horizon, seed).
//   - internal/cluster, internal/scheduler, internal/autopilot,
//     internal/workload — the simulated cell: machines, the Borg
//     scheduler (placement, preemption, batch queue), the vertical
//     autoscaler, and the per-cell workload generator. The pending
//     queue serves the strongest priority first and FIFO within a
//     priority, as Borg's scheduler scans it: one FIFO level (a slice
//     and a head index) per distinct priority, levels kept sorted by
//     priority, descending. Push appends to its level and pop takes the
//     head of the first non-empty one, so neither sifts, and warm levels
//     keep their arrays (TestPendingQueueSteadyStateZeroAllocs). A
//     cell's scheduler.Config is one value of its profile
//     (workload.CellProfile.Sched), and one switch scores candidates for
//     every policy: random-fit (first feasible candidate, the 2011
//     profile's), best-fit, least-allocated (the 2019 profiles'),
//     worst-fit, an oversubscription-aware scorer, and a no-retry
//     one-shot. Every policy compares preemption plans by victim count.
//     CLIs and sweep variants parse a policy name once, where it enters
//     (scheduler.ParsePolicy), and run-level overrides land on each
//     profile through core.RunKnobs.Apply. Each cell fact is kept
//     once and the rest derived from it: the scheduler's live-job table
//     is its only job registry (a terminating job's children, and an
//     alloc set's inner jobs, come from one scan of it and die in
//     collection-ID order), an alloc set's instances live only in its
//     instance list (the tasks an instance hosts are its machine's
//     residents that name it), and the overcommit policy is the cell's,
//     passed to cluster.BuildCell, which fixes each machine's ceiling
//     when the machine is added.
//   - internal/trace — the 2019-schema data model and the streaming sink
//     pipeline: rows flow through composable trace.Sink implementations
//     (MultiSink fan-out, CountingSink online reduction, DirSink CSV
//     export, the §9 invariant Validator; every cell owns its pipeline). Full
//     in-memory retention (MemTrace) is just one sink, attached only by
//     a caller that reads rows back; it stores each table in chunks that never
//     move (trace.Rows) and keeps no index, so retaining a row costs
//     only the row, and MemTrace.Replay feeds a stored trace through any
//     other sink. Usage rows reach a sink only in blocks (see "Usage
//     pipeline" below).
//   - internal/core — the single-cell façade: wires one cell's
//     components and sink pipeline and runs it to the horizon.
//   - internal/engine — multi-cell orchestration: runs N cell
//     simulations concurrently on a bounded worker pool and streams
//     results back in submission order. The engine owns the determinism
//     contracts: per-cell seeds derive from the root seed via
//     engine.DeriveSeed, per-cell collection-ID spaces are disjoint via
//     engine.IDBase, and therefore the same root seed yields
//     byte-identical traces at any parallelism.
//   - internal/analysis/streaming, internal/report, internal/experiments
//     — the evaluation: experiments.RunSuiteStreaming simulates the
//     paper's nine cells (2011 plus 2019 a–h) through the engine and
//     regenerates every table and figure. One package computes them:
//     streaming owns each figure's per-cell fold (streaming.CellReducer,
//     a trace.Sink attached to each cell that folds rows as the
//     simulation emits them), its finalize step and its exact
//     cross-cell merge; internal/report only renders. A stored trace is
//     analyzed by replaying it through a reducer (streaming.Replay).
//   - internal/sweep — parameter sweeps over the engine: seed × variant
//     × cell grids with common-random-numbers seeding, per-point
//     streaming reducers, and cross-seed statistics (mean, stddev, 95%
//     CI per variant × metric), reported by cmd/borgsweep.
//   - internal/fleet — warehouse-scale federation: O(100) synthetic
//     cells profile-sampled around the 2019 medians, streamed through
//     one engine pool with bounded memory and rolled up online into
//     fleet-level cross-cell percentiles (stats.Summarize, exact),
//     reported by cmd/borgfleet. internal/cliflags supplies the shared
//     flag set (-seed, -parallel, -policy, -arrival, -progress,
//     profiling, observability) all three CLIs register and parse
//     identically; its -progress reporter prints from the run registry
//     through metrics.ProgressLine, the formatter the live endpoint's
//     / page uses too.
//   - internal/metrics — the observability seam: a registry of typed
//     instruments every hot layer reports into, exporters (Prometheus
//     text, JSON, CSV, Chrome trace_event timelines), and the opt-in
//     live HTTP endpoint. See "Observability" below.
//
// # Placement fast path
//
// A machine's residents are its tasks. The scheduler keeps, per machine,
// one slice of value slots (scheduler.Slot), each holding the victim key
// inline — priority, then collection, then index — beside the task
// pointer and the task's last sampled usage, and maintains the
// machine's allocation and usage sums incrementally. A machine fixes
// its overcommit ceiling when it joins the cell, so a placement attempt
// scores each sampled candidate from O(1) sums instead of rescanning
// residents. Everything else about a resident (its request, tier and
// alloc hosting) is read from its task, and an alloc-hosted task counts
// a zero machine limit. A request changes in one place,
// Scheduler.UpdateTaskRequest, and the machine's allocation moves with
// it there. Scores are computed directly: the simulator models
// scheduler throughput through the scheduling server's service time, so
// the per-class score caching that real Borg uses (EuroSys 2015, §3.4)
// would save only host CPU. The slots are always in victim order:
// placement inserts by binary search and removal shifts in place, with
// no per-machine map and no re-sort. Every walk reads the slots
// themselves (Scheduler.Residents): the usage sampler, the preemption
// scan and the OOM victim pick finish reading before they change the
// machine, and machine maintenance, which evicts as it walks, first
// copies the resident tasks into a scheduler scratch slice and skips
// any that has left the machine by the time the walk reaches it. No
// walk makes a later placement copy anything. A slot is a value and a
// task's kernel events are the task itself, so steady-state placement
// performs zero heap allocations, for every policy (guarded by
// AllocsPerRun tests and a per-policy benchmark gate in CI). Machines
// are looked up in an ID-indexed table: IDs are dense from 1, so
// cluster.Cell keeps a []*Machine instead of a map, and the scheduler
// indexes its per-machine residents the same way. The scheduling
// server's service-completion callback is bound once, so queueing a
// service event allocates no closure. A cell no larger than the
// candidate sample is scanned whole, each machine once, so a lone fit is
// never missed. Determinism is a hard constraint:
// each policy's score is a pure function of the machine's state and the
// request, and the candidate RNG draw sequence does not depend on the
// policy's scores, so for a given build the same seed yields
// byte-identical traces at any parallelism. Traces are stable per build,
// not across versions: an optimization that reorders floating-point sums
// or random draws (as the fast path did) legitimately shifts same-seed
// trajectories relative to earlier commits.
//
// # Streaming analysis
//
// Trace retention, not simulation, used to bound suite horizons: every
// figure was once computed over a fully retained MemTrace, so memory
// grew with every usage record and life-cycle event. The streaming
// reducers invert that, and are now the only code that computes a
// figure. core.Run keeps no rows of its own: every row goes to the
// sinks a caller attaches. experiments.RunSuiteStreaming runs all nine
// cells with each cell's rows folding through one
// streaming.CellReducer (and, optionally, a sharded CSV export via
// trace.DirSink) before being dropped;
// experiments.RunSuite attaches the same reducers plus one
// trace.MemTrace per cell (Suite.Traces), for tests and tools that read
// rows. Per-instance
// state lives in its collection's instance table, a slice indexed by
// instance index (indexes far beyond those seen, or negative, go to a
// small side map, so a hostile trace cannot size the table), and
// Figure 10's first-ENABLE and first-SCHEDULE times are collection
// fields; each row does at most one collection lookup, memoized across
// adjacent rows. Reducer state grows with the number of jobs and tasks —
// the aggregates the figures inherently need — plus Figure 14's slack
// samples, one per job usage row, each stored once in chunks that never
// move. Folding rows instead of retaining them cut the LargeScale suite's
// peak heap by ~10x. Within a cell every product folds its terms in
// emission order, and cross-cell merges run in cell order, so the
// report is byte-identical at any parallelism and with or
// without retention. CI pins this with golden report hashes and pinned
// per-product hashes (both taken from a since-retired post-hoc analysis
// over retained traces), p1-vs-p8 determinism tests, a
// benchmark-regression gate against the checked-in baselines, and a
// peak-HeapAlloc ceiling on the LargeScale streaming suite.
//
// # Usage pipeline
//
// Usage sampling is the per-window hot loop: every five simulated
// minutes the sampler visits every occupied machine and emits one
// UsageRecord per resident task. At warehouse scale that loop dominates
// the profile, so both of its halves are allocation-free. The sampler
// side walks the cell's machines in ID order, skipping empty ones,
// reuses pooled observation and record buffers across windows, and
// keeps the partial usage of tasks that stopped mid-window in slices
// indexed by machine ID; a steady-state sampling window performs zero
// heap allocations (AllocsPerRun-guarded in CI, like the placement fast
// path). The autopilot the sampler feeds
// keeps each task's usage window in a table it owns, indexed by a small
// handle stored in the task, and keeps a list of tracked tasks, which it
// sweeps once per sampling window to release the handles of tasks that
// stopped running for reuse, so no per-window map exists on either
// side. It is allocation-free too once a task's window exists: each
// window keeps its CPU and memory peaks in sorted order, updated by one
// insertion and one removal per sample, so the windowed percentile is a
// read, never a sort (TestObserveSteadyStateZeroAllocs).
//
// The per-layer guards cannot see an interaction between layers, so a
// whole run is bounded too: core.Run allocates per job the Job. A kept
// job's tasks live by value in one array (a Task is 128 bytes, which
// TestTaskSize pins), which Submit fills from the task specs the
// workload source lends it. The arrays come from a per-cell pool that
// grows to about the peak number of live tasks: a finished job's array
// is retired, and Scheduler.Reclaim, which core.Run calls at the end of
// each sampling window, zeroes it for a later job of its size class (a
// power of two) once neither the pending queue nor the autopilot's
// tracked list can name its tasks. A job killed on arrival, a child whose
// parent has already ended, allocates only its Job
// (TestKilledOnArrivalZeroAllocs). Beyond that come pools that grow to
// the peak number of running tasks, and nothing per placement, restart,
// kernel event or usage window. TestRunAllocsPerJob holds a
// small cell's run to a per-job allocation budget, and
// TestPlaceAfterSampleZeroAllocs pins one such interaction: a task
// leaving and re-entering a machine the sampler has just walked must
// not copy its slots. The sampler reads each machine's slots in place
// and records usage through Scheduler.SetUsage, given the slot position
// it read; when memory pressure has evicted a task between the
// sampler's two passes, SetUsage finds each survivor's shifted slot by
// search.
//
// The delivery side batches: trace.Sink has one usage method,
// UsageBatch, and the sampler hands each machine-window's records to the
// sink as one []UsageRecord. A task that stops mid-window emits its
// partial record as a one-record batch from a slot the sampler reuses.
//
//   - A batch is ordered: how a stream is split into blocks never
//     changes the row sequence any downstream observes.
//   - The slice is only valid for the duration of the call (the sampler
//     reuses it next window); implementations that retain rows must
//     copy them out, as MemTrace does: it copies the block into its
//     chunked usage table, and MemTrace.Replay (behind streaming.Replay)
//     hands the stored rows back chunk by chunk through the same method.
//
// MultiSink forwards a batch to every child, CountingSink counts len(recs)
// in one step, DirSink formats each row from its table's schema
// (trace.Table) into one reused record and writes it through the table's
// 1 MB buffer, and streaming.CellReducer folds a whole batch with its
// per-collection classification memoized across adjacent rows. The
// export shard tree and the report are pinned by a SHA-256 and are
// byte-identical at any parallelism (TestExportTreeByteIdentical).
//
// What remains of the window cost after those two halves is mostly
// random-number arithmetic, on one exact path. Per resident the sampler
// draws a lognormal noise factor for CPU and one for memory (two
// Box–Muller normals, two math.Exp calls) and a uniform peak jitter, in
// that order; a task stopping mid-window draws the same three through
// the same helper. The noise is about 10% of a default-scale run's CPU.
// A cheaper draw would change the randomness sequence and so every
// report byte: it would land as one golden-hash rotation, judged by a
// paper-fidelity gate.
//
// # Workload generation and record/replay
//
// The workload generator's arrival timing is a pluggable seam:
// workload.ArrivalProcess decides when the next collection is submitted
// and by whom, running under the cell's diurnal rate envelope (its base
// rate times one daily sinusoid). Processes register by name —
// workload.ParseArrival turns a "name:knob=value,..." spec into a
// workload.ArrivalSpec and lists the valid set on a typo,
// workload.ArrivalNames feeds help text. The registry: "poisson" (the
// default diurnally-thinned Poisson stream — byte-identical at the same
// seed to the pre-API generator, pinned by a golden report hash in CI),
// "gamma:cv=C" and "weibull:cv=C" (renewal processes whose
// coefficient-of-variation knob dials burstiness a memoryless stream
// cannot express), and "cohorts:k=K,skew=S,cv=C" (K clients with
// Zipf-skewed rate shares, each an independent gamma renewal stream,
// superposed; the firing client is the submitting user). A spec is
// parsed once, where it enters: the -arrival flag of all three CLIs in
// cliflags.Common.Knobs, the polymorphic sweep family
// "arrival:gamma:cv=2.5,..." (numeric values still mean rate
// multipliers) in sweep.ParseVariants, a recording's meta.json in
// workload.ReadRecordingDir. Only the parsed value travels on, to
// workload.CellProfile.Arrival, which the generator reads;
// ArrivalSpec.String gives back the accepted text.
//
// The same seam makes workloads portable across runs:
// workload.Recorder wraps any generator and captures the exact
// arrival/job stream; workload.Replayer plays a capture back through
// the generator-facing interface, rebasing collection IDs onto the
// replaying run's ID space. A recording is a directory in the trace's
// layout, written by Recording.WriteDir and read by ReadRecordingDir
// through the same trace.Table codec as a trace: meta.json (the
// generating cell's trace.Meta, the arrival spec's text, the ID base and
// the format version, 2), jobs.csv (one row per collection: its arrival
// number and time, ID offset, attributes, outcome and kill delay) and
// tasks.csv (one row per task, in job order). It round-trips exactly —
// floats print with strconv 'g'/-1 — and each column's parser rejects a
// value a cell cannot replay, naming the file, line and column.
// experiments.SaveWorkloads/LoadWorkloads persist a suite's nine cells
// as one directory each (workload-<i>-<cell>/), driven by
// borgexperiments -record-workload/-replay-workload. Because core.Run
// derives its rng streams by labeled splits, replaying skips only the
// workload stream: a replay at the recording's seed reproduces the
// recording run's trace byte for byte, and the same recording replays
// byte-identically under any placement policy, parameter overlay or
// engine parallelism — Scale.Replay pins identical workloads across
// sweep variants (common random numbers beyond seeds), and CI's
// replay-smoke job checks record → replay → re-record fidelity end to
// end through the CLI.
//
// # Fleet federation
//
// internal/fleet scales the engine from the paper's nine-cell suite to
// warehouse footprints: fleet.Run expands a Config (cell count, median
// machine count, horizon, root seed) into O(100) synthetic cells whose
// profiles are lognormal-sampled around the calibrated 2019 medians —
// machine count, arrival rate, tier mix and diurnal phase all vary
// per cell — and streams them through one engine worker pool via
// engine.RunStream. Specs materialize only as workers pick them up;
// every cell runs with one streaming.CellReducer as its only sink, and
// each cell's metrics — the metric table's (experiments.Metrics) on the
// cell alone, less the ones that read the 2011 cell — are taken the
// moment its in-order result delivers, after which the reducer is
// released. The rollup keeps those values, one float per metric (27)
// per cell, and reads each metric's mean, percentiles and extremes from
// one stats.Summarize, the exact interpolated quantiles the report
// uses. Peak heap is therefore the cells started and not yet delivered
// — the running ones plus finished ones waiting behind a slower cell
// (see engine.RunStream) — plus those 27 floats per finished cell: the
// 128-cell CI smoke runs in a few MB against a 1536 MB ceiling.
// Determinism follows the engine contract: cell i simulates with
// engine.DeriveSeed(root, i) and a profile drawn from that seed's own
// splitter, so the report, rollup CSV and per-cell CSV are
// byte-identical at any parallelism and cell i's world never depends on
// the fleet size (fleets are CRN-comparable across knob changes).
// cmd/borgfleet drives it:
//
//	borgfleet -cells 128 -machines 60 -hours 4 -progress \
//	  -rollup-csv rollup.csv -cells-csv cells.csv
//
// # Parameter sweeps
//
// The paper's numbers are single-trace observations; internal/sweep
// quantifies their run-to-run variance and parameter sensitivity. A
// sweep is N root-seed replicates × M named profile variants (overlays
// mutating workload.CellProfile knobs: arrival-rate multipliers,
// machine-count scaling, tier-mix shifts, overcommit and
// admission-ceiling settings, and placement policies from the
// scheduler zoo — same clusters, same arrivals, different brains),
// each grid point simulating the full
// nine-cell suite with one streaming reducer per cell and no rows kept —
// wide sweeps cost reducer state, never retained traces. Grid seeds
// follow engine.DeriveGridSeed(root, run, cell): they depend only on the
// replicate and cell, never on the variant list, so all variants of a
// replicate face the same stochastic world (common random numbers) and
// cross-variant deltas are not seed noise. Each grid point reduces to a
// metric vector: the metric table (experiments.Metrics) evaluated over
// the point's nine cells exactly as the suite report evaluates it — the
// report's paper rows, Figure 8's 2019/2011 ratio and Table 2's top-1%
// load included — with each cell's reducer kept only until the point's
// ninth cell arrives; across replicates every variant × metric
// gets a stats.CrossRun — mean, sample stddev, min/max and a 95%
// Student-t confidence interval — rendered as a variant × metric report
// and per-metric CSVs. Because replicates share seeds across variants,
// the report closes with a paired-difference section (and
// paired_diffs.csv): every non-baseline variant differenced against
// the baseline replicate by replicate, with the paired Student-t 95%
// half-width (stats.PairedDiff) printed beside the Welch unpaired
// interval it beats. cmd/borgsweep drives it:
//
//	borgsweep -scale small -seeds 5 \
//	  -variants 'baseline;arrival:0.5,2.0;policy:best-fit,oversub' -csv out/
//
// Same root seed + same definition ⇒ byte-identical sweep report at any
// -parallel setting; CI smoke-tests exactly that.
//
// # Observability
//
// internal/metrics instruments the simulator without touching its
// determinism: a Registry of typed instruments — lock-free atomic
// counters and gauges, mutex-guarded histograms that keep their
// samples — that the scheduler (placement attempts, preemptions,
// pending-queue depth), the sim kernel (events dispatched, slab
// occupancy), the usage pipeline
// (windows sampled) and the trace layer (rows emitted per
// kind) report into. The contract is
// observe-only: instruments consume no randomness, schedule no events
// and write no trace rows, so a run with metrics attached is
// byte-identical to one without, at any parallelism — pinned by
// differential tests in internal/core, internal/experiments and
// internal/fleet, and the instrumented placement path stays zero-alloc
// (counters are bare atomic adds; histograms ride the usage sampler's
// periodic tick, never the hot path) under its own AllocsPerRun guard.
//
// Multi-cell runs roll up deterministically: engine.RunInstruments
// gives every cell a private registry (concurrent cells never share
// one) and merges them into the run-level registry in spec order on the
// engine's serialized OnResult path — the same discipline the streaming
// reducers use — so the rolled-up snapshot is byte-identical at any
// parallelism. Every merge is exact and order-independent: counters
// and gauges add, histograms concatenate their samples, and a snapshot
// reads each histogram's quantiles and sum from its sorted samples.
// A metrics.Timeline sits outside the determinism boundary and records
// wall-clock spans (warmup/run per cell, cell and reduce spans at
// the engine) exportable as Chrome trace_event JSON for
// chrome://tracing or Perfetto.
//
// The surface is uniform across the CLIs (internal/cliflags.Obs):
// -progress prints metrics.ProgressLine to stderr every second and its
// final line at Close; -http :6060 serves the same line at /, plus
// /metrics (Prometheus),
// /metrics.json, /metrics.csv, /timeline, /debug/pprof/ and
// /debug/vars while the run executes, bounded by a graceful shutdown
// when it completes (handlers render snapshots into local buffers, so
// a stalled scraper can never block the engine's OnResult path);
// -metrics FILE exports the final snapshot (format by extension) and
// -timeline FILE the run timeline. The shared run summary — elapsed
// wall time plus peak HeapAlloc from metrics.PeakHeapDuring, the one
// sampler behind the CI memory ceiling, the suite benchmarks and every
// CLI log line — records into the same registry (run_wall_seconds,
// peak_heap_bytes). CI's metrics-smoke job scrapes a live fleet run
// end to end and diffs its report against a metrics-off run.
//
// The root-level benchmarks (bench_test.go) measure the reducer pass,
// report rendering and the engine's parallel speedup; cmd/borgexperiments
// prints the whole evaluation (-parallel N simulates N cells
// concurrently without changing a byte of output), folding every row
// through the reducers without retaining a trace. PAPER.md holds the
// source paper's abstract and ROADMAP.md the project direction.
package repro
