// Command bench is the repository's benchmark. It measures whole runs of
// borgexperiments' library entry points from start to written report, and
// the cost of each layer of the simulator inside them, on two named
// workloads. BENCHMARK.json at the repository root names the workloads and
// metrics, with each end-to-end metric's unit, direction and bound.
//
// Run it from the repository root; run.sh builds it under .bench_build/:
//
//	bash bench/run.sh -seed 1 -o results.json    # every workload
//	bash bench/run.sh --workload suite-stream --seed 2 --seconds 55 --trace 0
//	bash bench/run.sh -compare ../parent -seed 1 -o comparison.json
//
// The first form runs every workload: one discarded warm-up run each, then
// its timed runs round-robin across the workloads, then each workload's
// traced run with its stage and base runs (see The traced run). It prints
// one line per workload and metric (name, unit, median, quartiles and
// sample count) and -o writes the same data as JSON, with every sample and
// the SHA-256 of each input's outputs. The second form runs one workload
// and ends with a one-line JSON summary. With --trace 0 it makes the timed
// runs and the summary holds the end-to-end medians; with --trace 1 it
// makes only the traced, stage and base runs, and the summary holds the
// per-layer metrics. -seconds is each workload's budget for timed runs:
// a workload gets another timed run while its timed runs so far, and half
// of one more of their mean length, fit in it, and at least two. It defaults to
// BENCHMARK.json's run_seconds. The third form compares the parent
// checkout in ../parent with this one (see Comparing). bench/ is a module
// of its own, so the repository's go test ./... does not reach it; its
// unit tests run with "cd bench && go test ./...". baseline/ holds the -o
// files of two full invocations at seed 1 and one at seed 2, and of an A/A
// comparison at seed 1, made on a 2-core VM.
//
// # How it runs
//
// Every run is a fresh child process: the benchmark re-executes its own
// binary, so heap, GC pacing and caches never carry from one run to the
// next. Runs go one at a time with GOMAXPROCS pinned to min(2, nproc),
// which the output records. A timed run calls exactly the entry points
// the CLI's main calls and writes the outputs to real files under
// .bench_build/runs; the files are hashed and checked, then removed.
// Ten set-up probes (children that stop where a run would call its entry
// point) go before each timed run, or once before the traced runs when
// there are no timed runs. Spread over the whole run, they give setup_s a
// steady median, and the first ones load the binary before any run is
// timed.
//
// The seed is the only input: 1 is the development seed and 2 the holdout.
// Timed run i of a workload simulates input engine.DeriveSeed(seed, i), so
// each workload's medians are taken over several inputs rather than one.
// Runs differ by seed far more than by noise (allocation, which repeats to
// 0.1% on one input, varies by 8–15% between inputs), and a median over
// inputs moves less from seed to seed. The same seed always gives the same
// inputs. -compare instead repeats input 0 in every run, so that its pairs
// hold noise alone (see Comparing). The warm-up, base, traced and stage
// runs all simulate input 0. Every workload RNG stream is split off its
// input seed and never depends on scheduling, so the traced and stage runs
// see the same job stream; the benchmark asserts it, requiring equal
// scheduler.jobs_submitted in each.
//
// # Workloads
//
// Both are closed batch runs with one run in flight, at -parallel 1. They
// run the same simulation and render the same report, and differ in the
// layers between: one streams every trace row through the reducers, the
// other keeps every row and analyses it afterwards. So a change to the
// reducer or to the trace sinks has a workload where it must show and one
// where it must not.
//
//   - suite-stream is borgexperiments -stream at default scale and
//     -parallel 1: RunSuiteStreaming and WriteReport, 300 + 8×250 machines
//     for 24 h (55,200 machine-hours). Every layer runs. Rendering the
//     report is about a sixth of the run and Figure 14's quantile sorts are
//     nearly all of that; the streaming reducer is about another sixth.
//     Render, heap, autopilot and reducer-state changes must show here.
//   - suite-retained is borgexperiments' default: RunSuite and
//     Suite.WriteReport at the same scale and seed. The simulation is the
//     same, but every trace row is kept in a MemTrace (about 1.1 GB live,
//     6 GB allocated) and the report is computed post hoc, with no
//     streaming reducer. A reducer-only change predicts no change here;
//     rerouting retained runs through the reducer lands here.
//
// borgfleet (192 small cells) and borgsweep (54 small-scale cells under
// three variants) were workloads too, at -parallel 2, and were dropped.
// On a shared 2-core VM, both of whose cores they keep busy, their time
// metrics were two to three times as noisy as the suites': back-to-back
// runs on one input differed by 15–20% (interquartile range of the pair
// ratios) against the suites' 7%, and the medians of ten seeds spread by
// up to 29%. With two workloads, each single-workload invocation can also
// measure for 55 seconds rather than 20 in the same total time. The
// scheduler, the sampler and the engine still run in both suites.
//
// # End-to-end metrics
//
// All are measured on the timed runs, with tracing off.
//
//   - wall_s: the child's clock, from its first call into the entry point
//     until the last output file is closed.
//   - cpu_s: the child's user + system CPU time, from the parent's
//     ProcessState.
//   - machine_hours_per_s: simulated machine-hours ÷ wall_s.
//   - setup_s: from just before the parent's exec to the child's first call
//     into the entry point, over the probes and the timed runs. Work moved
//     out of a run into package initialisation shows here.
//   - peak_live_heap_mb: the largest runtime/metrics /gc/heap/live:bytes,
//     polled every 5 ms. It is what the last GC found reachable, so it does
//     not depend on when a sample falls between collections.
//   - alloc_mb: the /gc/heap/allocs:bytes delta over the run.
//
// Peak HeapAlloc, which the CLIs print, and maximum RSS are not used,
// because they follow GC pacing and repeat worse. Four identical
// suite-stream runs on one input, on a 2-core VM, read 110.7–121.6 MB of
// peak live heap, 132–151 MB of peak HeapAlloc and 248–303 MB of maximum
// RSS.
//
// BENCHMARK.json's bounds are for comparing the medians of single-workload
// invocations over a set of seeds, and each must hold the spread of ten
// seeds' values (interquartile range over median). Measured on a shared
// 2-core VM in two sets of ten seeds per workload, 55 seconds of timed
// runs each (two to five runs, so each seed's value is a median over as
// many inputs), those spreads were 11–16% for wall_s, cpu_s and
// machine_hours_per_s, 3–7% for peak_live_heap_mb, 4–9% for alloc_mb and
// 9–16% for setup_s, and the second set's medians were within 8.4% of the
// first's. The time metrics' spread is mostly the machine's speed
// drifting over the ten minutes a set takes: in one set suite-stream's
// wall_s fell from 14 s to 11.5 s while its alloc_mb, which follows the
// work, stayed level. Longer runs do not remove that. alloc_mb repeats to
// 0.1% on one input, so its spread is the inputs' own. So the time, heap
// and set-up metrics are bounded at 25% and alloc_mb at 20%. -compare
// measures pairs on one input and holds tighter bounds (see Comparing).
//
// Failures are counted against attempts: the failed_frac line, and the
// "failed" field of the one-line summary. A run fails if it exits non-zero,
// panics or misses its deadline (about five times its usual length), if
// its outputs' SHA-256 differs from the first run of its group at that
// input seed with the same benchmark binary (suite-stream and
// suite-retained form one group, so the streaming report must equal the
// retained one, and traced runs must equal untraced ones), or if the
// report lacks any of its 16 steps. The first hashes are kept under
// .bench_build/hashes, so the check spans invocations in one checkout. The
// benchmark exits non-zero when any run failed.
//
// # Per-layer metrics
//
// Each comes from one traced run per workload, or from comparing it with
// the stage runs and a base run: an untraced run of the same input, 0,
// made back to back with them, because on a shared machine speed drifts
// over minutes by more than the layer costs being compared. A metric that
// does not apply to a workload reads 0. The counts come from a
// metrics.Registry attached through RunKnobs.Metrics, which only observes.
// They repeat exactly from run to run on one input, so a change that
// claims only speed must leave them identical: -compare calls any change
// in one worse (countMetrics lists them). BENCHMARK.json gives each count
// a direction only because its format requires one.
// Below, each layer's metrics, the end-to-end metric they move, and the
// workloads they show on / are predicted flat on.
//
//   - report rendering (experiments, report, stats): render.busy_s, one
//     render.<step>_s per WriteReport step (table1 fig1 fig2_4 fig3_5 fig6
//     fig7 allocsets terminations fig8 fig9 fig10 fig11 table2 fig12 fig13
//     fig14), cpu.render. Moves wall_s. Shows on both suites; on
//     suite-retained the post-hoc analysis runs inside the steps too.
//   - post-hoc analysis: the render.* metrics of suite-retained and
//     cpu.analysis. Moves wall_s and alloc_mb. Shows on suite-retained;
//     flat on suite-stream.
//   - streaming reducer (analysis/streaming): streaming.busy_s,
//     streaming.instance_s, .usage_s, .collection_s, .calls, .ns_per_row,
//     streaming.live_mb (live heap after the simulation, before rendering),
//     stage.reduce_s, stage.reduce_alloc_mb, cpu.streaming. Moves wall_s
//     and peak_live_heap_mb. Shows on suite-stream; flat on suite-retained.
//   - trace sinks: trace.rows_instances, .rows_usage, .rows_collections,
//     .rows_machines, stage.memtrace_s, stage.memtrace_alloc_mb, cpu.trace.
//     Moves peak_live_heap_mb, alloc_mb and wall_s. Shows on
//     suite-retained; flat on suite-stream.
//   - scheduler: scheduler.jobs_submitted, .placement_attempts,
//     .tasks_placed, .placement_retries, .preemptions, .oom_evictions,
//     .failed_restarts, .placed_per_attempt, .score_cache_hit_ratio,
//     .queue_depth_p50, .queue_depth_p99, cpu.scheduler, cpu.cluster. Moves
//     wall_s and machine_hours_per_s on both suites; its share is smallest
//     in suite-retained.
//   - sim kernel: sim.events, sim.host_ns_per_event (the base run's
//     simulation time per event), sim.event_slab_max, cpu.sim,
//     cpu.x.container_heap. Moves wall_s on both suites; the event heap is
//     13–16% of CPU in each.
//   - usage sampler (core): core.usage_windows, core.records_per_window,
//     cpu.core. Moves wall_s on both suites.
//   - autopilot: autopilot.updates, stage.autopilot_s,
//     stage.autopilot_alloc_mb, cpu.autopilot. Moves wall_s and alloc_mb on
//     both suites.
//   - workload generator: cpu.workload. Moves wall_s. Small in both.
//   - engine: engine.cell_s_p50, .cell_s_p90, engine.flush_s,
//     engine.worker_busy_frac, from each cell's warmup, run and flush spans
//     on the run timeline. Moves wall_s; at parallelism 1 the one worker is
//     busy for the whole simulation.
//   - Go runtime: runtime.gc_cycles (of the base run), cpu.gc, cpu.other,
//     cpu.x.malloc, cpu.x.sort, cpu.x.mapaccess. Move cpu_s and alloc_mb.
//     Show most on suite-retained.
//   - the benchmark itself: bench.tracing_overhead_frac,
//     bench.reconcile_residual_frac, bench.timer_ns.
//
// # The traced run
//
// The traced run of each workload is measured apart from the timed runs;
// bench.tracing_overhead_frac is its wall time ÷ the base run's − 1.
//
// On suite-stream the benchmark builds the suite's cells itself, with
// SuiteSpecs, NewCellReducerFor, AttachSinks and NoMemTrace, exactly as
// RunSuiteStreaming does, but wraps each reducer in a sink that times
// every call. The wrapper also takes usage batches, so delivery stays
// batched. It then renders through StreamingSuite.WriteReport, and the
// report must hash like an untraced run's. Each timed call's interval
// holds part of its own clock reads; bench.timer_ns measures that part on
// empty calls, and timer_ns × calls is subtracted from streaming.busy_s.
//
// WriteReport writes a lone "\n" after each of its 16 steps and nowhere
// else; the traced run timestamps those writes to split render time into
// steps, and fails unless exactly 16 occur. Engine metrics come from the
// timeline attached through RunKnobs.Timeline: each cell's warmup, run and
// flush spans. The engine's own per-cell span is not used, because at
// parallelism above 1 it includes waiting to deliver results in order.
//
// Stage runs split the suite's simulation. The sim stage runs the nine
// cells with NoMemTrace and no reducer; sim-noautopilot also sets
// DisableAutopilot. stage.sim_s and stage.sim_noautopilot_s are their
// simulation times. stage.reduce_s (suite-stream) and stage.memtrace_s
// (suite-retained) are the base run's simulation time less
// stage.sim_s, and the _alloc_mb metrics are the same differences in
// allocation. stage.autopilot_s is stage.sim_s less
// stage.sim_noautopilot_s, and it is approximate: without autopilot, task
// limits stay at their requests, so placement, preemption and eviction
// change and the two runs do not schedule the same work.
// stage.sim_tasks_placed and stage.sim_noautopilot_tasks_placed show by
// how much.
//
// bench.reconcile_residual_frac checks that the layers add up, on
// suite-stream: it is |T − (setup_s + stage.sim_s + streaming.busy_s +
// render.busy_s)| ÷ T, where T is setup_s plus the base run's wall_s.
// It uses the untraced run rather than the traced one because the traced
// run's extra time is tracing overhead, no layer's cost; that overhead is
// reported apart as bench.tracing_overhead_frac.
//
// # CPU attribution
//
// Each traced run writes a runtime/pprof CPU profile, which the benchmark
// decodes itself. Each sample is charged to the innermost frame of a layer
// package on its stack: experiments and report (render), analysis,
// analysis/streaming, trace, scheduler, cluster, sim, core, autopilot or
// workload. Standard-library and runtime frames, and helper packages such
// as rng, dist, stats, metrics, engine, fleet and sweep, are skipped, so
// sort, container/heap, mallocgc and stats.Quantile count against the
// layer that called them. A sample with no layer frame counts as gc when
// a garbage-collector frame is on its stack, and as other otherwise. The
// cpu.x.* metrics are the share of samples whose stack holds that function
// anywhere: container/heap, runtime.mallocgc, sort and slices, and map
// access.
//
// The blind spot: the sim kernel, the scheduler and the usage sampler run
// interleaved inside one event loop, so timing calls from outside cannot
// separate them. Until the program traces its own layers, only their CPU
// shares tell them apart.
//
// # Comparing
//
// -compare DIR compares the parent checkout in DIR with this one. It
// builds this benchmark's code a second time against DIR's program (a copy
// of bench/go.mod that points repro at DIR), so both sides run the same
// benchmark and only the program differs; DIR must still have the
// functions the benchmark calls. It then makes every run of a plain
// invocation once per side, the two sides taking turns to go first, with
// at least ten timed pairs per workload, all on input 0. A pair's runs are
// therefore on the same input and seconds apart, and the machine's speed
// drifting over the session, by up to 75% over tens of minutes on a
// shared 2-core VM, shifts both sides alike. For that reason -compare
// never compares -o files from separate invocations.
//
// It prints, per workload and end-to-end metric, each side's median and
// quartiles, the change in the median, the pairs the change won, the
// interquartile range of the pairs' ratios (change ÷ parent, turned so
// that below 1 is better), and one verdict:
//
//   - improved: at least ten pairs, the change better in at least nine
//     tenths of them, and the medians further apart than the parent's
//     interquartile range;
//   - unresolved: the pairs' ratios spread wider than the bound, and not
//     every change run is better than every parent run;
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - no-worse: otherwise.
//
// Its bounds (pairedBounds) are the ones this benchmark was specified
// with: 10% for wall_s, cpu_s and machine_hours_per_s; 25% or 0.05 s,
// whichever is larger, for setup_s; 5% or 5 MB for peak_live_heap_mb; and
// 2% for alloc_mb. An A/A comparison, this build against itself on a
// shared 2-core VM (baseline/aa-seed1.txt and .json), gave no improved or
// worse verdict. Its pairs' ratios spread by at most 0.04% for alloc_mb,
// 6–9% for the time metrics and 36% of setup_s's 2 ms, inside their
// bounds, but by 8–15% for peak_live_heap_mb; those rows read unresolved,
// as they should where the noise is wider than the bound. Any output whose
// SHA-256 differs between the sides, any count metric that differs, and
// any rise in failed runs are each a worse row of their own. Every
// per-layer metric's change follows. -o writes both sides' results. It
// exits non-zero if any row is worse or any run failed.
package main
