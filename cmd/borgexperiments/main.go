// Command borgexperiments regenerates every table and figure of "Borg:
// the Next Generation" (EuroSys '20) from freshly simulated traces and
// prints paper-vs-measured comparisons.
//
// Simulation speed comes from two layers: -parallel N runs cells
// concurrently on the engine's worker pool, and within each cell the
// scheduler's allocation-free placement fast path (candidates scored
// from incremental machine aggregates — see the package docs) keeps
// per-placement cost constant as cells grow. Neither layer
// affects the output of a given build: for the same binary, the same
// seed yields the same report at every -parallel setting.
//
// Memory stays bounded too: the suite keeps no trace rows. Every row is
// folded online by one streaming reducer per cell
// (internal/analysis/streaming), which every figure renders from, and
// then dropped. Resident memory is bounded by per-job reducer state
// instead of growing with the horizon; CI enforces a peak-heap ceiling.
// -export DIR additionally writes each cell's trace as sharded CSV (one
// trace.DirSink subdirectory per cell) while simulating.
//
// Usage:
//
//	borgexperiments [-scale small|default|large] [-seed N] [-parallel N]
//	                [-policy NAME] [-arrival SPEC] [-export DIR]
//	                [-record-workload DIR] [-replay-workload DIR]
//	                [-progress] [-o report.txt]
//	                [-http :6060] [-metrics FILE] [-timeline FILE]
//	                [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -progress prints a cells-done / in-flight / ETA line to stderr every
// second, read from the run's metrics registry, and a final
// "suite: 9/9 done, ..." line when the run ends; peak HeapAlloc over the
// run is always reported, so the streaming path's memory claims are
// observable outside benchmarks.
//
// -http serves the live observability endpoint while the run executes
// (progress/ETA at /, Prometheus at /metrics, pprof under /debug/);
// -metrics writes the final metrics snapshot (sched_*, sim_*, usage_*,
// trace_* series; format by extension) and -timeline the wall-clock
// run timeline as Chrome trace_event JSON. Instruments observe only:
// none of the three changes a report or trace byte.
//
// -policy overrides every cell's placement policy (see the scheduler
// policy zoo: random-fit, best-fit, least-allocated, worst-fit, oversub,
// one-shot); -arrival overrides every cell's arrival process (poisson,
// gamma, weibull, cohorts — see workload.ParseArrival for knobs); by
// default each cell keeps its era's calibrated settings.
//
// -record-workload DIR captures each cell's generated arrival/job
// stream into one versioned recording file per cell under DIR;
// -replay-workload DIR replays such a directory instead of generating
// workloads, so the identical job stream can be rerun under any -policy
// or -parallel setting (the replayed trace is byte-identical across
// both).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/cliflags"
	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("borgexperiments: ")
	scaleName := flag.String("scale", "default", "simulation scale: small, default or large")
	common := cliflags.Register(flag.CommandLine, "root random seed")
	export := flag.String("export", "", "write per-cell CSV trace shards to this directory while simulating")
	recordDir := flag.String("record-workload", "", "record each cell's generated workload into this directory (one versioned file per cell)")
	replayDir := flag.String("replay-workload", "", "replay the recorded workloads in this directory instead of generating (see -record-workload)")
	out := flag.String("o", "", "write the report to this file instead of stdout")
	flag.Parse()

	knobs, err := common.Knobs()
	if err != nil {
		log.Fatal(err)
	}
	sc, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		log.Fatal(err)
	}
	if *replayDir != "" {
		recs, err := experiments.LoadWorkloads(*replayDir, sc)
		if err != nil {
			log.Fatal(err)
		}
		sc.Replay = recs
		log.Printf("replaying %d recorded workloads from %s", len(recs), *replayDir)
	}
	obs, err := common.StartObservability("suite", log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := obs.Close(); err != nil {
			log.Fatal(err)
		}
	}()

	sc.Seed = *common.Seed
	sc.Parallelism = *common.Parallel
	sc.RunKnobs = obs.Knobs(knobs)
	sc.RecordWorkload = *recordDir != ""

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}

	fmt.Fprintf(w, "Borg: the Next Generation — reproduction report\n")
	fmt.Fprintf(w, "scale=%s machines2011=%d machines2019=%dx8 horizon=%v seed=%d\n\n",
		sc.Name, sc.Machines2011, sc.Machines2019, sc.Horizon, sc.Seed)
	if *common.Parallel != 1 {
		log.Printf("simulating 9 cells, parallelism=%d", common.Workers())
	}

	var suite *experiments.Suite
	rs := obs.MeasureRun(func() {
		suite, err = experiments.RunSuiteStreaming(sc, experiments.StreamingOptions{ExportDir: *export})
	})
	if err != nil {
		log.Fatal(err)
	}
	if *export != "" {
		log.Printf("wrote 9 CSV shards under %s", *export)
	}
	if *recordDir != "" {
		if err := experiments.SaveWorkloads(*recordDir, suite.Stats); err != nil {
			log.Fatal(err)
		}
		log.Printf("recorded %d cell workloads under %s", len(suite.Stats), *recordDir)
	}
	fmt.Fprintf(w, "simulated 9 cells in %s\n\n", rs)
	if err := suite.WriteReport(w); err != nil {
		log.Fatal(err)
	}
}
