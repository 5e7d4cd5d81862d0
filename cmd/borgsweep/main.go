// Command borgsweep runs seed × profile parameter sweeps over the
// nine-cell suite and reports cross-seed statistics per variant: mean,
// sample stddev, min/max and a 95% Student-t confidence interval for
// every sweep metric, plus per-metric CSV exports for plotting.
//
// Every grid point keeps no rows: each cell's rows fold
// through a streaming reducer and are dropped, so even wide sweeps cost
// reducer state rather than retained traces. The grid is deterministic —
// same root seed and definition produce byte-identical reports at any
// -parallel setting — and grid seeds depend only on (seed, replicate,
// cell), so every variant faces the same simulated worlds (common random
// numbers; see internal/sweep). That seeding discipline is what the
// paired-difference section at the end of the report exploits: each
// non-baseline variant's metrics are differenced against the baseline
// replicate by replicate, and the paired Student-t 95% interval on the
// difference is printed next to the Welch unpaired interval it beats
// (also exported as paired_diffs.csv with -csv).
//
// Usage:
//
//	borgsweep [-scale small|default|large] [-seed N] [-seeds N]
//	          [-variants SPEC] [-parallel N] [-policy NAME]
//	          [-arrival SPEC] [-progress] [-o report.txt] [-csv DIR]
//	          [-http :6060] [-metrics FILE] [-timeline FILE]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -progress prints a grid-points-done / in-flight / ETA line to stderr
// every second, read from the run's metrics registry, and a final
// "sweep: N/N done, ..." line when the sweep ends; peak HeapAlloc over
// the sweep is always reported. -policy and
// -arrival set sweep-wide profile defaults that individual variants may
// still override. -http/-metrics/-timeline are the shared observability
// set (see internal/cliflags): live Prometheus + pprof endpoint during
// the sweep, final snapshot export, Chrome trace_event run timeline —
// all observe-only, never changing report bytes.
//
// where SPEC is semicolon-separated clauses: "baseline", a numeric
// family "family:v1,v2,..." (arrival, machines, overcommit,
// allocceiling, prodshift), the placement-policy family
// "policy:name1,name2,..." (random-fit, best-fit, least-allocated,
// worst-fit, oversub, one-shot — the scheduler policy zoo), arrival
// processes "arrival:gamma:cv=2.5,cohorts:k=40" (poisson, gamma,
// weibull, cohorts — numeric values still mean rate multipliers), or a
// named composite "name:knob=value,..." where knob is any family,
// policy, or an arrival-process spec (multi-knob arrival specs join
// their knobs with + since , separates composite knobs, e.g.
// "bursty:arrival=cohorts:k=40+skew=1.5,policy=best-fit").
// Examples:
//
//	borgsweep -scale small -seeds 5 -variants arrival:0.5,1.0,2.0
//	borgsweep -seeds 3 -variants "overcommit:0.8,1.25;allocceiling:0.5;baseline"
//	borgsweep -seeds 5 -variants "baseline;policy:best-fit,worst-fit"
//	borgsweep -seeds 5 -variants "baseline;arrival:gamma:cv=2.5,weibull:cv=3"
//	borgsweep -seeds 5 -variants "baseline;zoo-hot:policy=oversub,arrival=1.5"
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("borgsweep: ")
	scaleName := flag.String("scale", "small", "simulation scale: small, default or large")
	common := cliflags.Register(flag.CommandLine, "sweep root seed")
	seeds := flag.Int("seeds", 5, "number of root-seed replicates per variant")
	variantSpec := flag.String("variants", "baseline",
		"variant spec: semicolon-separated clauses — numeric families (arrival, machines, overcommit, allocceiling, prodshift), "+
			"placement policies (policy:best-fit,...; see scheduler zoo), arrival processes (arrival:gamma:cv=2.5,...), "+
			"named composites (name:policy=oversub,arrival=1.5) or baseline")
	out := flag.String("o", "", "write the sweep report to this file instead of stdout")
	csvDir := flag.String("csv", "", "export per-metric and summary CSVs to this directory")
	flag.Parse()

	if err := common.Validate(); err != nil {
		log.Fatal(err)
	}
	prof, err := common.StartProfiling()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			log.Fatal(err)
		}
	}()
	obs, err := common.StartObservability("sweep", log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := obs.Close(); err != nil {
			log.Fatal(err)
		}
	}()

	var sc experiments.Scale
	switch *scaleName {
	case "small":
		sc = experiments.SmallScale()
	case "default":
		sc = experiments.DefaultScale()
	case "large":
		sc = experiments.LargeScale()
	default:
		log.Fatalf("unknown scale %q", *scaleName)
	}
	sc.Seed = *common.Seed
	sc.RunKnobs = obs.Knobs(common.Knobs())

	variants, err := sweep.ParseVariants(*variantSpec)
	if err != nil {
		log.Fatal(err)
	}
	def := sweep.Def{Scale: sc, Seeds: *seeds, Variants: variants, Parallelism: *common.Parallel}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}

	effective := *common.Parallel
	if effective <= 0 {
		effective = runtime.GOMAXPROCS(0)
	}
	log.Printf("sweeping %d seeds × %d variants × 9 cells at scale %q (%d simulations, parallelism %d, streaming reducers)",
		*seeds, len(variants), sc.Name, *seeds*len(variants)*9, effective)

	var res *sweep.Result
	rs := obs.MeasureRun(func() {
		res, err = sweep.Run(def)
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("simulated %d cells in %s", *seeds*len(variants)*res.Cells, rs)

	fmt.Fprintf(w, "Borg: the Next Generation — parameter-sweep report\n\n")
	if err := res.WriteReport(w); err != nil {
		log.Fatal(err)
	}
	if *csvDir != "" {
		if err := res.WriteCSVs(*csvDir); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d metric CSVs + summary.csv + paired_diffs.csv under %s", len(res.Metrics), *csvDir)
	}
}
