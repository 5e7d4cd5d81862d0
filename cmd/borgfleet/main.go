// Command borgfleet runs warehouse-scale federations: N synthetic cells
// sampled around the paper's 2019 medians (machine count, arrival rate,
// tier mix per cell), simulated in one process on the engine's worker
// pool with bounded memory, and rolled up online into fleet-level
// cross-cell percentiles (p50/p90/p99 per scalar metric).
//
// Every cell runs with one streaming reducer and keeps no rows; cell specs
// materialize only as workers pick them up and are released as soon as
// their scalars fold into the rollup, so peak memory is O(-parallel)
// cells regardless of fleet size. Cell i of a fleet rooted at -seed R
// simulates with engine.DeriveSeed(R, i): the fleet report and CSVs are
// byte-identical at any -parallel setting, and cell i's world never
// depends on the fleet size, so fleets are CRN-comparable across knob
// changes.
//
// Usage:
//
//	borgfleet [-cells N] [-machines N] [-hours H] [-seed N] [-parallel N]
//	          [-policy NAME] [-arrival SPEC] [-progress]
//	          [-o report.txt] [-cells-csv FILE] [-rollup-csv FILE]
//	          [-http :6060] [-metrics FILE] [-timeline FILE]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -policy and -arrival override every sampled cell's placement policy /
// arrival process (fleet-wide knob ablations under CRN). -progress prints
// a cells-done / in-flight / ETA line to stderr every second, read from
// the run's metrics registry, and a final "fleet: N/N done, ..." line
// when the fleet ends. Peak HeapAlloc is always reported so the
// bounded-memory claim is observable.
//
// -http/-metrics/-timeline are the shared observability set (see
// internal/cliflags): a live Prometheus + pprof + progress endpoint
// while the fleet runs, the final fleet-level metrics rollup exported
// by extension, and the wall-clock run timeline as Chrome trace_event
// JSON. Instruments observe only — report and CSV bytes are unchanged.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"

	"repro/internal/cliflags"
	"repro/internal/fleet"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("borgfleet: ")
	cells := flag.Int("cells", 128, "fleet size (number of synthetic cells)")
	machines := flag.Int("machines", 60, "median machines per cell (lognormal across the fleet)")
	hours := flag.Float64("hours", 4, "simulated horizon per cell, in hours")
	common := cliflags.Register(flag.CommandLine, "fleet root seed")
	out := flag.String("o", "", "write the fleet report to this file instead of stdout")
	cellsCSV := flag.String("cells-csv", "", "stream per-cell scalar rows to this CSV file")
	rollupCSV := flag.String("rollup-csv", "", "write the cross-cell rollup to this CSV file")
	flag.Parse()

	if err := common.Validate(); err != nil {
		log.Fatal(err)
	}
	obs, err := common.StartObservability("fleet", log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := obs.Close(); err != nil {
			log.Fatal(err)
		}
	}()

	cfg := fleet.Config{
		Cells:          *cells,
		MedianMachines: *machines,
		Horizon:        sim.FromHours(*hours),
		Seed:           *common.Seed,
		Parallelism:    *common.Parallel,
	}
	cfg.RunKnobs = obs.Knobs(common.Knobs())

	var cellWriter *fleet.CellCSV
	if *cellsCSV != "" {
		f, err := os.Create(*cellsCSV)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		cellWriter = fleet.NewCellCSV(f)
		cfg.OnCell = cellWriter.Cell
	}

	effective := *common.Parallel
	if effective <= 0 {
		effective = runtime.GOMAXPROCS(0)
	}
	log.Printf("simulating %d cells (median %d machines, %gh horizon), parallelism %d",
		*cells, *machines, *hours, effective)

	var rep *fleet.Report
	rs := obs.MeasureRun(func() {
		rep = fleet.Run(cfg)
	})
	log.Printf("simulated %d cells (%d machines) in %s", rep.Cells, rep.TotalMachines, rs)

	if cellWriter != nil {
		if err := cellWriter.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote per-cell scalars to %s", *cellsCSV)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	fmt.Fprintln(w)
	if err := rep.WriteText(w); err != nil {
		log.Fatal(err)
	}
	if *rollupCSV != "" {
		f, err := os.Create(*rollupCSV)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote rollup to %s", *rollupCSV)
	}
}
