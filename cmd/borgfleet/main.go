// Command borgfleet runs warehouse-scale federations: N synthetic cells
// sampled around the paper's 2019 medians (machine count, arrival rate,
// tier mix per cell), simulated in one process on the engine's worker
// pool with bounded memory, and rolled up online into fleet-level
// cross-cell percentiles (p50/p90/p99 per metric). A cell's metrics are
// the metric table's (internal/experiments) evaluated on the cell alone,
// less the ones that read the suite's 2011 cell.
//
// Every cell runs with one streaming reducer and keeps no rows; cell specs
// materialize only as workers pick them up and are released as soon as
// their metrics fold into the rollup, so peak memory is the cells started
// and not yet folded: the -parallel running ones plus finished ones
// waiting behind a slower cell, however large the fleet. Cell i of a fleet rooted at -seed R
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

	"repro/internal/cliflags"
	"repro/internal/fleet"
	"repro/internal/report"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("borgfleet: ")
	cliflags.SetGCTarget()
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run parses args, simulates the fleet, writes its report to -o (or
// stdout) and its CSVs, and logs progress to logw. It checks the fleet's
// sizes before it starts observability or creates any file.
func run(args []string, stdout, logw io.Writer) (err error) {
	fs := flag.NewFlagSet("borgfleet", flag.ExitOnError)
	cells := fs.Int("cells", 128, "fleet size (number of synthetic cells)")
	machines := fs.Int("machines", 60, "median machines per cell (lognormal across the fleet)")
	hours := fs.Float64("hours", 4, "simulated horizon per cell, in hours")
	common := cliflags.Register(fs, "fleet root seed")
	out := fs.String("o", "", "write the fleet report to this file instead of stdout")
	cellsCSV := fs.String("cells-csv", "", "stream per-cell metric rows to this CSV file")
	rollupCSV := fs.String("rollup-csv", "", "write the cross-cell rollup to this CSV file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lg := log.New(logw, "borgfleet: ", 0)

	knobs, err := common.Knobs()
	if err != nil {
		return err
	}
	cfg := fleet.Config{
		Cells:          *cells,
		MedianMachines: *machines,
		Horizon:        sim.FromHours(*hours),
		Seed:           *common.Seed,
		Parallelism:    *common.Parallel,
	}
	if err := cfg.Check(); err != nil {
		return err
	}
	obs, err := common.StartObservability("fleet", lg.Printf)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := obs.Close(); err == nil {
			err = cerr
		}
	}()
	cfg.RunKnobs = obs.Knobs(knobs)

	var cellWriter *fleet.CellCSV
	if *cellsCSV != "" {
		f, err := os.Create(*cellsCSV)
		if err != nil {
			return err
		}
		defer f.Close()
		cellWriter = fleet.NewCellCSV(f)
		cfg.OnCell = cellWriter.Cell
	}

	lg.Printf("simulating %d cells (median %d machines, %gh horizon), parallelism %d",
		*cells, *machines, *hours, common.Workers())

	var rep *fleet.Report
	rs := obs.MeasureRun(func() {
		rep, err = fleet.Run(cfg)
	})
	if err != nil {
		return err
	}
	lg.Printf("simulated %d cells (%d machines) in %s", rep.Cells, rep.TotalMachines, rs)

	if cellWriter != nil {
		if err := cellWriter.Close(); err != nil {
			return err
		}
		lg.Printf("wrote per-cell metrics to %s", *cellsCSV)
	}

	writeReport := func(w io.Writer) error {
		fmt.Fprintln(w)
		return rep.WriteText(w)
	}
	if *out != "" {
		err = report.WriteFile(*out, writeReport)
	} else {
		err = writeReport(stdout)
	}
	if err != nil {
		return err
	}
	if *rollupCSV != "" {
		if err := report.WriteFile(*rollupCSV, rep.WriteCSV); err != nil {
			return err
		}
		lg.Printf("wrote rollup to %s", *rollupCSV)
	}
	return nil
}
