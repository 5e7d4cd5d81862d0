// Multicell: reproduces the paper's inter-cell variation findings
// (Figures 3/5/6, §4): each of the eight 2019 cells runs a different
// workload mix — cell b is batch-heavy, cell a production-heavy, cell h
// mid-tier-heavy — and machine utilization differs visibly between cells.
// The cells simulate concurrently on the engine's worker pool; the
// -parallel flag changes only how long that takes, never the numbers.
//
// The analysis here is fully streaming: each cell runs through
// experiments.RunCells, the pipeline every multi-cell runner uses, with
// one streaming.CellReducer and no other sink, so no trace is ever
// retained — every figure below is read from reducer state after
// the rows were folded online and dropped. Memory stays bounded no
// matter the horizon; the numbers are byte-identical to what replaying a
// retained trace through the same reducer (streaming.Replay) produces.
//
//	go run ./examples/multicell [-parallel N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/analysis/streaming"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	parallel := flag.Int("parallel", 0, "cells simulated concurrently (0 = all CPUs)")
	flag.Parse()

	const machines = 80
	const rootSeed = 100
	horizon := 8 * sim.Hour

	cells := []string{"a", "b", "h"} // the paper's three named extremes
	fmt.Printf("simulating cells a (prod-heavy), b (beb-heavy), h (mid-heavy), parallelism=%d, streaming...\n", *parallel)
	start := time.Now()
	var averages []streaming.TierAverages
	var reducers []*streaming.CellReducer
	// Each cell is its own group, handed over in order while later cells
	// may still be simulating; the reducer already holds the folded
	// state, so this reads it without touching any trace.
	experiments.RunCells(len(cells), 1, func(i int) engine.Spec {
		return engine.NewSpec(i, workload.Profile2019(cells[i], machines),
			core.Options{Horizon: horizon}, rootSeed)
	}, core.RunKnobs{}, *parallel, func(i int, rs []*streaming.CellReducer, results []core.CellResult) {
		reducers = append(reducers, rs[0])
		averages = append(averages, rs[0].AverageUsageByTier(3*sim.Hour))
		fmt.Printf("  cell %s done: %d rows folded, reducer state %s\n",
			cells[i], results[0].Rows.Total(), rs[0].Counts())
	})
	fmt.Printf("simulated %d cells in %v\n", len(cells), time.Since(start).Round(time.Millisecond))

	if err := report.TierAveragesTable(os.Stdout,
		"\naverage CPU usage by tier (fraction of cell capacity, Figure 3)",
		averages, "cpu"); err != nil {
		log.Fatal(err)
	}

	// The headline inter-cell contrasts the paper calls out; averages
	// arrived in cell order.
	a, b, h := averages[0], averages[1], averages[2]
	fmt.Printf("\ncell b beb share of usage:  %.0f%% (largest of the three)\n",
		100*b.CPU[trace.TierBestEffortBatch]/total(b))
	fmt.Printf("cell a prod share of usage: %.0f%% (largest of the three)\n",
		100*a.CPU[trace.TierProduction]/total(a))
	fmt.Printf("cell h mid share of usage:  %.0f%% (largest of the three)\n",
		100*h.CPU[trace.TierMid]/total(h))

	// Machine utilization medians differ between cells (Figure 6).
	fmt.Println("\nmachine CPU utilization at mid-trace (Figure 6):")
	for i, r := range reducers {
		cpu, _ := r.MachineUtilization()
		fmt.Printf("  cell %s: median %.2f  p90 %.2f\n",
			cells[i], stats.Quantile(cpu, 0.5), stats.Quantile(cpu, 0.9))
	}
}

func total(a streaming.TierAverages) float64 {
	t := 0.0
	for _, tier := range trace.Tiers() {
		t += a.CPU[tier]
	}
	return t
}
