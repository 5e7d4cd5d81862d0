// Sweep: quantifies run-to-run variance and parameter sensitivity of
// the reproduction's headline numbers. The paper reports single-trace
// observations; this example reruns a small nine-cell suite under three
// replicate seeds × four variants — half/paper/double arrival load plus
// a best-fit placement-policy arm from the scheduler zoo — and prints
// cross-seed means with 95% confidence intervals for each sweep metric,
// ending with the paired-difference section: each variant differenced
// against the baseline replicate by replicate.
//
// Every grid point streams through per-cell reducers and keeps no rows,
// so the simulations cost reducer state, not retained traces, and the
// grid's common-random-numbers seeding means the variants' differences
// are not seed noise — which is exactly why the paired 95% intervals
// come out tighter than the unpaired ones printed beside them.
//
//	go run ./examples/sweep [-parallel N]
package main

import (
	"flag"
	"log"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func main() {
	log.SetFlags(0)
	parallel := flag.Int("parallel", 0, "cells simulated concurrently (0 = all CPUs)")
	flag.Parse()

	bestFit, err := sweep.PolicyVariant("best-fit")
	if err != nil {
		log.Fatal(err)
	}
	def := sweep.Def{
		Scale: experiments.Scale{Name: "example", Machines2011: 60, Machines2019: 50,
			Horizon: 6 * sim.Hour, Warmup: 2 * sim.Hour, Seed: 1, Parallelism: *parallel},
		Seeds: 3,
		Variants: []sweep.Variant{
			sweep.ArrivalScale(0.5),
			sweep.Baseline(),
			sweep.ArrivalScale(2),
			bestFit,
		},
	}

	start := time.Now()
	res, err := sweep.Run(def)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("swept %d × %d × %d cells in %v",
		def.Seeds, len(def.Variants), res.Cells, time.Since(start).Round(time.Millisecond))
	if err := res.WriteReport(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
