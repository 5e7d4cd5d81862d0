// Quickstart: simulate a small 2019-profile Borg cell for six hours,
// validate its trace, and print headline statistics computed by a
// streaming reducer, both attached to the cell's sink pipeline.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/analysis/streaming"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	// A 100-machine cell with cell a's workload mix, simulated for 6 hours.
	// The validator and the reducer fold every trace row as it is
	// emitted, and no row is retained.
	profile := workload.Profile2019("a", 100)
	opts := core.Options{Horizon: 6 * sim.Hour, Seed: 42}
	validator := trace.NewValidator()
	red := streaming.NewCellReducer(core.TraceMeta(profile, opts))
	opts.ExtraSinks = []trace.Sink{validator, red}
	res := core.Run(profile, opts)

	fmt.Printf("cell %s simulated: %d trace rows\n", profile.Name, res.Rows.Total())
	fmt.Printf("scheduler stats: %+v\n\n", res.Sched)

	// The trace passes the §9 invariant pipeline.
	if v := validator.Finish(); len(v) > 0 {
		log.Fatalf("trace invariants violated: %v", v[0])
	}
	fmt.Println("trace validates: submit-before-terminate, capacity, parent-kill all hold")

	// Tier-level utilization, Figure 3 style.
	av := red.AverageUsageByTier(2 * sim.Hour)
	if err := report.TierAveragesTable(os.Stdout,
		"\naverage usage as fraction of cell capacity (post-warmup)",
		[]streaming.TierAverages{av}, "cpu"); err != nil {
		log.Fatal(err)
	}

	// Scheduling delay, Figure 10 style.
	delays := red.Delays()
	fmt.Printf("\nscheduling delay: median %.2fs (n=%d)\n", stats.Quantile(delays.All, 0.5), len(delays.All))
	for _, tier := range trace.Tiers() {
		if xs := delays.ByTier[tier]; len(xs) > 0 {
			fmt.Printf("  %-4s median %.2fs  p90 %.2fs\n",
				tier, stats.Quantile(xs, 0.5), stats.Quantile(xs, 0.9))
		}
	}
}
