// Autopilot: reproduces the Figure 14 scenario — the peak NCU slack of
// fully autoscaled, constrained, and manually provisioned jobs — on a
// single simulated cell, and estimates the capacity Autopilot returns to
// the cell.
//
//	go run ./examples/autopilot
package main

import (
	"fmt"

	"repro/internal/analysis/streaming"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	profile := workload.Profile2019("e", 120)
	opts := core.Options{Horizon: 10 * sim.Hour, Seed: 11}
	tr := trace.NewMemTrace(core.TraceMeta(profile, opts)) // the rows, read after the run
	opts.ExtraSinks = []trace.Sink{tr}
	res := core.Run(profile, opts)

	fmt.Printf("cell %s: %d autopilot limit updates issued\n\n", profile.Name, res.AutopilotUpdates)

	// One pass over the usage records gathers each job record's peak
	// slack (Figure 14) and, since slack is capacity the cell can resell,
	// the aggregate limits and peaks of autoscaled and manual jobs.
	infos := map[trace.CollectionID]trace.CollectionInfo{}
	for _, info := range tr.CollectionInfos() {
		infos[info.ID] = info
	}
	slack := map[trace.VerticalScaling][]float64{}
	var limitAuto, peakAuto, limitMan, peakMan float64
	for rec := range tr.UsageRecords.All() {
		info, ok := infos[rec.Key.Collection]
		if ok && info.CollectionType == trace.CollectionJob {
			if s, ok := streaming.SlackSampleOf(&rec); ok {
				slack[info.Scaling] = append(slack[info.Scaling], s)
			}
		}
		switch info.Scaling {
		case trace.ScalingFull:
			limitAuto += rec.Limit.CPU
			peakAuto += rec.MaxUsage.CPU
		case trace.ScalingNone:
			limitMan += rec.Limit.CPU
			peakMan += rec.MaxUsage.CPU
		}
	}

	fmt.Printf("%-14s %10s %10s %10s %10s\n", "strategy", "p25 (%)", "p50 (%)", "p75 (%)", "samples")
	for _, mode := range []trace.VerticalScaling{trace.ScalingFull, trace.ScalingConstrained, trace.ScalingNone} {
		xs := slack[mode]
		if len(xs) == 0 {
			continue
		}
		fmt.Printf("%-14s %10.1f %10.1f %10.1f %10d\n", mode,
			stats.Quantile(xs, 0.25), stats.Quantile(xs, 0.5), stats.Quantile(xs, 0.75), len(xs))
	}

	full := stats.Quantile(slack[trace.ScalingFull], 0.5)
	manual := stats.Quantile(slack[trace.ScalingNone], 0.5)
	fmt.Printf("\nfully autoscaled jobs carry %.0f points less median peak slack than manual ones\n", manual-full)
	fmt.Println("(the paper reports >25 points for the vast majority of jobs, Figure 14)")

	if limitAuto > 0 && limitMan > 0 {
		fmt.Printf("\naggregate reserved-but-unused CPU: %.0f%% for autoscaled vs %.0f%% for manual jobs\n",
			(1-peakAuto/limitAuto)*100, (1-peakMan/limitMan)*100)
	}
}
