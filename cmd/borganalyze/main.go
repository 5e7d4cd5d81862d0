// Command borganalyze runs the paper's analyses against a trace directory
// previously written by borgtrace, printing the figures the single cell
// supports (usage/allocation series, machine utilization, transitions,
// rates, delays, usage integrals, slack). The trace is replayed through
// the same streaming reducer the simulation suite uses.
//
// Usage:
//
//	borganalyze -trace ./trace-b [-warmup-hours 4]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/analysis/streaming"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("borganalyze: ")
	dir := flag.String("trace", "", "trace directory (required)")
	warmupHours := flag.Float64("warmup-hours", 4, "hours to exclude from time-averaged figures")
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, *dir, sim.FromHours(*warmupHours)); err != nil {
		log.Fatal(err)
	}
}

// run reads the trace in dir and writes its analyses to w, excluding the
// first warmup of simulated time from the time-averaged figures.
func run(w io.Writer, dir string, warmup sim.Time) error {
	tr, err := trace.ReadDir(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace: era=%s cell=%s machines=%d duration=%v\n%s\n\n",
		tr.Meta.Era, tr.Meta.Cell, tr.Meta.Machines, tr.Meta.Duration, tr.Counts())
	r := streaming.Replay(tr)

	if err := report.TierSeriesTable(w, "Hourly CPU usage by tier (Figure 2)", r.UsageSeries(), "cpu"); err != nil {
		return err
	}
	if err := report.TierSeriesTable(w, "Hourly CPU allocation by tier (Figure 4)", r.AllocationSeries(), "cpu"); err != nil {
		return err
	}
	av := r.AverageUsageByTier(warmup)
	if err := report.TierAveragesTable(w, "Average usage by tier (Figure 3)", []streaming.TierAverages{av}, "cpu"); err != nil {
		return err
	}

	cpu, mem := r.MachineUtilization()
	if err := report.Table(w, []string{"machine utilization", "median", "p90"}, [][]string{
		{"cpu", report.F(stats.Quantile(cpu, 0.5)), report.F(stats.Quantile(cpu, 0.9))},
		{"mem", report.F(stats.Quantile(mem, 0.5)), report.F(stats.Quantile(mem, 0.9))},
	}); err != nil {
		return err
	}

	if err := report.Transitions(w, "State transitions (Figure 7)", r.Transitions(), 15); err != nil {
		return err
	}

	rates := r.Rates()
	if err := report.Table(w, []string{"rates/hour", "median", "mean"}, [][]string{
		{"jobs", report.F(stats.Quantile(rates.JobsPerHour, 0.5)), report.F(stats.Summarize(rates.JobsPerHour).Mean)},
		{"new tasks", report.F(stats.Quantile(rates.NewTasksPerHour, 0.5)), report.F(stats.Summarize(rates.NewTasksPerHour).Mean)},
		{"all tasks", report.F(stats.Quantile(rates.AllTasksPerHour, 0.5)), report.F(stats.Summarize(rates.AllTasksPerHour).Mean)},
	}); err != nil {
		return err
	}

	delays := r.Delays()
	rows := [][]string{{"all", report.F(stats.Quantile(delays.All, 0.5)), report.F(stats.Quantile(delays.All, 0.9))}}
	for _, tier := range trace.Tiers() {
		if xs := delays.ByTier[tier]; len(xs) > 0 {
			rows = append(rows, []string{tier.String(), report.F(stats.Quantile(xs, 0.5)), report.F(stats.Quantile(xs, 0.9))})
		}
	}
	if err := report.Table(w, []string{"scheduling delay (s)", "median", "p90"}, rows); err != nil {
		return err
	}

	ints := r.UsageIntegrals()
	if err := report.Table2(w, "Per-job resource-hours (Table 2)",
		streaming.ComputeTable2Column(ints.CPUHours), streaming.ComputeTable2Column(ints.MemHours)); err != nil {
		return err
	}

	var srows [][]string
	for _, mode := range []trace.VerticalScaling{trace.ScalingFull, trace.ScalingConstrained, trace.ScalingNone} {
		if parts := r.SlackSamples(mode); len(parts) > 0 {
			srows = append(srows, []string{mode.String(), report.F(stats.QuantilesOfParts(parts, 0.5)[0])})
		}
	}
	if len(srows) == 0 {
		return nil
	}
	return report.Table(w, []string{"peak NCU slack (Figure 14)", "median %"}, srows)
}
