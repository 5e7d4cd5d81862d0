package experiments

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/analysis/streaming"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// WriteReport emits every artifact to w, rendered from the cells'
// reducers. It writes a lone newline after each artifact and nowhere
// else, so a writer can split the report into its steps.
func (s *Suite) WriteReport(w io.Writer) error {
	r := reportRun{s, s.Pool()}
	steps := []func(io.Writer) error{
		r.writeTable1,
		r.writeFigure1,
		r.writeFigures2and4,
		r.writeFigures3and5,
		r.writeFigure6,
		r.writeFigure7,
		r.writeAllocSetStats,
		r.writeTerminationStats,
		r.writeFigure8,
		r.writeFigure9,
		r.writeFigure10,
		r.writeFigure11,
		r.writeTable2,
		r.writeFigure12,
		r.writeFigure13,
		r.writeFigure14,
	}
	for _, step := range steps {
		if err := step(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// Pool pools the suite's cells for the metric table.
func (s *Suite) Pool() *Pool {
	results := s.Stats
	if len(results) > 0 {
		results = results[1:]
	}
	return NewPool(s.R2011, s.R2019, results, s.Scale.Warmup)
}

// reportRun is one rendering of a suite's report: the steps read the
// products they share with the metric table from one pool.
type reportRun struct {
	*Suite
	pool *Pool
}

// each returns f of every cell's reducer, in cell order.
func each[T any](cells []*streaming.CellReducer, f func(*streaming.CellReducer) T) []T {
	out := make([]T, len(cells))
	for i, r := range cells {
		out[i] = f(r)
	}
	return out
}

// paperRows renders the metric table's rows for one artifact, width
// cells each: the label, the measured value, blanks, and the paper's
// value last.
func (s reportRun) paperRows(artifact string, width int) [][]string {
	var rows [][]string
	for _, m := range metricTable {
		if m.Artifact != artifact {
			continue
		}
		row := make([]string, width)
		row[0], row[1], row[width-1] = m.Label, m.Format(m.Value(s.pool)), m.Paper
		rows = append(rows, row)
	}
	return rows
}

// writeTable1 emits the trace-comparison inventory.
func (s reportRun) writeTable1(w io.Writer) error {
	fmt.Fprintf(w, "== Table 1: trace comparison (scale %q) ==\n", s.Scale.Name)
	rows := streaming.Table1FromInventories(
		s.R2011.Inventory(), s.R2011.Meta().Duration,
		streaming.MergeInventories(each(s.R2019, (*streaming.CellReducer).Inventory)),
		s.R2019[0].Meta().Duration, len(s.R2019))
	return report.Table1(w, rows)
}

// writeFigure1 emits machine shape populations.
func (s reportRun) writeFigure1(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 1: machine shapes (2019, all cells) ==")
	counts := make(map[trace.Resources]int)
	for _, r := range s.R2019 {
		for _, p := range r.MachineShapes() {
			counts[trace.Resources{CPU: p.CPU, Mem: p.Mem}] += p.Count
		}
	}
	var rows [][]string
	for r, n := range counts {
		rows = append(rows, []string{report.F(r.CPU), report.F(r.Mem), fmt.Sprint(n)})
	}
	slices.SortFunc(rows, slices.Compare)
	return report.Table(w, []string{"NCU", "NMU", "machines"}, rows)
}

// writeFigures2and4 emits the hourly usage and allocation series.
func (s reportRun) writeFigures2and4(w io.Writer) error {
	use19 := streaming.AverageSeries(each(s.R2019, (*streaming.CellReducer).UsageSeries))
	alloc19 := streaming.AverageSeries(each(s.R2019, (*streaming.CellReducer).AllocationSeries))
	use11, alloc11 := s.R2011.UsageSeries(), s.R2011.AllocationSeries()
	for _, p := range []struct {
		title    string
		series   streaming.TierSeries
		resource string
	}{
		{"== Figure 2a: 2011 CPU usage (fraction of capacity/hour) ==", use11, "cpu"},
		{"== Figure 2b: 2019 CPU usage (avg of 8 cells) ==", use19, "cpu"},
		{"== Figure 2c: 2011 memory usage ==", use11, "mem"},
		{"== Figure 2d: 2019 memory usage (avg of 8 cells) ==", use19, "mem"},
		{"== Figure 4a: 2011 CPU allocation ==", alloc11, "cpu"},
		{"== Figure 4b: 2019 CPU allocation (avg of 8 cells) ==", alloc19, "cpu"},
		{"== Figure 4c: 2011 memory allocation ==", alloc11, "mem"},
		{"== Figure 4d: 2019 memory allocation (avg of 8 cells) ==", alloc19, "mem"},
	} {
		if err := report.TierSeriesTable(w, p.title, p.series, p.resource); err != nil {
			return err
		}
	}
	return nil
}

// writeFigures3and5 emits the per-cell tier averages.
func (s reportRun) writeFigures3and5(w io.Writer) error {
	warmup := s.Scale.Warmup
	use := []streaming.TierAverages{s.R2011.AverageUsageByTier(warmup)}
	alloc := []streaming.TierAverages{s.R2011.AverageAllocationByTier(warmup)}
	for _, r := range s.R2019 {
		use = append(use, r.AverageUsageByTier(warmup))
		alloc = append(alloc, r.AverageAllocationByTier(warmup))
	}
	if err := report.TierAveragesTable(w, "== Figure 3 (CPU): average usage by tier and cell ==", use, "cpu"); err != nil {
		return err
	}
	if err := report.TierAveragesTable(w, "== Figure 3 (mem) ==", use, "mem"); err != nil {
		return err
	}
	if err := report.TierAveragesTable(w, "== Figure 5 (CPU): average allocation by tier and cell ==", alloc, "cpu"); err != nil {
		return err
	}
	return report.TierAveragesTable(w, "== Figure 5 (mem) ==", alloc, "mem")
}

// writeFigure6 emits machine-utilization CCDF quantiles per cell at the
// mid-trace snapshot.
func (s reportRun) writeFigure6(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 6: machine utilization at mid-trace (upper quantiles) ==")
	probs := []float64{0.9, 0.5, 0.1}
	headers := []string{"cell/resource", "P>0.9", "median", "P>0.1"}
	var rows [][]string
	cpu11, mem11 := s.R2011.MachineUtilization()
	rows = append(rows, report.CCDFQuantiles("2011 cpu", cpu11, probs))
	rows = append(rows, report.CCDFQuantiles("2011 mem", mem11, probs))
	for i, r := range s.R2019 {
		cpu, mem := r.MachineUtilization()
		cell := workload.Cells2019()[i]
		rows = append(rows, report.CCDFQuantiles(cell+" cpu", cpu, probs))
		rows = append(rows, report.CCDFQuantiles(cell+" mem", mem, probs))
	}
	return report.Table(w, headers, rows)
}

// writeFigure7 emits cell g's transition counts, as the paper does.
func (s reportRun) writeFigure7(w io.Writer) error {
	gIdx := 6 // cell g
	return report.Transitions(w, "== Figure 7: state transitions (cell g) ==",
		s.R2019[gIdx].Transitions(), 20)
}

// writeAllocSetStats emits §5.1's numbers.
func (s reportRun) writeAllocSetStats(w io.Writer) error {
	fmt.Fprintln(w, "== §5.1: alloc sets (2019, all cells) ==")
	return report.Table(w, []string{"metric", "measured", "paper"}, s.paperRows("§5.1", 3))
}

// writeTerminationStats emits §5.2's numbers.
func (s reportRun) writeTerminationStats(w io.Writer) error {
	fmt.Fprintln(w, "== §5.2: terminations (2019, all cells) ==")
	return report.Table(w, []string{"metric", "measured", "paper"}, s.paperRows("§5.2", 3))
}

// writeFigure8 emits job-submission-rate distributions.
func (s reportRun) writeFigure8(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 8: job submission rate (jobs/hour, normalized to 12k machines) ==")
	rows := [][]string{
		statRow("2011", rates([]*streaming.CellReducer{s.R2011}, true).JobsPerHour),
		statRow("2019 per-cell", rates(s.R2019, true).JobsPerHour),
	}
	rows = append(rows, s.paperRows("Figure 8", 5)...)
	return report.Table(w, []string{"series", "median", "mean", "p90", "note"}, rows)
}

// writeFigure9 emits task-submission-rate distributions and the
// resubmission ratio.
func (s reportRun) writeFigure9(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 9: task submission rate (tasks/hour, normalized) ==")
	n11, n19 := rates([]*streaming.CellReducer{s.R2011}, true), rates(s.R2019, true)
	rows := [][]string{
		statRow("2011 new tasks", n11.NewTasksPerHour),
		statRow("2011 all tasks", n11.AllTasksPerHour),
		statRow("2019 new tasks", n19.NewTasksPerHour),
		statRow("2019 all tasks", n19.AllTasksPerHour),
	}
	rows = append(rows, s.paperRows("Figure 9", 5)...)
	return report.Table(w, []string{"series", "median", "mean", "p90", "note"}, rows)
}

// writeFigure10 emits scheduling-delay distributions by era and tier.
func (s reportRun) writeFigure10(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 10: job scheduling delay (seconds, ready -> first task running) ==")
	d11 := s.R2011.Delays()
	rows := [][]string{
		delayRow("2011 all", d11.All),
		delayRow("2019 all", streaming.Concat(s.R2019, func(r *streaming.CellReducer) []float64 { return r.Delays().All })),
	}
	for _, tier := range trace.Tiers() {
		if xs := d11.ByTier[tier]; len(xs) > 0 {
			rows = append(rows, delayRow("2011 "+tier.String(), xs))
		}
	}
	for _, tier := range trace.Tiers() {
		if xs := streaming.Concat(s.R2019, func(r *streaming.CellReducer) []float64 { return r.Delays().ByTier[tier] }); len(xs) > 0 {
			rows = append(rows, delayRow("2019 "+tier.String(), xs))
		}
	}
	return report.Table(w, []string{"series", "median", "p90", "p99", "n"}, rows)
}

// writeFigure11 emits tasks-per-job quantiles by tier.
func (s reportRun) writeFigure11(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 11: tasks per job by tier (2019) ==")
	var rows [][]string
	for _, tier := range trace.Tiers() {
		xs := streaming.Concat(s.R2019, func(r *streaming.CellReducer) []float64 { return r.TasksPerJob()[tier] })
		if len(xs) == 0 {
			continue
		}
		rows = append(rows, []string{
			tier.String(),
			report.F(stats.Quantile(xs, 0.80)),
			report.F(stats.Quantile(xs, 0.95)),
			report.F(stats.Quantile(xs, 0.99)),
			fmt.Sprint(len(xs)),
		})
	}
	rows = append(rows, []string{"paper 95%ile", "beb 498", "mid 67", "free 21 / prod 3", ""})
	return report.Table(w, []string{"tier", "p80", "p95", "p99", "jobs"}, rows)
}

// writeTable2 emits the resource-hour distribution statistics.
func (s reportRun) writeTable2(w io.Writer) error {
	i11 := s.R2011.UsageIntegrals()
	if err := report.Table2(w, "== Table 2 (2011): per-job resource-hours ==",
		streaming.ComputeTable2Column(i11.CPUHours), streaming.ComputeTable2Column(i11.MemHours)); err != nil {
		return err
	}
	t19 := s.pool.table2019()
	return report.Table2(w, "== Table 2 (2019): per-job resource-hours ==", t19[0], t19[1])
}

// writeFigure12 emits the log-log CCDF of per-job resource-hours.
func (s reportRun) writeFigure12(w io.Writer) error {
	i19 := s.pool.integrals2019()
	i11 := s.R2011.UsageIntegrals()
	grid := streaming.LogGrid(1e-5, 1e3, 1)
	return report.CCDFSeries(w, "== Figure 12: CCDF of resource-usage-hours per job ==", grid,
		map[string][]float64{
			"2019 NCU-hours": i19.CPUHours,
			"2019 NMU-hours": i19.MemHours,
			"2011 NCU-hours": i11.CPUHours,
			"2011 NMU-hours": i11.MemHours,
		})
}

// writeFigure13 emits the CPU/memory consumption correlation.
func (s reportRun) writeFigure13(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 13: median NMU-hours per 1-NCU-hour bucket (2019) ==")
	points, _ := s.pool.correlation()
	rows := make([][]string, 0, len(points)+1)
	for _, p := range points {
		rows = append(rows, []string{report.F(p.NCUHours), report.F(p.MedianNMU), fmt.Sprint(p.Jobs)})
	}
	rows = append(rows, s.paperRows("Figure 13", 3)...)
	return report.Table(w, []string{"NCU-hours bucket", "median NMU-hours", "jobs"}, rows)
}

// writeFigure14 emits the peak-slack CCDF by vertical-scaling strategy.
func (s reportRun) writeFigure14(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 14: peak NCU slack by autoscaling strategy (2019) ==")
	rows := make([][]string, 0, 4)
	for _, mode := range []trace.VerticalScaling{trace.ScalingFull, trace.ScalingConstrained, trace.ScalingNone} {
		// Millions of samples: read the quantiles across every cell's
		// chunks, with no merged copy and no sort.
		var parts [][]float64
		n := 0
		for _, r := range s.R2019 {
			for _, p := range r.SlackSamples(mode) {
				parts = append(parts, p)
				n += len(p)
			}
		}
		if n == 0 {
			continue
		}
		q := stats.QuantilesOfParts(parts, 0.25, 0.5, 0.75)
		rows = append(rows, []string{mode.String(), report.F(q[0]), report.F(q[1]), report.F(q[2]), fmt.Sprint(n)})
	}
	rows = append(rows, []string{"paper", "full autoscaling cuts slack by >25pp for most jobs", "", "", ""})
	return report.Table(w, []string{"strategy", "slack p25 (%)", "median (%)", "p75 (%)", "samples"}, rows)
}

func statRow(name string, xs []float64) []string {
	sum := stats.Summarize(xs)
	return []string{name, report.F(sum.Median), report.F(sum.Mean), report.F(sum.P90), ""}
}

func delayRow(name string, xs []float64) []string {
	sum := stats.Summarize(xs)
	return []string{name, report.F(sum.Median), report.F(sum.P90), report.F(sum.P99), fmt.Sprint(sum.N)}
}
