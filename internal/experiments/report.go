package experiments

import (
	"fmt"
	"io"

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
	steps := []func(io.Writer) error{
		s.writeTable1,
		s.writeFigure1,
		s.writeFigures2and4,
		s.writeFigures3and5,
		s.writeFigure6,
		s.writeFigure7,
		s.writeAllocSetStats,
		s.writeTerminationStats,
		s.writeFigure8,
		s.writeFigure9,
		s.writeFigure10,
		s.writeFigure11,
		s.writeTable2,
		s.writeFigure12,
		s.writeFigure13,
		s.writeFigure14,
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

// each2019 returns f of every 2019 cell's reducer, in cell order.
func each2019[T any](s *Suite, f func(*streaming.CellReducer) T) []T {
	out := make([]T, len(s.R2019))
	for i, r := range s.R2019 {
		out[i] = f(r)
	}
	return out
}

// rates2019 pools the 2019 cells' Figure 8 and 9 samples.
func (s *Suite) rates2019() streaming.SubmissionRates {
	return streaming.SubmissionRates{
		JobsPerHour:     streaming.Concat(s.R2019, func(r *streaming.CellReducer) []float64 { return r.Rates().JobsPerHour }),
		NewTasksPerHour: streaming.Concat(s.R2019, func(r *streaming.CellReducer) []float64 { return r.Rates().NewTasksPerHour }),
		AllTasksPerHour: streaming.Concat(s.R2019, func(r *streaming.CellReducer) []float64 { return r.Rates().AllTasksPerHour }),
	}
}

// integrals2019 pools the 2019 cells' per-job usage integrals.
func (s *Suite) integrals2019() streaming.UsageIntegrals {
	return streaming.UsageIntegrals{
		CPUHours: streaming.Concat(s.R2019, func(r *streaming.CellReducer) []float64 { return r.UsageIntegrals().CPUHours }),
		MemHours: streaming.Concat(s.R2019, func(r *streaming.CellReducer) []float64 { return r.UsageIntegrals().MemHours }),
	}
}

// writeTable1 emits the trace-comparison inventory.
func (s *Suite) writeTable1(w io.Writer) error {
	fmt.Fprintf(w, "== Table 1: trace comparison (scale %q) ==\n", s.Scale.Name)
	rows := streaming.Table1FromInventories(
		s.R2011.Inventory(), s.R2011.Meta().Duration,
		streaming.MergeInventories(each2019(s, (*streaming.CellReducer).Inventory)),
		s.R2019[0].Meta().Duration, len(s.R2019))
	return report.Table1(w, rows)
}

// writeFigure1 emits machine shape populations.
func (s *Suite) writeFigure1(w io.Writer) error {
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
	sortRows(rows)
	return report.Table(w, []string{"NCU", "NMU", "machines"}, rows)
}

// writeFigures2and4 emits the hourly usage and allocation series.
func (s *Suite) writeFigures2and4(w io.Writer) error {
	avgUse := streaming.AverageSeries(each2019(s, (*streaming.CellReducer).UsageSeries))
	avgAlloc := streaming.AverageSeries(each2019(s, (*streaming.CellReducer).AllocationSeries))
	u11 := s.R2011.UsageSeries()
	a11 := s.R2011.AllocationSeries()

	if err := report.TierSeriesTable(w, "== Figure 2a: 2011 CPU usage (fraction of capacity/hour) ==", u11, "cpu"); err != nil {
		return err
	}
	if err := report.TierSeriesTable(w, "== Figure 2b: 2019 CPU usage (avg of 8 cells) ==", avgUse, "cpu"); err != nil {
		return err
	}
	if err := report.TierSeriesTable(w, "== Figure 2c: 2011 memory usage ==", u11, "mem"); err != nil {
		return err
	}
	if err := report.TierSeriesTable(w, "== Figure 2d: 2019 memory usage (avg of 8 cells) ==", avgUse, "mem"); err != nil {
		return err
	}
	if err := report.TierSeriesTable(w, "== Figure 4a: 2011 CPU allocation ==", a11, "cpu"); err != nil {
		return err
	}
	if err := report.TierSeriesTable(w, "== Figure 4b: 2019 CPU allocation (avg of 8 cells) ==", avgAlloc, "cpu"); err != nil {
		return err
	}
	if err := report.TierSeriesTable(w, "== Figure 4c: 2011 memory allocation ==", a11, "mem"); err != nil {
		return err
	}
	return report.TierSeriesTable(w, "== Figure 4d: 2019 memory allocation (avg of 8 cells) ==", avgAlloc, "mem")
}

// writeFigures3and5 emits the per-cell tier averages.
func (s *Suite) writeFigures3and5(w io.Writer) error {
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
func (s *Suite) writeFigure6(w io.Writer) error {
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
func (s *Suite) writeFigure7(w io.Writer) error {
	gIdx := 6 // cell g
	return report.Transitions(w, "== Figure 7: state transitions (cell g) ==",
		s.R2019[gIdx].Transitions(), 20)
}

// writeAllocSetStats emits §5.1's numbers.
func (s *Suite) writeAllocSetStats(w io.Writer) error {
	st := streaming.FinishAllocSets(each2019(s, (*streaming.CellReducer).AllocSetAccum))
	fmt.Fprintln(w, "== §5.1: alloc sets (2019, all cells) ==")
	rows := [][]string{
		{"alloc sets / collections", report.Pct(st.AllocSetShare), "2%"},
		{"alloc share of CPU allocation", report.Pct(st.CPUAllocShare), "20%"},
		{"alloc share of RAM allocation", report.Pct(st.MemAllocShare), "18%"},
		{"jobs running in allocs", report.Pct(st.JobsInAllocShare), "15%"},
		{"prod share of in-alloc jobs", report.Pct(st.ProdShareInAlloc), "95%"},
		{"mem utilization inside allocs", report.Pct(st.MemUtilInAlloc), "73%"},
		{"mem utilization outside", report.Pct(st.MemUtilOutside), "41%"},
	}
	return report.Table(w, []string{"metric", "measured", "paper"}, rows)
}

// writeTerminationStats emits §5.2's numbers.
func (s *Suite) writeTerminationStats(w io.Writer) error {
	st := streaming.FinishTerminations(each2019(s, (*streaming.CellReducer).TerminationAccum))
	fmt.Fprintln(w, "== §5.2: terminations (2019, all cells) ==")
	rows := [][]string{
		{"collections with any eviction", report.Pct(st.CollectionsWithEviction), "3.2%"},
		{"non-prod share of evicted", report.Pct(st.NonProdShareOfEvicted), "96.6%"},
		{"prod collections evicted", report.Pct(st.ProdEvictedShare), "<0.2%"},
		{"single-eviction share (prod)", report.Pct(st.SingleEvictionShare), "52%"},
		{"kill rate with parent", report.Pct(st.KillRateWithParent), "87%"},
		{"kill rate without parent", report.Pct(st.KillRateWithoutParent), "41%"},
	}
	return report.Table(w, []string{"metric", "measured", "paper"}, rows)
}

// writeFigure8 emits job-submission-rate distributions.
func (s *Suite) writeFigure8(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 8: job submission rate (jobs/hour, normalized to 12k machines) ==")
	n19 := scaleAll(s.rates2019().JobsPerHour, s.RateNormalization2019())
	n11 := scaleAll(s.R2011.Rates().JobsPerHour, s.RateNormalization2011())
	rows := [][]string{
		statRow("2011", n11),
		statRow("2019 per-cell", n19),
	}
	med19 := stats.Quantile(n19, 0.5)
	med11 := stats.Quantile(n11, 0.5)
	rows = append(rows, []string{"median ratio 2019/2011", report.F(med19 / med11), "", "", "paper: 3.7x"})
	return report.Table(w, []string{"series", "median", "mean", "p90", "note"}, rows)
}

// writeFigure9 emits task-submission-rate distributions and the
// resubmission ratio.
func (s *Suite) writeFigure9(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 9: task submission rate (tasks/hour, normalized) ==")
	r19 := s.rates2019()
	r11 := s.R2011.Rates()
	n19, n11 := s.RateNormalization2019(), s.RateNormalization2011()
	rows := [][]string{
		statRow("2011 new tasks", scaleAll(r11.NewTasksPerHour, n11)),
		statRow("2011 all tasks", scaleAll(r11.AllTasksPerHour, n11)),
		statRow("2019 new tasks", scaleAll(r19.NewTasksPerHour, n19)),
		statRow("2019 all tasks", scaleAll(r19.AllTasksPerHour, n19)),
	}
	resub19 := stats.Quantile(r19.AllTasksPerHour, 0.5)/stats.Quantile(r19.NewTasksPerHour, 0.5) - 1
	resub11 := stats.Quantile(r11.AllTasksPerHour, 0.5)/stats.Quantile(r11.NewTasksPerHour, 0.5) - 1
	rows = append(rows, []string{"resubmit:new 2011", report.F(resub11), "", "", "paper: 0.66"})
	rows = append(rows, []string{"resubmit:new 2019", report.F(resub19), "", "", "paper: 2.26"})
	return report.Table(w, []string{"series", "median", "mean", "p90", "note"}, rows)
}

// writeFigure10 emits scheduling-delay distributions by era and tier.
func (s *Suite) writeFigure10(w io.Writer) error {
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
func (s *Suite) writeFigure11(w io.Writer) error {
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
func (s *Suite) writeTable2(w io.Writer) error {
	i19 := s.integrals2019()
	i11 := s.R2011.UsageIntegrals()
	if err := report.Table2(w, "== Table 2 (2011): per-job resource-hours ==",
		streaming.ComputeTable2Column(i11.CPUHours), streaming.ComputeTable2Column(i11.MemHours)); err != nil {
		return err
	}
	return report.Table2(w, "== Table 2 (2019): per-job resource-hours ==",
		streaming.ComputeTable2Column(i19.CPUHours), streaming.ComputeTable2Column(i19.MemHours))
}

// writeFigure12 emits the log-log CCDF of per-job resource-hours.
func (s *Suite) writeFigure12(w io.Writer) error {
	i19 := s.integrals2019()
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
func (s *Suite) writeFigure13(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 13: median NMU-hours per 1-NCU-hour bucket (2019) ==")
	points, pearson := streaming.CPUMemCorrelation(s.integrals2019(), 100)
	rows := make([][]string, 0, len(points)+1)
	for _, p := range points {
		rows = append(rows, []string{report.F(p.NCUHours), report.F(p.MedianNMU), fmt.Sprint(p.Jobs)})
	}
	rows = append(rows, []string{"Pearson r", report.F(pearson), "paper: 0.97"})
	return report.Table(w, []string{"NCU-hours bucket", "median NMU-hours", "jobs"}, rows)
}

// writeFigure14 emits the peak-slack CCDF by vertical-scaling strategy.
func (s *Suite) writeFigure14(w io.Writer) error {
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

func scaleAll(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func statRow(name string, xs []float64) []string {
	sum := stats.Summarize(xs)
	return []string{name, report.F(sum.Median), report.F(sum.Mean), report.F(sum.P90), ""}
}

func delayRow(name string, xs []float64) []string {
	sum := stats.Summarize(xs)
	return []string{name, report.F(sum.Median), report.F(sum.P90), report.F(sum.P99), fmt.Sprint(sum.N)}
}

func sortRows(rows [][]string) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && less(rows[j], rows[j-1]); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

func less(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
