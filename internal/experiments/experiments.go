// Package experiments regenerates every table and figure of the paper's
// evaluation from freshly simulated traces: Table 1, Figures 1–14 and
// Table 2, plus the §5.1 and §5.2 statistics. It is the engine behind
// cmd/borgexperiments and the repository's benchmark suite, and the source
// of EXPERIMENTS.md.
//
// The report renders from an abstract per-cell analysis surface with two
// implementations: RunSuite retains each cell's MemTrace and analyzes it
// post-hoc, while RunSuiteStreaming attaches one streaming.CellReducer
// per cell and simulates with core.Options.NoMemTrace, folding every row
// online so memory stays bounded by the number of jobs rather than the
// number of trace rows. Both paths produce byte-identical reports for the
// same scale and seed (the differential test in this package is CI's
// acceptance gate for that).
package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/progress"
	"repro/internal/report"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scale sets the simulated size of the reproduction. The paper's cells
// have 12,000 machines for a month; everything here is calibrated to scale
// linearly, and rates are reported both raw and normalized back to paper
// scale.
type Scale struct {
	Name         string
	Machines2011 int
	Machines2019 int // per cell, 8 cells
	Horizon      sim.Time
	Warmup       sim.Time // excluded from time-averaged figures
	Seed         uint64
	// Parallelism bounds how many cells simulate concurrently (engine
	// worker pool); <= 0 means GOMAXPROCS. Output is identical at every
	// setting — per-cell seeds derive from Seed via engine.DeriveSeed.
	Parallelism int
	// RunKnobs carries the shared per-run knobs. Policy and Arrival
	// override every cell profile's placement policy / arrival process by
	// name (empty keeps each profile's defaults; SuiteProfiles panics on
	// unknown names). UsageNoiseFast threads into every cell's options.
	// Progress, when non-nil, receives live progress lines (cells done /
	// in flight / ETA) while the suite simulates — pure wall-clock
	// reporting, it never changes the output. Metrics/Timeline, when
	// non-nil, receive the suite's instrument rollup and run timeline
	// (each cell gets a private registry, merged in spec order — see
	// engine.RunInstruments); like Progress, they never change the
	// report or trace bytes.
	core.RunKnobs
	// RecordWorkload captures every cell's arrival/job stream into its
	// CellResult.Workload (see SaveWorkloads for persisting a suite's
	// recordings).
	RecordWorkload bool
	// Replay holds per-cell recordings, index-aligned with SuiteSpecs
	// (0 = the 2011 cell, then 2019 a–h): a non-nil entry replays that
	// recording instead of generating cell i's workload. LoadWorkloads
	// rebuilds this slice from a recorded directory.
	Replay []*workload.Recording
}

// engineOptions builds the suite's engine options: the scale's
// parallelism plus progress hooks when Progress is set.
func (sc Scale) engineOptions(cells int) engine.Options {
	opts := engine.Options{Parallelism: sc.Parallelism}
	if sc.Progress != nil {
		prog := progress.New(sc.Progress, "suite", cells)
		opts.OnStart = func(int) { prog.Start() }
		opts.OnResult = func(int, *core.CellResult) { prog.Done() }
	}
	return opts
}

// SmallScale is quick enough for tests and benchmarks.
func SmallScale() Scale {
	return Scale{Name: "small", Machines2011: 120, Machines2019: 100,
		Horizon: 12 * sim.Hour, Warmup: 4 * sim.Hour, Seed: 1}
}

// DefaultScale is the scale EXPERIMENTS.md reports.
func DefaultScale() Scale {
	return Scale{Name: "default", Machines2011: 300, Machines2019: 250,
		Horizon: 24 * sim.Hour, Warmup: 8 * sim.Hour, Seed: 1}
}

// LargeScale stresses the simulator further (slower, closer asymptotics).
func LargeScale() Scale {
	return Scale{Name: "large", Machines2011: 600, Machines2019: 400,
		Horizon: 48 * sim.Hour, Warmup: 16 * sim.Hour, Seed: 1}
}

// Suite holds the simulated traces for one scale (the retained-trace
// path).
type Suite struct {
	Scale Scale
	T2011 *trace.MemTrace
	T2019 []*trace.MemTrace // cells a–h in order
	Stats []core.CellResult

	an *suiteAnalyses // lazily built post-hoc analysis surface
}

// SuiteProfiles builds the suite's nine cell profiles — the 2011 cell at
// index 0, then the 2019 cells a–h. Every call constructs fresh profile
// values, so callers (parameter-sweep variants in particular) may mutate
// them freely without affecting other runs.
func SuiteProfiles(sc Scale) []*workload.CellProfile {
	profiles := make([]*workload.CellProfile, 0, 9)
	profiles = append(profiles, workload.Profile2011(sc.Machines2011))
	for _, cell := range workload.Cells2019() {
		profiles = append(profiles, workload.Profile2019(cell, sc.Machines2019))
	}
	if sc.Policy != "" {
		policy := scheduler.MustParsePolicy(sc.Policy)
		for _, p := range profiles {
			p.Policy = policy
		}
	}
	if sc.Arrival != "" {
		workload.MustParseArrival(sc.Arrival) // validate once, loudly
		for _, p := range profiles {
			p.Arrival = sc.Arrival
		}
	}
	return profiles
}

// SuiteSpecsWith builds the suite's nine cell specs with overlay applied
// to each freshly built profile first (nil means none) — the hook
// parameter sweeps use to vary profile knobs per variant. Seeds and ID
// spaces are assigned per the engine contracts.
func SuiteSpecsWith(sc Scale, overlay func(*workload.CellProfile)) []engine.Spec {
	// Policy and Arrival act at the profile level (SuiteProfiles), so
	// only the remaining knobs ride the per-cell options; Progress is
	// suite-level reporting and never enters a cell, and Metrics/Timeline
	// are applied per cell by engine.RunInstruments in the run functions.
	// TimelineWarmup is inert until a timeline is attached.
	base := core.Options{Horizon: sc.Horizon, RecordWorkload: sc.RecordWorkload,
		TimelineWarmup: sc.Warmup}
	base.UsageNoiseFast = sc.UsageNoiseFast
	profiles := SuiteProfiles(sc)
	specs := make([]engine.Spec, 0, len(profiles))
	for i, p := range profiles {
		if overlay != nil {
			overlay(p)
		}
		spec := engine.NewSpec(i, p, base, sc.Seed)
		if i < len(sc.Replay) {
			spec.Options.Replay = sc.Replay[i]
		}
		specs = append(specs, spec)
	}
	return specs
}

// SuiteSpecs builds the suite's nine cell specs — the 2011 cell at index
// 0, then the eight 2019 cells a–h — with seeds and ID spaces assigned
// per the engine contracts.
func SuiteSpecs(sc Scale) []engine.Spec {
	return SuiteSpecsWith(sc, nil)
}

// RunSuite simulates the 2011 cell and the eight 2019 cells, sc.Parallelism
// cells at a time, retaining every cell's full trace in memory.
func RunSuite(sc Scale) *Suite {
	s := &Suite{Scale: sc}
	specs := SuiteSpecs(sc)
	ri := engine.NewRunInstruments(sc.Metrics, sc.Timeline, len(specs))
	ri.Apply(specs)
	results := engine.Run(specs, ri.Wrap(sc.engineOptions(len(specs))))
	s.T2011 = results[0].Trace
	s.Stats = append(s.Stats, *results[0])
	for _, r := range results[1:] {
		s.T2019 = append(s.T2019, r.Trace)
		s.Stats = append(s.Stats, *r)
	}
	return s
}

// RateNormalization returns the factor converting this suite's per-cell
// 2019 rates to paper scale (12,000 machines).
func (s *Suite) RateNormalization2019() float64 {
	return float64(workload.ReferenceMachines) / float64(s.Scale.Machines2019)
}

// RateNormalization2011 is the 2011 counterpart.
func (s *Suite) RateNormalization2011() float64 {
	return float64(workload.ReferenceMachines) / float64(s.Scale.Machines2011)
}

// --- the per-cell analysis surface ---

// cellAnalyses is everything the report needs from one simulated cell.
// streaming.CellReducer satisfies it directly (online); traceCell adapts
// a retained MemTrace (post-hoc).
type cellAnalyses interface {
	Meta() trace.Meta
	MachineShapes() []analysis.ShapePoint
	UsageSeries() analysis.TierSeries
	AllocationSeries() analysis.TierSeries
	AverageUsageByTier(warmup sim.Time) analysis.TierAverages
	AverageAllocationByTier(warmup sim.Time) analysis.TierAverages
	MachineUtilization() (cpu, mem []float64)
	Transitions() []analysis.Transition
	Inventory() analysis.Inventory
	AllocSetAccum() analysis.AllocSetAccum
	TerminationAccum() analysis.TerminationAccum
	Rates() analysis.SubmissionRates
	Delays() analysis.DelaySamples
	TasksPerJob() map[trace.Tier][]float64
	UsageIntegrals() analysis.UsageIntegrals
	SlackSamples() map[trace.VerticalScaling][]float64
}

// traceCell is the post-hoc adapter: every method delegates to the
// analysis package over the retained trace. at is the Figure 6 snapshot
// instant.
type traceCell struct {
	tr *trace.MemTrace
	at sim.Time
}

func (c traceCell) Meta() trace.Meta                      { return c.tr.Meta }
func (c traceCell) MachineShapes() []analysis.ShapePoint  { return analysis.MachineShapes(c.tr) }
func (c traceCell) UsageSeries() analysis.TierSeries      { return analysis.UsageSeries(c.tr) }
func (c traceCell) AllocationSeries() analysis.TierSeries { return analysis.AllocationSeries(c.tr) }
func (c traceCell) Transitions() []analysis.Transition    { return analysis.Transitions(c.tr) }
func (c traceCell) Inventory() analysis.Inventory         { return analysis.InventoryOf(c.tr) }
func (c traceCell) AllocSetAccum() analysis.AllocSetAccum { return analysis.AllocSetAccumOf(c.tr) }
func (c traceCell) Rates() analysis.SubmissionRates       { return analysis.RatesOf(c.tr) }
func (c traceCell) Delays() analysis.DelaySamples         { return analysis.DelaysOf(c.tr) }
func (c traceCell) TasksPerJob() map[trace.Tier][]float64 { return analysis.TasksPerJobOf(c.tr) }
func (c traceCell) UsageIntegrals() analysis.UsageIntegrals {
	return analysis.JobUsageIntegralsOf(c.tr)
}
func (c traceCell) TerminationAccum() analysis.TerminationAccum {
	return analysis.TerminationAccumOf(c.tr)
}
func (c traceCell) AverageUsageByTier(warmup sim.Time) analysis.TierAverages {
	return analysis.AverageUsageByTier(c.tr, warmup)
}
func (c traceCell) AverageAllocationByTier(warmup sim.Time) analysis.TierAverages {
	return analysis.AverageAllocationByTier(c.tr, warmup)
}
func (c traceCell) MachineUtilization() (cpu, mem []float64) {
	return analysis.MachineUtilization(c.tr, c.at)
}
func (c traceCell) SlackSamples() map[trace.VerticalScaling][]float64 {
	return analysis.SlackSamplesOf(c.tr)
}

// suiteAnalyses assembles the nine cells' analysis surfaces for report
// rendering: the 2011 cell plus the 2019 cells a–h in order.
type suiteAnalyses struct {
	sc    Scale
	c2011 cellAnalyses
	c2019 []cellAnalyses
}

func (s *Suite) analyses() *suiteAnalyses {
	if s.an == nil {
		at := s.Scale.Horizon / 2
		a := &suiteAnalyses{sc: s.Scale, c2011: traceCell{s.T2011, at}}
		for _, tr := range s.T2019 {
			a.c2019 = append(a.c2019, traceCell{tr, at})
		}
		s.an = a
	}
	return s.an
}

func (a *suiteAnalyses) rates2019() analysis.SubmissionRates {
	cells := make([]analysis.SubmissionRates, len(a.c2019))
	for i, c := range a.c2019 {
		cells[i] = c.Rates()
	}
	return analysis.MergeRates(cells)
}

func (a *suiteAnalyses) integrals2019() analysis.UsageIntegrals {
	cells := make([]analysis.UsageIntegrals, len(a.c2019))
	for i, c := range a.c2019 {
		cells[i] = c.UsageIntegrals()
	}
	return analysis.MergeIntegrals(cells)
}

// WriteReport emits every artifact to w.
func (a *suiteAnalyses) WriteReport(w io.Writer) error {
	steps := []func(io.Writer) error{
		a.WriteTable1,
		a.WriteFigure1,
		a.WriteFigures2and4,
		a.WriteFigures3and5,
		a.WriteFigure6,
		a.WriteFigure7,
		a.WriteAllocSetStats,
		a.WriteTerminationStats,
		a.WriteFigure8,
		a.WriteFigure9,
		a.WriteFigure10,
		a.WriteFigure11,
		a.WriteTable2,
		a.WriteFigure12,
		a.WriteFigure13,
		a.WriteFigure14,
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

// WriteTable1 emits the trace-comparison inventory.
func (a *suiteAnalyses) WriteTable1(w io.Writer) error {
	fmt.Fprintf(w, "== Table 1: trace comparison (scale %q) ==\n", a.sc.Name)
	cells := make([]analysis.Inventory, len(a.c2019))
	for i, c := range a.c2019 {
		cells[i] = c.Inventory()
	}
	rows := analysis.Table1FromInventories(
		a.c2011.Inventory(), a.c2011.Meta().Duration,
		analysis.MergeInventories(cells), a.c2019[0].Meta().Duration, len(a.c2019))
	return report.Table1(w, rows)
}

// WriteFigure1 emits machine shape populations.
func (a *suiteAnalyses) WriteFigure1(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 1: machine shapes (2019, all cells) ==")
	counts := make(map[trace.Resources]int)
	for _, c := range a.c2019 {
		for _, p := range c.MachineShapes() {
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

// WriteFigures2and4 emits the hourly usage and allocation series.
func (a *suiteAnalyses) WriteFigures2and4(w io.Writer) error {
	var use19, alloc19 []analysis.TierSeries
	for _, c := range a.c2019 {
		use19 = append(use19, c.UsageSeries())
		alloc19 = append(alloc19, c.AllocationSeries())
	}
	avgUse := analysis.AverageSeries(use19)
	avgAlloc := analysis.AverageSeries(alloc19)
	u11 := a.c2011.UsageSeries()
	a11 := a.c2011.AllocationSeries()

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

// WriteFigures3and5 emits the per-cell tier averages.
func (a *suiteAnalyses) WriteFigures3and5(w io.Writer) error {
	var use, alloc []analysis.TierAverages
	use = append(use, a.c2011.AverageUsageByTier(a.sc.Warmup))
	alloc = append(alloc, a.c2011.AverageAllocationByTier(a.sc.Warmup))
	for _, c := range a.c2019 {
		use = append(use, c.AverageUsageByTier(a.sc.Warmup))
		alloc = append(alloc, c.AverageAllocationByTier(a.sc.Warmup))
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

// WriteFigure6 emits machine-utilization CCDF quantiles per cell at the
// mid-trace snapshot.
func (a *suiteAnalyses) WriteFigure6(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 6: machine utilization at mid-trace (upper quantiles) ==")
	probs := []float64{0.9, 0.5, 0.1}
	headers := []string{"cell/resource", "P>0.9", "median", "P>0.1"}
	var rows [][]string
	cpu11, mem11 := a.c2011.MachineUtilization()
	rows = append(rows, report.CCDFQuantiles("2011 cpu", cpu11, probs))
	rows = append(rows, report.CCDFQuantiles("2011 mem", mem11, probs))
	for i, c := range a.c2019 {
		cpu, mem := c.MachineUtilization()
		cell := workload.Cells2019()[i]
		rows = append(rows, report.CCDFQuantiles(cell+" cpu", cpu, probs))
		rows = append(rows, report.CCDFQuantiles(cell+" mem", mem, probs))
	}
	return report.Table(w, headers, rows)
}

// WriteFigure7 emits cell g's transition counts, as the paper does.
func (a *suiteAnalyses) WriteFigure7(w io.Writer) error {
	gIdx := 6 // cell g
	return report.Transitions(w, "== Figure 7: state transitions (cell g) ==",
		a.c2019[gIdx].Transitions(), 20)
}

// WriteAllocSetStats emits §5.1's numbers.
func (a *suiteAnalyses) WriteAllocSetStats(w io.Writer) error {
	accums := make([]analysis.AllocSetAccum, len(a.c2019))
	for i, c := range a.c2019 {
		accums[i] = c.AllocSetAccum()
	}
	st := analysis.FinishAllocSets(accums)
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

// WriteTerminationStats emits §5.2's numbers.
func (a *suiteAnalyses) WriteTerminationStats(w io.Writer) error {
	accums := make([]analysis.TerminationAccum, len(a.c2019))
	for i, c := range a.c2019 {
		accums[i] = c.TerminationAccum()
	}
	st := analysis.FinishTerminations(accums)
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

// WriteFigure8 emits job-submission-rate distributions.
func (a *suiteAnalyses) WriteFigure8(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 8: job submission rate (jobs/hour, normalized to 12k machines) ==")
	r19 := a.rates2019()
	r11 := a.c2011.Rates()
	n19 := scaleAll(r19.JobsPerHour, a.norm2019())
	n11 := scaleAll(r11.JobsPerHour, a.norm2011())
	rows := [][]string{
		statRow("2011", n11),
		statRow("2019 per-cell", n19),
	}
	med19 := stats.Quantile(n19, 0.5)
	med11 := stats.Quantile(n11, 0.5)
	rows = append(rows, []string{"median ratio 2019/2011", report.F(med19 / med11), "", "", "paper: 3.7x"})
	return report.Table(w, []string{"series", "median", "mean", "p90", "note"}, rows)
}

// WriteFigure9 emits task-submission-rate distributions and the
// resubmission ratio.
func (a *suiteAnalyses) WriteFigure9(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 9: task submission rate (tasks/hour, normalized) ==")
	r19 := a.rates2019()
	r11 := a.c2011.Rates()
	rows := [][]string{
		statRow("2011 new tasks", scaleAll(r11.NewTasksPerHour, a.norm2011())),
		statRow("2011 all tasks", scaleAll(r11.AllTasksPerHour, a.norm2011())),
		statRow("2019 new tasks", scaleAll(r19.NewTasksPerHour, a.norm2019())),
		statRow("2019 all tasks", scaleAll(r19.AllTasksPerHour, a.norm2019())),
	}
	resub19 := stats.Quantile(r19.AllTasksPerHour, 0.5)/stats.Quantile(r19.NewTasksPerHour, 0.5) - 1
	resub11 := stats.Quantile(r11.AllTasksPerHour, 0.5)/stats.Quantile(r11.NewTasksPerHour, 0.5) - 1
	rows = append(rows, []string{"resubmit:new 2011", report.F(resub11), "", "", "paper: 0.66"})
	rows = append(rows, []string{"resubmit:new 2019", report.F(resub19), "", "", "paper: 2.26"})
	return report.Table(w, []string{"series", "median", "mean", "p90", "note"}, rows)
}

// WriteFigure10 emits scheduling-delay distributions by era and tier.
func (a *suiteAnalyses) WriteFigure10(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 10: job scheduling delay (seconds, ready -> first task running) ==")
	cells := make([]analysis.DelaySamples, len(a.c2019))
	for i, c := range a.c2019 {
		cells[i] = c.Delays()
	}
	d19 := analysis.MergeDelays(cells)
	d11 := a.c2011.Delays()
	rows := [][]string{
		delayRow("2011 all", d11.All),
		delayRow("2019 all", d19.All),
	}
	for _, tier := range trace.Tiers() {
		if xs := d11.ByTier[tier]; len(xs) > 0 {
			rows = append(rows, delayRow("2011 "+tier.String(), xs))
		}
	}
	for _, tier := range trace.Tiers() {
		if xs := d19.ByTier[tier]; len(xs) > 0 {
			rows = append(rows, delayRow("2019 "+tier.String(), xs))
		}
	}
	return report.Table(w, []string{"series", "median", "p90", "p99", "n"}, rows)
}

// WriteFigure11 emits tasks-per-job quantiles by tier.
func (a *suiteAnalyses) WriteFigure11(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 11: tasks per job by tier (2019) ==")
	cells := make([]map[trace.Tier][]float64, len(a.c2019))
	for i, c := range a.c2019 {
		cells[i] = c.TasksPerJob()
	}
	tpj := analysis.MergeSamplesBy(cells)
	rows := make([][]string, 0, len(tpj))
	for _, tier := range trace.Tiers() {
		xs := tpj[tier]
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

// WriteTable2 emits the resource-hour distribution statistics.
func (a *suiteAnalyses) WriteTable2(w io.Writer) error {
	i19 := a.integrals2019()
	i11 := a.c2011.UsageIntegrals()
	if err := report.Table2(w, "== Table 2 (2011): per-job resource-hours ==",
		analysis.ComputeTable2Column(i11.CPUHours), analysis.ComputeTable2Column(i11.MemHours)); err != nil {
		return err
	}
	return report.Table2(w, "== Table 2 (2019): per-job resource-hours ==",
		analysis.ComputeTable2Column(i19.CPUHours), analysis.ComputeTable2Column(i19.MemHours))
}

// WriteFigure12 emits the log-log CCDF of per-job resource-hours.
func (a *suiteAnalyses) WriteFigure12(w io.Writer) error {
	i19 := a.integrals2019()
	i11 := a.c2011.UsageIntegrals()
	grid := analysis.LogGrid(1e-5, 1e3, 1)
	return report.CCDFSeries(w, "== Figure 12: CCDF of resource-usage-hours per job ==", grid,
		map[string][]float64{
			"2019 NCU-hours": i19.CPUHours,
			"2019 NMU-hours": i19.MemHours,
			"2011 NCU-hours": i11.CPUHours,
			"2011 NMU-hours": i11.MemHours,
		})
}

// WriteFigure13 emits the CPU/memory consumption correlation.
func (a *suiteAnalyses) WriteFigure13(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 13: median NMU-hours per 1-NCU-hour bucket (2019) ==")
	ints := a.integrals2019()
	points, pearson := analysis.CPUMemCorrelation(ints, 100)
	rows := make([][]string, 0, len(points)+1)
	for _, p := range points {
		rows = append(rows, []string{report.F(p.NCUHours), report.F(p.MedianNMU), fmt.Sprint(p.Jobs)})
	}
	rows = append(rows, []string{"Pearson r", report.F(pearson), "paper: 0.97"})
	return report.Table(w, []string{"NCU-hours bucket", "median NMU-hours", "jobs"}, rows)
}

// WriteFigure14 emits the peak-slack CCDF by vertical-scaling strategy.
func (a *suiteAnalyses) WriteFigure14(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 14: peak NCU slack by autoscaling strategy (2019) ==")
	cells := make([]map[trace.VerticalScaling][]float64, len(a.c2019))
	for i, c := range a.c2019 {
		cells[i] = c.SlackSamples()
	}
	slack := analysis.MergeSamplesBy(cells)
	rows := make([][]string, 0, 3)
	for _, mode := range []trace.VerticalScaling{trace.ScalingFull, trace.ScalingConstrained, trace.ScalingNone} {
		xs := slack[mode]
		if len(xs) == 0 {
			continue
		}
		// MergeSamplesBy returns fresh slices, so sort each one once, in
		// place, rather than letting every Quantile copy and sort it again.
		sort.Float64s(xs)
		rows = append(rows, []string{
			mode.String(),
			report.F(stats.QuantileSorted(xs, 0.25)),
			report.F(stats.QuantileSorted(xs, 0.5)),
			report.F(stats.QuantileSorted(xs, 0.75)),
			fmt.Sprint(len(xs)),
		})
	}
	rows = append(rows, []string{"paper", "full autoscaling cuts slack by >25pp for most jobs", "", "", ""})
	return report.Table(w, []string{"strategy", "slack p25 (%)", "median (%)", "p75 (%)", "samples"}, rows)
}

func (a *suiteAnalyses) norm2019() float64 {
	return float64(workload.ReferenceMachines) / float64(a.sc.Machines2019)
}

func (a *suiteAnalyses) norm2011() float64 {
	return float64(workload.ReferenceMachines) / float64(a.sc.Machines2011)
}

// --- Suite render wrappers (the retained-trace path) ---

// WriteReport emits every artifact to w.
func (s *Suite) WriteReport(w io.Writer) error { return s.analyses().WriteReport(w) }

// WriteTable1 emits the trace-comparison inventory.
func (s *Suite) WriteTable1(w io.Writer) error { return s.analyses().WriteTable1(w) }

// WriteFigure1 emits machine shape populations.
func (s *Suite) WriteFigure1(w io.Writer) error { return s.analyses().WriteFigure1(w) }

// WriteFigures2and4 emits the hourly usage and allocation series.
func (s *Suite) WriteFigures2and4(w io.Writer) error { return s.analyses().WriteFigures2and4(w) }

// WriteFigures3and5 emits the per-cell tier averages.
func (s *Suite) WriteFigures3and5(w io.Writer) error { return s.analyses().WriteFigures3and5(w) }

// WriteFigure6 emits machine-utilization quantiles at mid-trace.
func (s *Suite) WriteFigure6(w io.Writer) error { return s.analyses().WriteFigure6(w) }

// WriteFigure7 emits cell g's transition counts.
func (s *Suite) WriteFigure7(w io.Writer) error { return s.analyses().WriteFigure7(w) }

// WriteAllocSetStats emits §5.1's numbers.
func (s *Suite) WriteAllocSetStats(w io.Writer) error { return s.analyses().WriteAllocSetStats(w) }

// WriteTerminationStats emits §5.2's numbers.
func (s *Suite) WriteTerminationStats(w io.Writer) error {
	return s.analyses().WriteTerminationStats(w)
}

// WriteFigure8 emits job-submission-rate distributions.
func (s *Suite) WriteFigure8(w io.Writer) error { return s.analyses().WriteFigure8(w) }

// WriteFigure9 emits task-submission-rate distributions.
func (s *Suite) WriteFigure9(w io.Writer) error { return s.analyses().WriteFigure9(w) }

// WriteFigure10 emits scheduling-delay distributions.
func (s *Suite) WriteFigure10(w io.Writer) error { return s.analyses().WriteFigure10(w) }

// WriteFigure11 emits tasks-per-job quantiles by tier.
func (s *Suite) WriteFigure11(w io.Writer) error { return s.analyses().WriteFigure11(w) }

// WriteTable2 emits the resource-hour distribution statistics.
func (s *Suite) WriteTable2(w io.Writer) error { return s.analyses().WriteTable2(w) }

// WriteFigure12 emits the log-log CCDF of per-job resource-hours.
func (s *Suite) WriteFigure12(w io.Writer) error { return s.analyses().WriteFigure12(w) }

// WriteFigure13 emits the CPU/memory consumption correlation.
func (s *Suite) WriteFigure13(w io.Writer) error { return s.analyses().WriteFigure13(w) }

// WriteFigure14 emits the peak-slack summary by scaling strategy.
func (s *Suite) WriteFigure14(w io.Writer) error { return s.analyses().WriteFigure14(w) }

// --- helpers ---

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
