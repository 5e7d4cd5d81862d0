package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis/streaming"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/trace"
)

// workload is one named benchmark input: a closed batch run of the library
// entry points one CLI's main calls, one run in flight at a time.
type workload struct {
	name string
	// group names the output a run must reproduce: every run of a workload
	// in the same group, at the same input seed, writes byte-identical
	// outputs.
	group string
	// deadline is five times the usual length of one run on a 2-core
	// machine. A run past it is killed and counts as failed.
	deadline time.Duration
	// stages are the stage runs a traced invocation adds (see
	// runSuiteStage), in the order they run.
	stages []string
	// stageDiff names the layer that the base run's simulation time less
	// the sim stage's is the cost of: stage.<stageDiff>_s and _alloc_mb.
	stageDiff string
	// run makes one run at seed, writing its outputs under dir.
	run func(seed uint64, dir string, p *probe) error
	// check verifies that the outputs under dir hold what the workload
	// must produce.
	check func(dir string) error
}

// Stage runs of the suite workloads: the simulation alone, with and
// without autopilot (see doc.go for why the autopilot split is approximate).
const (
	stageSim            = "sim"
	stageSimNoAutopilot = "sim-noautopilot"
)

var workloads = []workload{
	{
		name: "suite-stream", group: "suite", deadline: 50 * time.Second,
		stages: []string{stageSimNoAutopilot, stageSim}, stageDiff: "reduce",
		run: func(seed uint64, dir string, p *probe) error {
			return runSuiteStream(suiteScale(seed), dir, p)
		},
		check: checkSuiteReport,
	},
	{
		name: "suite-retained", group: "suite", deadline: 75 * time.Second,
		stages: []string{stageSim}, stageDiff: "memtrace",
		run: func(seed uint64, dir string, p *probe) error {
			return runSuiteRetained(suiteScale(seed), dir, p)
		},
		check: checkSuiteReport,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// suiteScale is borgexperiments' default scale at -parallel 1.
func suiteScale(seed uint64) experiments.Scale {
	sc := experiments.DefaultScale()
	sc.Seed = seed
	sc.Parallelism = 1
	return sc
}

// suiteMachineHours is the machine-hours one nine-cell suite simulates.
func suiteMachineHours(sc experiments.Scale) float64 {
	return float64(sc.Machines2011+8*sc.Machines2019) * sc.Horizon.Hours()
}

// reportFile is the report's file, in a run's output directory.
const reportFile = "report.txt"

// runSuiteStream is borgexperiments -stream: RunSuiteStreaming, then the
// report. Traced, it builds the same cells itself so that each reducer can
// be timed (see tracedStreamingSuite).
func runSuiteStream(sc experiments.Scale, dir string, p *probe) error {
	p.machineHours = suiteMachineHours(sc)
	p.parallelism = sc.Parallelism
	sc.Metrics, sc.Timeline = p.reg, p.tl
	var suite *experiments.StreamingSuite
	if p.traced {
		suite = tracedStreamingSuite(sc, p)
	} else {
		s, err := experiments.RunSuiteStreaming(sc, experiments.StreamingOptions{})
		if err != nil {
			return err
		}
		suite = s
	}
	p.simulated()
	if p.traced {
		p.values["streaming.live_mb"] = liveHeapMB()
		p.values["autopilot.updates"] = autopilotUpdates(suite.Stats)
	}
	return writeSuiteReport(filepath.Join(dir, reportFile), sc, p, suite.WriteReport)
}

// runSuiteRetained is borgexperiments without -stream: RunSuite retains
// every trace row, and the report is computed post hoc.
func runSuiteRetained(sc experiments.Scale, dir string, p *probe) error {
	p.machineHours = suiteMachineHours(sc)
	p.parallelism = sc.Parallelism
	sc.Metrics, sc.Timeline = p.reg, p.tl
	suite := experiments.RunSuite(sc)
	p.simulated()
	if p.traced {
		p.values["autopilot.updates"] = autopilotUpdates(suite.Stats)
	}
	return writeSuiteReport(filepath.Join(dir, reportFile), sc, p, suite.WriteReport)
}

// tracedStreamingSuite does what RunSuiteStreaming does, with each cell's
// reducer behind a timedSink and the probe's registry and timeline
// attached.
func tracedStreamingSuite(sc experiments.Scale, p *probe) *experiments.StreamingSuite {
	specs := experiments.SuiteSpecs(sc)
	reducers := make([]*streaming.CellReducer, len(specs))
	sinks := make([]*timedSink, len(specs))
	engine.AttachSinks(specs, func(i int) trace.Sink {
		reducers[i] = experiments.NewCellReducerFor(specs[i])
		sinks[i] = &timedSink{r: reducers[i]}
		return sinks[i]
	})
	for i := range specs {
		specs[i].Options.NoMemTrace = true
	}
	ri := engine.NewRunInstruments(p.reg, p.tl, len(specs))
	ri.Apply(specs)
	results := engine.Run(specs, ri.Wrap(engine.Options{Parallelism: sc.Parallelism}))

	suite := &experiments.StreamingSuite{Scale: sc, R2011: reducers[0], R2019: reducers[1:]}
	for _, r := range results {
		suite.Stats = append(suite.Stats, *r)
	}
	var total timedSink
	for _, s := range sinks {
		total.add(s)
	}
	// Each call's measured interval holds part of its own clock reads:
	// bench.timer_ns per call, which self returns net of.
	self := func(t int) time.Duration {
		return total.busy[t] - time.Duration(p.values["bench.timer_ns"]*float64(total.calls[t]))
	}
	var busy time.Duration
	var calls int64
	for t := range total.busy {
		busy += self(t)
		calls += total.calls[t]
	}
	p.values["streaming.busy_s"] = busy.Seconds()
	p.values["streaming.instance_s"] = self(tableInstances).Seconds()
	p.values["streaming.usage_s"] = self(tableUsage).Seconds()
	p.values["streaming.collection_s"] = self(tableCollections).Seconds()
	p.values["streaming.calls"] = float64(calls)
	if total.rows > 0 {
		p.values["streaming.ns_per_row"] = float64(busy.Nanoseconds()) / float64(total.rows)
	}
	return suite
}

// runSuiteStage simulates the suite's nine cells with NoMemTrace and no
// reducer: the simulation alone, for the stage metrics.
func runSuiteStage(sc experiments.Scale, autopilot bool, p *probe) {
	p.machineHours = suiteMachineHours(sc)
	p.parallelism = sc.Parallelism
	specs := experiments.SuiteSpecs(sc)
	for i := range specs {
		specs[i].Options.NoMemTrace = true
		specs[i].Options.DisableAutopilot = !autopilot
	}
	results := engine.Run(specs, engine.Options{Parallelism: sc.Parallelism})
	p.simulated()
	var jobs, placed int
	for _, r := range results {
		jobs += r.Sched.JobsSubmitted
		placed += r.Sched.TasksPlaced
	}
	p.values["scheduler.jobs_submitted"] = float64(jobs)
	p.values["scheduler.tasks_placed"] = float64(placed)
}

// writeFile writes a file the way the CLIs do: straight to the *os.File,
// unbuffered, closed before returning.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	return f.Close()
}

// writeSuiteReport writes borgexperiments' header and report. It leaves
// out the CLI's "simulated 9 cells in <time>" line, the one line that
// differs between identical runs. Traced, it splits the report's time into
// its steps.
func writeSuiteReport(path string, sc experiments.Scale, p *probe, report func(io.Writer) error) error {
	return writeFile(path, func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, "Borg: the Next Generation — reproduction report\n"+
			"scale=%s machines2011=%d machines2019=%dx8 horizon=%v seed=%d\n\n",
			sc.Name, sc.Machines2011, sc.Machines2019, sc.Horizon, sc.Seed); err != nil {
			return err
		}
		if !p.traced {
			return report(w)
		}
		sw := &stepWriter{w: w}
		start := time.Now()
		if err := report(sw); err != nil {
			return err
		}
		return recordSteps(p.values, start, sw.splits)
	})
}

// reportSteps are the steps of the suite's WriteReport, in order: the
// metric name each step's time is reported under, and the header its
// output starts with.
var reportSteps = []struct{ name, header string }{
	{"table1", "== Table 1:"},
	{"fig1", "== Figure 1:"},
	{"fig2_4", "== Figure 2a:"},
	{"fig3_5", "== Figure 3 (CPU):"},
	{"fig6", "== Figure 6:"},
	{"fig7", "== Figure 7:"},
	{"allocsets", "== §5.1:"},
	{"terminations", "== §5.2:"},
	{"fig8", "== Figure 8:"},
	{"fig9", "== Figure 9:"},
	{"fig10", "== Figure 10:"},
	{"fig11", "== Figure 11:"},
	{"table2", "== Table 2 (2011):"},
	{"fig12", "== Figure 12:"},
	{"fig13", "== Figure 13:"},
	{"fig14", "== Figure 14:"},
}

// stepWriter timestamps every write of a lone "\n": WriteReport writes one
// after each of its steps and nowhere else.
type stepWriter struct {
	w      io.Writer
	splits []time.Time
}

func (s *stepWriter) Write(b []byte) (int, error) {
	n, err := s.w.Write(b)
	if len(b) == 1 && b[0] == '\n' {
		s.splits = append(s.splits, time.Now())
	}
	return n, err
}

// recordSteps stores render.busy_s and one render.<step>_s per report step,
// from the report's start and its step splits.
func recordSteps(values map[string]float64, start time.Time, splits []time.Time) error {
	if len(splits) != len(reportSteps) {
		return fmt.Errorf("report split into %d steps, want %d", len(splits), len(reportSteps))
	}
	prev := start
	for i, t := range splits {
		values["render."+reportSteps[i].name+"_s"] = t.Sub(prev).Seconds()
		prev = t
	}
	values["render.busy_s"] = prev.Sub(start).Seconds()
	return nil
}

func autopilotUpdates(stats []core.CellResult) float64 {
	n := 0
	for _, r := range stats {
		n += r.AutopilotUpdates
	}
	return float64(n)
}

// Trace tables, as timedSink indexes them.
const (
	tableCollections = iota
	tableInstances
	tableUsage
	tableMachines
	numTables
)

// timedSink times every call into one cell's reducer, per table. It passes
// usage batches through whole, so delivery stays batched.
type timedSink struct {
	r     *streaming.CellReducer
	busy  [numTables]time.Duration
	calls [numTables]int64
	rows  int64
}

// done books one call into table t that delivered rows rows since start.
func (s *timedSink) done(t int, start time.Time, rows int) {
	s.busy[t] += time.Since(start)
	s.calls[t]++
	s.rows += int64(rows)
}

func (s *timedSink) CollectionEvent(ev trace.CollectionEvent) {
	t := time.Now()
	s.r.CollectionEvent(ev)
	s.done(tableCollections, t, 1)
}

func (s *timedSink) InstanceEvent(ev trace.InstanceEvent) {
	t := time.Now()
	s.r.InstanceEvent(ev)
	s.done(tableInstances, t, 1)
}

func (s *timedSink) Usage(rec trace.UsageRecord) {
	t := time.Now()
	s.r.Usage(rec)
	s.done(tableUsage, t, 1)
}

func (s *timedSink) UsageBatch(recs []trace.UsageRecord) {
	t := time.Now()
	s.r.UsageBatch(recs)
	s.done(tableUsage, t, len(recs))
}

func (s *timedSink) MachineEvent(ev trace.MachineEvent) {
	t := time.Now()
	s.r.MachineEvent(ev)
	s.done(tableMachines, t, 1)
}

func (s *timedSink) add(o *timedSink) {
	for t := range s.busy {
		s.busy[t] += o.busy[t]
		s.calls[t] += o.calls[t]
	}
	s.rows += o.rows
}

// checkSuiteReport requires every report step's header, in order.
func checkSuiteReport(dir string) error {
	b, err := os.ReadFile(filepath.Join(dir, reportFile))
	if err != nil {
		return err
	}
	rest := b
	for _, st := range reportSteps {
		i := bytes.Index(rest, []byte(st.header))
		if i < 0 {
			return fmt.Errorf("report lacks step %s (%q) in order", st.name, st.header)
		}
		rest = rest[i+len(st.header):]
	}
	return nil
}
