package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/metrics"
)

// This file is the child side: one process makes one run and writes what
// it measured to its run directory.

// Child modes. A probe stops where a run would call its entry point, so it
// measures set-up alone.
const (
	modeProbe  = "probe"
	modeTimed  = "timed"
	modeTraced = "traced"
)

// Files in a child's run directory.
const (
	resultFile  = "result.json"
	profileFile = "cpu.pprof"
	outDir      = "out"
)

// probe is a run's measurement context, handed to the workload functions.
// Untraced, it only marks when the simulation ended; traced, it also
// carries the registry and timeline the entry points report into, and
// collects per-layer values.
type probe struct {
	traced bool
	reg    *metrics.Registry
	tl     *metrics.Timeline
	// parallelism is the run's engine worker count.
	parallelism int
	// machineHours is the simulated machine-hours of the run.
	machineHours float64
	entry        time.Time
	simEnd       time.Time
	allocSim     uint64
	values       map[string]float64
}

// simulated marks the end of the simulation: the entry point has returned
// and only writing the outputs remains.
func (p *probe) simulated() {
	p.simEnd = time.Now()
	p.allocSim = readRuntime().allocs
}

// childResult is what one child measured, in its own clock.
type childResult struct {
	// EntryUnixNano is when the child first called into the entry point.
	EntryUnixNano int64 `json:"entry_unix_ns"`
	// WallS runs from the entry call until the last output file closed;
	// SimS ends where the simulation did.
	WallS        float64            `json:"wall_s"`
	SimS         float64            `json:"sim_s"`
	PeakLiveMB   float64            `json:"peak_live_heap_mb"`
	AllocMB      float64            `json:"alloc_mb"`
	AllocSimMB   float64            `json:"alloc_sim_mb"`
	GCCycles     float64            `json:"gc_cycles"`
	MachineHours float64            `json:"machine_hours"`
	Values       map[string]float64 `json:"values,omitempty"`
}

// childMain makes one run of the named workload in the given mode and
// writes its result to dir.
func childMain(mode, name string, seed uint64, dir string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	var run func(p *probe) error
	out := filepath.Join(dir, outDir)
	switch mode {
	case modeProbe:
	case modeTimed, modeTraced:
		run = func(p *probe) error { return w.run(seed, out, p) }
	case stageSim, stageSimNoAutopilot:
		run = func(p *probe) error {
			runSuiteStage(suiteScale(seed), mode == stageSim, p)
			return nil
		}
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	profile := ""
	if mode == modeTraced {
		profile = filepath.Join(dir, profileFile)
	}
	res, err := measure(run, profile)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, resultFile), b, 0o644)
}

// measure makes one run under the live-heap poller. A nil run measures
// set-up alone. With a profile path the run is traced: it gets a registry
// and a timeline, and a CPU profile is written to that path.
func measure(run func(p *probe) error, profile string) (childResult, error) {
	p := &probe{values: make(map[string]float64)}
	var prof *os.File
	if profile != "" {
		p.traced = true
		p.reg, p.tl = metrics.NewRegistry(), metrics.NewTimeline()
		p.values["bench.timer_ns"] = timerNs()
		var err error
		if prof, err = os.Create(profile); err != nil {
			return childResult{}, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return childResult{}, err
		}
	}
	poller := startHeapPoller(5 * time.Millisecond)
	before := readRuntime()
	p.entry = time.Now()
	var err error
	if run != nil {
		err = run(p)
	}
	end := time.Now()
	peak := poller.stop()
	after := readRuntime()
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return childResult{}, err
	}

	res := childResult{
		EntryUnixNano: p.entry.UnixNano(),
		WallS:         end.Sub(p.entry).Seconds(),
		PeakLiveMB:    mb(peak),
		AllocMB:       mb(after.allocs - before.allocs),
		GCCycles:      float64(after.gcCycles - before.gcCycles),
		MachineHours:  p.machineHours,
		Values:        p.values,
	}
	if !p.simEnd.IsZero() {
		res.SimS = p.simEnd.Sub(p.entry).Seconds()
		res.AllocSimMB = mb(p.allocSim - before.allocs)
	}
	if p.traced {
		registryValues(p.values, p.reg.Snapshot())
		if err := timelineValues(p.values, p.tl, res.SimS, p.parallelism); err != nil {
			return childResult{}, err
		}
	}
	return res, nil
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

type runtimeCounters struct{ allocs, gcCycles uint64 }

func readRuntime() runtimeCounters {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	return runtimeCounters{allocs: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// liveHeapMB collects garbage and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return mb(s[0].Value.Uint64())
}

// heapPoller records the largest live heap the runtime reports while a run
// goes on. The live heap is what the last GC marked, so it does not depend
// on when the poller happens to sample between collections.
type heapPoller struct {
	stopc, done chan struct{}
	peak        uint64
}

func startHeapPoller(every time.Duration) *heapPoller {
	h := &heapPoller{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			rtmetrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends polling and returns the peak live heap in bytes.
func (h *heapPoller) stop() uint64 {
	close(h.stopc)
	<-h.done
	return h.peak
}

// timerNs is what timing an empty call reads: the part of the clock reads
// that falls inside the interval a timed call measures.
func timerNs() float64 {
	const n = 200000
	var d time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		d += time.Since(t)
	}
	return float64(d.Nanoseconds()) / n
}

// countMetrics are the per-layer metrics that count work the program did.
// They repeat exactly from run to run on one input, so a change that claims
// only speed must leave every one of them equal; -compare calls any change
// in one worse. BENCHMARK.json still gives each a direction, because its
// format has no other; a drop in a count is no gain.
var countMetrics = []string{
	"scheduler.jobs_submitted", "scheduler.placement_attempts", "scheduler.tasks_placed",
	"scheduler.placement_retries", "scheduler.preemptions", "scheduler.oom_evictions",
	"scheduler.failed_restarts", "scheduler.placed_per_attempt", "scheduler.score_cache_hit_ratio",
	"scheduler.queue_depth_p50", "scheduler.queue_depth_p99",
	"sim.events", "sim.event_slab_max",
	"trace.rows_instances", "trace.rows_usage", "trace.rows_collections", "trace.rows_machines",
	"core.usage_windows", "core.records_per_window",
	"autopilot.updates", "streaming.calls",
	"stage.sim_tasks_placed", "stage.sim_noautopilot_tasks_placed",
}

// registryValues copies the counts a traced run's registry holds into the
// per-layer values.
func registryValues(v map[string]float64, snap metrics.Snapshot) {
	c := make(map[string]float64)
	for _, cv := range snap.Counters {
		c[cv.Name] = float64(cv.Value)
	}
	for name, counter := range map[string]string{
		"scheduler.jobs_submitted":     "sched_jobs_submitted_total",
		"scheduler.placement_attempts": "sched_placement_attempts_total",
		"scheduler.tasks_placed":       "sched_tasks_placed_total",
		"scheduler.placement_retries":  "sched_placement_retries_total",
		"scheduler.preemptions":        "sched_preemptions_total",
		"scheduler.oom_evictions":      "sched_oom_evictions_total",
		"scheduler.failed_restarts":    "sched_task_failed_restarts_total",
		"sim.events":                   "sim_events_total",
		"trace.rows_instances":         "trace_rows_instances_total",
		"trace.rows_usage":             "trace_rows_usage_total",
		"trace.rows_collections":       "trace_rows_collections_total",
		"trace.rows_machines":          "trace_rows_machines_total",
		"core.usage_windows":           "usage_windows_total",
	} {
		v[name] = c[counter]
	}
	v["scheduler.placed_per_attempt"] = ratio(c["sched_tasks_placed_total"], c["sched_placement_attempts_total"])
	hits, misses := c["sched_score_cache_hits_total"], c["sched_score_cache_misses_total"]
	v["scheduler.score_cache_hit_ratio"] = ratio(hits, hits+misses)
	v["core.records_per_window"] = ratio(c["trace_rows_usage_total"], c["usage_windows_total"])
	for _, h := range snap.Hists {
		switch h.Name {
		case "sched_queue_depth":
			v["scheduler.queue_depth_p50"] = h.P50
			v["scheduler.queue_depth_p99"] = h.P99
		case "sim_event_slab":
			v["sim.event_slab_max"] = h.Max
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timelineValues derives the engine metrics from a traced run's timeline:
// each cell's simulation time (its warmup, run and flush spans), flush
// time, and how busy the workers were over the simulation. The engine's
// own per-cell span is not used: it ends when the cell's result is
// delivered, which at parallelism above 1 includes waiting for earlier
// cells.
func timelineValues(v map[string]float64, tl *metrics.Timeline, simS float64, parallelism int) error {
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		return err
	}
	var events []struct {
		Name string `json:"name"`
		TID  int    `json:"tid"`
		Dur  int64  `json:"dur"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		return fmt.Errorf("decoding timeline: %v", err)
	}
	perCell := make(map[int]float64)
	var busy, flush float64
	for _, e := range events {
		d := float64(e.Dur) / 1e6
		switch e.Name {
		case "warmup", "run", "flush":
			perCell[e.TID] += d
			busy += d
		}
		if e.Name == "flush" {
			flush += d
		}
	}
	if len(perCell) == 0 {
		return nil
	}
	cells := make([]float64, 0, len(perCell))
	for _, d := range perCell {
		cells = append(cells, d)
	}
	sort.Float64s(cells)
	v["engine.cell_s_p50"] = nearestRank(cells, 0.50)
	v["engine.cell_s_p90"] = nearestRank(cells, 0.90)
	v["engine.flush_s"] = flush
	workers := min(max(parallelism, 1), len(cells))
	v["engine.worker_busy_frac"] = ratio(busy, simS*float64(workers))
	return nil
}

// nearestRank returns the q-quantile of sorted xs by the nearest-rank rule.
func nearestRank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
