// Benchmarks of the paper's evaluation, plus ablation benches for the
// design choices the reproduction encodes. The analysis benches share one
// simulated small-scale suite and measure the reducer pass, report
// rendering and the shared Figure 12/13 statistics; the ablation benches
// run whole simulations per configuration and report domain metrics via
// b.ReportMetric.
package repro

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/analysis/streaming"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/workload"
)

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
)

// suite simulates the 9-cell small-scale suite once, retaining its traces,
// for all analysis benches.
func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		sc := experiments.Scale{
			Name: "bench", Machines2011: 80, Machines2019: 60,
			Horizon: 8 * sim.Hour, Warmup: 3 * sim.Hour, Seed: 7,
		}
		benchSuite = experiments.RunSuite(sc)
	})
	return benchSuite
}

// BenchmarkReducerReplay measures the analysis pass behind every figure:
// the shared suite's nine retained traces replayed through fresh
// streaming reducers, each finalized.
func BenchmarkReducerReplay(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range s.Traces {
			r := streaming.Replay(tr)
			r.Transitions() // finalizes every product
		}
	}
}

// BenchmarkWriteReport measures report rendering alone: every table and
// figure from the shared suite's already finalized reducers.
func BenchmarkWriteReport(b *testing.B) {
	s := suite(b)
	if err := s.WriteReport(io.Discard); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteReport(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// integrals2019 merges the shared suite's 2019 per-job usage integrals.
func integrals2019(s *experiments.Suite) streaming.UsageIntegrals {
	return streaming.UsageIntegrals{
		CPUHours: streaming.Concat(s.R2019, func(r *streaming.CellReducer) []float64 { return r.UsageIntegrals().CPUHours }),
		MemHours: streaming.Concat(s.R2019, func(r *streaming.CellReducer) []float64 { return r.UsageIntegrals().MemHours }),
	}
}

func BenchmarkFigure12(b *testing.B) {
	ints := integrals2019(suite(b))
	grid := streaming.LogGrid(1e-5, 1e3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.CCDFSampled(ints.CPUHours, grid)
		stats.CCDFSampled(ints.MemHours, grid)
	}
}

func BenchmarkFigure13(b *testing.B) {
	ints := integrals2019(suite(b))
	b.ResetTimer()
	var r float64
	for i := 0; i < b.N; i++ {
		_, r = streaming.CPUMemCorrelation(ints, 100)
	}
	b.ReportMetric(r, "pearson-r")
}

// BenchmarkSuiteParallelism measures the multi-cell suite at parallelism
// 1 versus 8: the engine's whole reason to exist is the wall-clock gap
// between these two sub-benchmarks (the output is identical). The gap
// scales with available cores — on a single-core machine the two are
// equal, since 9 deterministic single-threaded simulations cannot go
// faster than the hardware.
func BenchmarkSuiteParallelism(b *testing.B) {
	b.Logf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
	sc := experiments.Scale{
		Name: "bench-par", Machines2011: 80, Machines2019: 60,
		Horizon: 4 * sim.Hour, Warmup: sim.Hour, Seed: 7,
	}
	for _, par := range []int{1, 8} {
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc.Parallelism = par
				experiments.RunSuite(sc)
			}
		})
	}
}

// benchScaleLarge is the placement-heavy nine-cell scale shared by the
// retained and streaming macro benchmarks.
func benchScaleLarge() experiments.Scale {
	return experiments.Scale{
		Name: "large-bench", Machines2011: 240, Machines2019: 200,
		Horizon: 6 * sim.Hour, Warmup: 2 * sim.Hour, Seed: 11,
	}
}

// BenchmarkLargeCellSuite runs the nine-cell suite at a placement-heavy
// scale (larger cells, more residents per machine) with full parallelism,
// retaining every trace: it is the macro benchmark for the scheduler
// placement fast path, tracked in BENCH_PR8.json, and the memory
// baseline the streaming twin below undercuts. Peak heap is sampled by
// the same probe the CI memory-ceiling gate uses.
func BenchmarkLargeCellSuite(b *testing.B) {
	sc := benchScaleLarge()
	b.ResetTimer()
	peak := metrics.PeakHeapDuring(func() {
		for i := 0; i < b.N; i++ {
			experiments.RunSuite(sc)
		}
	})
	b.ReportMetric(float64(peak)/1e6, "peak-heap-MB")
}

// BenchmarkStreamingSuite is BenchmarkLargeCellSuite without the kept
// rows: the same nine cells, but every row folds through a streaming reducer
// and is dropped, and the full report renders from reducer state. The
// interesting metric is peak-heap-MB next to the retained twin's — trace
// retention, not simulation state, dominates the retained peak.
func BenchmarkStreamingSuite(b *testing.B) {
	sc := benchScaleLarge()
	b.ResetTimer()
	peak := metrics.PeakHeapDuring(func() {
		for i := 0; i < b.N; i++ {
			suite, err := experiments.RunSuiteStreaming(sc, experiments.StreamingOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if err := suite.WriteReport(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(peak)/1e6, "peak-heap-MB")
}

// BenchmarkManyCellSuite is the warehouse-scale smoke benchmark: it
// simulates a fleet of 54 small 2019 cells (profiles sampled round-robin
// from the paper's a–h set) through experiments.RunCells with one
// streaming reducer per cell and no rows kept, all 54 handed over as one
// group — the shape a many-cell fleet study takes.
// Peak heap must stay under heapCeiling: per-cell memory is bounded
// reducer state plus one arena per engine worker, so the fleet footprint
// grows with cells, not with rows. The run uses two workers on any
// machine, since each worker adds its cell and its arena to the peak.
// Five runs on a 2-core VM peaked at 12.2–13.5 MB and took 0.2–0.4 s
// each. The ceiling is 1.5 times the largest reading: a change that
// kept every cell's simulation state (its jobs, tasks and event slab)
// past the cell peaked at 27–29 MB and fails it. The run is gated
// behind MANY_CELL_BENCH=1 (the CI many-cell smoke job sets it).
func BenchmarkManyCellSuite(b *testing.B) {
	if os.Getenv("MANY_CELL_BENCH") != "1" {
		b.Skip("set MANY_CELL_BENCH=1 to run the many-cell suite benchmark")
	}
	const (
		cells       = 54
		machines    = 60
		parallelism = 2
		heapCeiling = 1.5 * 13.5 // MB
	)
	names := workload.Cells2019()
	b.ResetTimer()
	var rows int64
	peak := metrics.PeakHeapDuring(func() {
		for i := 0; i < b.N; i++ {
			// One group of all the cells: RunCells keeps every reducer
			// and result until the last cell arrives and done receives
			// them, so the peak covers the whole retained set.
			experiments.RunCells(cells, cells, func(c int) engine.Spec {
				p := workload.Profile2019(names[c%len(names)], machines)
				return engine.NewSpec(c, p, core.Options{Horizon: 2 * sim.Hour}, 29)
			}, core.RunKnobs{}, parallelism, func(_ int, _ []*streaming.CellReducer, results []core.CellResult) {
				for _, res := range results {
					rows += res.Rows.Total()
				}
			})
		}
	})
	if rows == 0 {
		b.Fatal("many-cell run emitted no rows")
	}
	peakMB := float64(peak) / 1e6
	b.ReportMetric(peakMB, "peak-heap-MB")
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
	if peakMB > heapCeiling {
		b.Fatalf("peak heap %.1f MB exceeds the %.1f MB ceiling", peakMB, heapCeiling)
	}
}

// BenchmarkFleetRollup is the warehouse-scale federation smoke: a
// 128-cell fleet — profiles sampled around the 2019 medians per cell —
// streamed through experiments.RunCells with one reducer per cell,
// rolled up into exact cross-cell percentiles. Peak heap must stay
// under heapCeiling: reducers are released on delivery, so only the
// cells started and not yet delivered are held, beside one arena per
// engine worker (which keeps the capacity of the largest cell the
// worker has run) and the rollup's one float per metric per finished
// cell (about 28 KB here). The run uses two workers on any machine, as
// BenchmarkManyCellSuite does. Five runs on a 2-core VM peaked at
// 12.5–14.7 MB and took 0.4–0.6 s each. The ceiling is 1.5 times the
// largest reading: a change that kept every cell's simulation state
// until the run ends peaked at 60–66 MB and fails it. The run is gated
// behind FLEET_SMOKE=1 (the CI fleet-smoke job sets it).
func BenchmarkFleetRollup(b *testing.B) {
	if os.Getenv("FLEET_SMOKE") != "1" {
		b.Skip("set FLEET_SMOKE=1 to run the fleet rollup benchmark")
	}
	const heapCeiling = 1.5 * 14.7 // MB
	cfg := fleet.Config{
		Cells:          128,
		MedianMachines: 60,
		Horizon:        2 * sim.Hour,
		Seed:           29,
		Parallelism:    2,
	}
	b.ResetTimer()
	var machines int
	peak := metrics.PeakHeapDuring(func() {
		for i := 0; i < b.N; i++ {
			rep, err := fleet.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			machines = rep.TotalMachines
			if len(rep.Rollup) == 0 || rep.Rollup[0].Name != "cpu_util" || rep.Rollup[0].P50 <= 0 {
				b.Fatalf("fleet rollup malformed: %+v", rep.Rollup)
			}
		}
	})
	peakMB := float64(peak) / 1e6
	b.ReportMetric(peakMB, "peak-heap-MB")
	b.ReportMetric(float64(machines), "machines")
	if peakMB > heapCeiling {
		b.Fatalf("peak heap %.1f MB exceeds the %.1f MB ceiling", peakMB, heapCeiling)
	}
}

// BenchmarkSimulateCell measures end-to-end cell simulation throughput.
func BenchmarkSimulateCell(b *testing.B) {
	p := workload.Profile2019("a", 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Run(p, core.Options{Horizon: 2 * sim.Hour, Seed: uint64(i)})
	}
}

// reduceCell simulates p for 4 hours at seed 3 with a streaming reducer
// attached and no trace retained. The reducer's machine-utilization
// snapshot is taken at mid-horizon, hour 2.
func reduceCell(p *workload.CellProfile) *streaming.CellReducer {
	opts := core.Options{Horizon: 4 * sim.Hour, Seed: 3}
	r := streaming.NewCellReducer(trace.Meta{Cell: p.Name, Duration: opts.Horizon})
	opts.ExtraSinks = []trace.Sink{r}
	core.Run(p, opts)
	return r
}

// BenchmarkAblationPlacement compares placement policies by the spread of
// machine CPU utilization (Figure 6's 2011→2019 tightening is driven by
// this choice).
func BenchmarkAblationPlacement(b *testing.B) {
	for _, policy := range []struct {
		name  string
		value scheduler.PlacementPolicy
	}{
		{"random-fit", scheduler.RandomFit},
		{"best-fit", scheduler.BestFit},
		{"least-allocated", scheduler.LeastAllocated},
	} {
		b.Run(policy.name, func(b *testing.B) {
			var spread float64
			for i := 0; i < b.N; i++ {
				p := workload.Profile2019("a", 60)
				p.Sched.Policy = policy.value
				cpu, _ := reduceCell(p).MachineUtilization()
				s := stats.Summarize(cpu)
				spread = s.Variance
			}
			b.ReportMetric(spread*1000, "util-variance-x1000")
		})
	}
}

// BenchmarkAblationOvercommit sweeps the CPU allocation ceiling and
// reports the OOM/preemption cost of pushing multiplexing harder
// (research direction 2).
func BenchmarkAblationOvercommit(b *testing.B) {
	for _, factor := range []struct {
		name string
		cpu  float64
		mem  float64
	}{{"low-1.2", 1.2, 1.1}, {"paper-1.6", 1.6, 1.3}, {"high-2.0", 2.0, 1.6}} {
		b.Run(factor.name, func(b *testing.B) {
			var oom, preempt float64
			for i := 0; i < b.N; i++ {
				p := workload.Profile2019("b", 60)
				p.Overcommit.CPUFactor = factor.cpu
				p.Overcommit.MemFactor = factor.mem
				res := core.Run(p, core.Options{Horizon: 4 * sim.Hour, Seed: 3})
				oom = float64(res.Sched.OOMEvictions)
				preempt = float64(res.Sched.Preemptions)
			}
			b.ReportMetric(oom, "oom-evictions")
			b.ReportMetric(preempt, "preemptions")
		})
	}
}

// BenchmarkAblationBatchQueue compares the best-effort batch tier's delay
// tail with and without the batch-queue front-end.
func BenchmarkAblationBatchQueue(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"queue-on", true}, {"queue-off", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var p99 float64
			for i := 0; i < b.N; i++ {
				p := workload.Profile2019("b", 60)
				p.Sched.Batch = mode.on
				byTier := reduceCell(p).Delays().ByTier
				p99 = stats.Quantile(byTier[trace.TierBestEffortBatch], 0.99)
			}
			b.ReportMetric(p99, "beb-delay-p99-s")
		})
	}
}

// BenchmarkAblationHogIsolation quantifies §7.3: the mice's delay when the
// top-1% hogs share their priority versus being segregated below them.
func BenchmarkAblationHogIsolation(b *testing.B) {
	for _, mode := range []struct {
		name        string
		hogPriority int
	}{{"hogs-mixed", 110}, {"hogs-isolated", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			var p90 float64
			for i := 0; i < b.N; i++ {
				p90 = miceDelayP90(mode.hogPriority)
			}
			b.ReportMetric(p90, "mice-delay-p90-s")
		})
	}
}

// miceDelayP90 builds a hand-crafted hogs+mice workload on a small cell —
// five 400-task hogs plus 400 single-task mice — and returns the mice's
// 90th-percentile scheduling delay in seconds.
func miceDelayP90(hogPriority int) float64 {
	cell := cluster.NewCell("ablation", cluster.OvercommitPolicy{CPUFactor: 1.5, MemFactor: 1.45})
	for i := 0; i < 30; i++ {
		cell.AddMachine(trace.Resources{CPU: 1, Mem: 1}, "P0")
	}
	k := sim.NewKernel()
	cfg := workload.Profile2019("a", 30).Sched
	cfg.Batch = false
	cfg.ServiceTime = dist.LogNormalFromMedian(0.25, 0.6)
	sched := scheduler.New(cfg, cell, k, tracetest.NopSink{}, rng.New(7), nil)
	src := rng.New(31)

	id := trace.CollectionID(1)
	for i := 0; i < 5; i++ {
		j := scheduler.NewJob(id)
		id++
		j.CollectionType = trace.CollectionJob
		j.Priority = hogPriority
		j.Tier = trace.TierFromPriority2019(hogPriority)
		for t := 0; t < 400; t++ {
			j.AddTask(scheduler.TaskSpec{Request: trace.Resources{CPU: 0.05, Mem: 0.04}, Duration: 2 * sim.Hour, MeanCPU: 0.04, MeanMem: 0.03, PeakFact: 1.2})
		}
		at := sim.Time(i) * 15 * sim.Minute
		k.At(at, sim.Func(func(sim.Time) { sched.Submit(j) }))
	}
	var mice []*scheduler.Job
	for i := 0; i < 400; i++ {
		j := scheduler.NewJob(id)
		id++
		j.CollectionType = trace.CollectionJob
		j.Priority = 110
		j.Tier = trace.TierBestEffortBatch
		j.AddTask(scheduler.TaskSpec{Request: trace.Resources{CPU: 0.02, Mem: 0.02}, Duration: 3 * sim.Minute, MeanCPU: 0.01, MeanMem: 0.01, PeakFact: 1.2})
		mice = append(mice, j)
		at := sim.Time(src.Intn(int(3 * sim.Hour)))
		k.At(at, sim.Func(func(sim.Time) { sched.Submit(j) }))
	}
	k.RunUntil(5 * sim.Hour)

	var delays []float64
	for _, j := range mice {
		if j.FirstRun >= 0 {
			delays = append(delays, (j.FirstRun - j.ReadyTime).Seconds())
		}
	}
	return stats.Quantile(delays, 0.9)
}

// BenchmarkSweepSmall is the parameter-sweep macro benchmark gated in
// CI: a 2-seed × 2-variant sweep of the nine-cell suite at a small
// scale, streaming reducers only (no rows kept), report rendered to
// io.Discard. It exercises grid expansion, common-random-numbers
// seeding, per-spec reducer attachment and cross-seed aggregation — the
// whole internal/sweep path.
func BenchmarkSweepSmall(b *testing.B) {
	def := sweep.Def{
		Scale: experiments.Scale{
			Name: "sweep-bench", Machines2011: 60, Machines2019: 50,
			Horizon: 3 * sim.Hour, Warmup: sim.Hour, Seed: 7,
		},
		Seeds:    2,
		Variants: []sweep.Variant{sweep.Baseline(), sweep.ArrivalScale(1.5)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(def)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.WriteReport(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
