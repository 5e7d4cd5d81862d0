package core

// Benchmarks for the per-window usage pipeline: the sampler walk itself
// (BenchmarkUsageSample) and the sampler feeding a realistic sink
// pipeline — fan-out into a streaming reducer
// (BenchmarkUsagePipeline). Both run against a live cell populated by a
// real warmup simulation, so resident counts, task mix and machine
// occupancy match what a mid-horizon 2019 cell actually looks like.
// BENCH_PR8.json holds their gated baselines (cmd/benchgate).

import (
	"testing"

	"repro/internal/analysis/streaming"
	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/workload"
)

// usageBenchState is a live mid-simulation cell: kernel, scheduler and
// cluster state frozen at the end of warmup, ready for sampler windows.
type usageBenchState struct {
	p     *workload.CellProfile
	cell  *cluster.Cell
	sched *scheduler.Scheduler
	k     *sim.Kernel
	src   *rng.Source
	now   sim.Time
}

// buildUsageBenchState mirrors Run's wiring (minus autopilot and usage
// sampling) and advances the simulation through warmup so the cell holds
// a realistic steady-state resident population.
func buildUsageBenchState(tb testing.TB, machines int, warmup sim.Time) *usageBenchState {
	tb.Helper()
	p := workload.Profile2019("a", machines)
	root := rng.New(11)
	k := sim.NewKernel()
	cell := cluster.BuildCell(p.Name, p.Machines, p.Shapes, p.Overcommit, root.Split("machines"))
	schedCfg := p.Sched
	schedCfg.Batch = false
	sched := scheduler.New(schedCfg, cell, k, tracetest.NopSink{}, root.Split("scheduler"), nil)
	gen := workload.NewGeneratorArrival(p, cell.Capacity().CPU, warmup, root.Split("workload"), 1)
	var scheduleArrival func(now sim.Time)
	scheduleArrival = func(now sim.Time) {
		next := now + gen.NextInterArrival(now)
		if next >= warmup {
			return
		}
		k.At(next, sim.Func(func(t sim.Time) {
			for _, j := range gen.Generate(t) {
				sched.Submit(j)
			}
			scheduleArrival(t)
		}))
	}
	scheduleArrival(0)
	k.RunUntil(warmup)
	if !occupied(cell, sched) {
		tb.Fatal("usage bench warmup produced no running tasks")
	}
	return &usageBenchState{
		p: p, cell: cell, sched: sched, k: k,
		src: root.Split("usage"),
		now: warmup - warmup%sim.SampleWindow,
	}
}

// occupied reports whether any machine of the cell holds a resident.
func occupied(cell *cluster.Cell, sched *scheduler.Scheduler) bool {
	for _, id := range cell.MachineIDs() {
		if len(sched.Residents(id)) > 0 {
			return true
		}
	}
	return false
}

// newBenchSampler binds a fresh sampler (autopilot off) to the live
// cell, pointing at the given sink.
func (st *usageBenchState) newBenchSampler(sink trace.Sink) *usageSampler {
	s := newUsageSampler(st.p, st.cell, st.sched, nil, sink, st.src)
	s.k = st.k
	return s
}

// benchReducer builds a CellReducer dimensioned for the bench cell.
func (st *usageBenchState) benchReducer(horizon sim.Time) *streaming.CellReducer {
	return streaming.NewCellReducer(trace.Meta{
		Era: st.p.Era, Cell: st.p.Name, Duration: horizon,
		Machines: st.p.Machines, Seed: 11,
	})
}

// BenchmarkUsageSample measures one 5-minute sampling window over a
// large, warmed-up cell (LargeScale's 400-machine 2019 shape) with the
// sink reduced to a row counter: the cost of the sampler walk itself.
// Steady state must not allocate — TestUsageSampleSteadyStateZeroAllocs
// guards that, and CI gates this benchmark's allocs/op at zero.
func BenchmarkUsageSample(b *testing.B) {
	st := buildUsageBenchState(b, 400, 2*sim.Hour)
	counter := &trace.CountingSink{}
	sampler := st.newBenchSampler(counter)
	sampler.sample(st.now) // warm buffers
	before := counter.Counts().Usage
	sampler.sample(st.now)
	perWindow := counter.Counts().Usage - before
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampler.sample(st.now)
	}
	b.ReportMetric(float64(perWindow), "records/window")
}

// TestUsageSampleSteadyStateZeroAllocs pins the sampler's allocation-free
// steady state with autopilot disabled: after the first window has sized
// the reusable buffers, a sampling window performs zero heap allocations.
func TestUsageSampleSteadyStateZeroAllocs(t *testing.T) {
	st := buildUsageBenchState(t, 120, sim.Hour)
	sampler := st.newBenchSampler(&trace.CountingSink{})
	sampler.sample(st.now)
	sampler.sample(st.now)
	if allocs := testing.AllocsPerRun(50, func() { sampler.sample(st.now) }); allocs != 0 {
		t.Fatalf("steady-state sample allocated %v times per window, want 0", allocs)
	}
}

// BenchmarkUsagePipeline measures the full usage path — sampler →
// fan-out → streaming reducer — for one window over a warmed-up
// 400-machine cell. The sub-benchmark keeps its name so the gated
// BenchmarkUsagePipeline/batched baseline still matches.
func BenchmarkUsagePipeline(b *testing.B) {
	b.Run("batched", func(b *testing.B) {
		st := buildUsageBenchState(b, 400, 2*sim.Hour)
		reducer := st.benchReducer(8 * sim.Hour)
		sampler := st.newBenchSampler(trace.MultiSink{&trace.CountingSink{}, reducer})
		sampler.sample(st.now) // warm buffers
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sampler.sample(st.now)
		}
	})
}
