package core

import (
	"math"
	"testing"

	"repro/internal/autopilot"
	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/workload"
)

// TestResidentSumsMatchTasks runs a small 2019 cell with the autopilot
// on, wired as Run wires it plus periodic machine maintenance, and after
// every sampling window checks each machine's sums against its slots:
// the allocation sum must equal the residents' machine limits recomputed
// from their tasks (the request, or zero for an alloc-hosted task), and
// the usage sum the sum of the slots' last usage, both within 1e-9.
// Placement, removal, the autopilot's resizes and the sampler's usage
// writes all move these sums, so this pins that a request changes along
// one write path across the autopilot, the scheduler and the cluster.
func TestResidentSumsMatchTasks(t *testing.T) {
	p := workload.Profile2019("a", 40)
	const horizon = 12 * sim.Hour
	root := rng.New(5)
	k := sim.NewKernel()
	sink := tracetest.NopSink{}
	cell := cluster.BuildCell(p.Name, p.Machines, p.Shapes, p.Overcommit, root.Split("machines"))
	sched := scheduler.New(p.Sched, cell, k, sink, root.Split("scheduler"), nil)
	ap := autopilot.New(sched)
	gen := workload.NewGeneratorArrival(p, cell.Capacity().CPU, horizon, root.Split("workload"), 1)
	defer gen.Release()
	(&arrivals{k: k, gen: gen, sched: sched, horizon: horizon}).schedule(0)
	ids := cell.MachineIDs()
	maintenance := 0
	k.Every(17*sim.Minute, 17*sim.Minute, horizon, func(sim.Time) {
		sched.EvictMachine(ids[maintenance%len(ids)])
		maintenance++
	})
	sampler := newUsageSampler(p, cell, sched, ap, sink, root.Split("usage"))
	sampler.k = k
	sched.UnplaceHook = sampler.taskStopped

	near := func(a, b trace.Resources) bool {
		return math.Abs(a.CPU-b.CPU) <= 1e-9 && math.Abs(a.Mem-b.Mem) <= 1e-9
	}
	windows, hosted := 0, 0
	k.Every(sim.SampleWindow, sim.SampleWindow, horizon, func(now sim.Time) {
		sampler.sample(now)
		windows++
		for _, id := range ids {
			var alloc, usage trace.Resources
			slots := sched.Residents(id)
			for i := range slots {
				task := slots[i].Task
				if task.AllocInstance != nil {
					hosted++
				} else {
					alloc = alloc.Add(task.Request)
				}
				usage = usage.Add(slots[i].Usage())
			}
			if got := sched.Allocated(id); !near(got, alloc) {
				t.Fatalf("%v, machine %d: allocated %v, residents' machine limits sum to %v", now, id, got, alloc)
			}
			if got := sched.UsageTotal(id); !near(got, usage) {
				t.Fatalf("%v, machine %d: usage total %v, slots' usage sums to %v", now, id, got, usage)
			}
		}
	})
	k.RunUntil(horizon)

	st := sched.Stats()
	t.Logf("%d windows, %d autopilot updates, %d alloc-hosted resident-windows, %d placements, %d machine evictions, %d OOM evictions, %d OOM kills",
		windows, ap.Updates(), hosted, st.TasksPlaced, st.MachineEvictions, st.OOMEvictions, st.OOMKills)
	if windows == 0 || ap.Updates() == 0 || hosted == 0 || st.MachineEvictions == 0 {
		t.Fatal("the cell exercised too little: want sampled windows, autopilot updates, alloc-hosted residents and maintenance")
	}
}
