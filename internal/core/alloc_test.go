package core

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// allocsPerJob is the heap-allocation budget of a whole cell run, per
// submitted job. A job itself costs three allocations (the Job, its task
// array and its Tasks slice); the rest of the budget covers the pools
// that grow to the peak number of running tasks (resident records,
// autopilot windows, machine resident lists) and the cell's set-up.
// Anything allocated per placement, restart, kernel event or usage
// window costs far more: the cell below makes about 125 placements, 100
// restarts and 380 usage rows per job.
const allocsPerJob = 48

// bytesPerJob is the same run's budget in bytes allocated per submitted
// job. A job's tasks take most of it; a run that kept every trace row
// would allocate several times as much (about 130 KB per job in this
// cell), so this budget also pins that Run keeps no rows of its own.
const bytesPerJob = 32 << 10

// TestRunAllocsPerJob runs one small cell end to end through Run, the
// path every CLI drives, and bounds its heap allocations by allocsPerJob
// and bytesPerJob per submitted job. The isolated zero-allocation guards (placement,
// sampler, kernel Step) cannot see an interaction between layers, such
// as a sampler walk that makes the next placement copy a machine's
// resident list; a whole run can.
func TestRunAllocsPerJob(t *testing.T) {
	p := workload.Profile2019("a", 60)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := Run(p, Options{Horizon: 8 * sim.Hour, Seed: 1})
	runtime.ReadMemStats(&after)
	jobs := res.Sched.JobsSubmitted
	mallocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	if jobs == 0 || res.Sched.TasksPlaced < 50*jobs {
		t.Fatalf("degenerate run: %d jobs, %d placements", jobs, res.Sched.TasksPlaced)
	}
	t.Logf("%d allocations, %.1f KB for %d jobs (%.1f allocations, %.1f KB per job), %d placements, %d restarts",
		mallocs, float64(bytes)/1024, jobs, float64(mallocs)/float64(jobs), float64(bytes)/1024/float64(jobs),
		res.Sched.TasksPlaced, res.Sched.TasksFailedRestarts)
	if budget := uint64(allocsPerJob * jobs); mallocs > budget {
		t.Fatalf("run allocated %d times for %d jobs, budget %d (%d per job)",
			mallocs, jobs, budget, allocsPerJob)
	}
	if budget := uint64(bytesPerJob * jobs); bytes > budget {
		t.Fatalf("run allocated %d bytes for %d jobs, budget %d (%d per job)",
			bytes, jobs, budget, bytesPerJob)
	}
}

// TestPlaceAfterSampleZeroAllocs pins the interaction the per-layer
// guards missed: after a usage-sampling window has walked a machine, a
// Place/Remove cycle on that machine allocates nothing. The sampler reads
// the machine's live resident list, so the next membership change has no
// snapshot to copy.
func TestPlaceAfterSampleZeroAllocs(t *testing.T) {
	st := buildUsageBenchState(t, 120, sim.Hour)
	sampler := st.newBenchSampler(&trace.CountingSink{})
	m := st.cell.OccupiedMachines()[0]
	extra := &cluster.Resident{Key: trace.InstanceKey{Collection: 1 << 40}}
	cycle := func() {
		sampler.sample(st.now)
		st.cell.Place(m.ID, extra)
		st.cell.Remove(m.ID, extra.Key)
	}
	cycle()
	cycle() // size the sampler's buffers and the machine's lists
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("sample then Place/Remove on a sampled machine: %v allocs/op, want 0", allocs)
	}
}
