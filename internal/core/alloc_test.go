package core

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/workload"
)

// allocsPerJob is the heap-allocation budget of a whole cell run, per
// submitted job. The run below reads 20.7, and the budget is about 2.2
// times that. A job costs one allocation (the Job), and a kept job at
// most one more (its task array, which holds the tasks by value; it is
// none when the scheduler reuses an array reclaimed from a finished
// job); the rest of the budget covers the pools that grow to the peak
// number of running tasks (autopilot windows, machine slot slices, the
// scheduler's free task arrays, the generator's task-spec scratch) and
// the cell's set-up. Anything allocated per placement, restart, kernel
// event or usage window costs far more: the cell below makes about 125
// placements, 100 restarts and 380 usage rows per job.
const allocsPerJob = 46

// bytesPerJob is the same run's budget in bytes allocated per submitted
// job. The run reads 16.1 KB, and the budget is about 1.8 times that. A
// job's tasks take most of it; a run that kept every trace row would
// allocate several times as much (about 130 KB per job in this cell), so
// this budget also pins that Run keeps no rows of its own.
const bytesPerJob = 29 << 10

// TestRunAllocsPerJob runs one small cell end to end through Run, the
// path every CLI drives, and bounds its heap allocations by allocsPerJob
// and bytesPerJob per submitted job. The isolated zero-allocation guards (placement,
// sampler, kernel Step) cannot see an interaction between layers, such
// as a sampler walk that makes the next placement copy a machine's
// resident list; a whole run can.
func TestRunAllocsPerJob(t *testing.T) {
	p := workload.Profile2019("a", 60)
	var before, after runtime.MemStats
	// The generator's task-spec scratch comes from a sync.Pool, which
	// keeps what an earlier run left through one GC (in its victim
	// cache) and drops it at the second. Two GCs make every run start
	// cold, so -count 2 reads what the first run reads.
	runtime.GC()
	runtime.GC()
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
// task leaving that machine and being placed back on it allocates
// nothing. The sampler reads the scheduler's own slots, so the next
// membership change has no snapshot to copy. The cell has one machine,
// so the evicted task can only come back to the machine just walked.
func TestPlaceAfterSampleZeroAllocs(t *testing.T) {
	p := workload.Profile2019("a", 1)
	cell := cluster.NewCell(p.Name, p.Overcommit)
	m := cell.AddMachine(trace.Resources{CPU: 1, Mem: 1}, "P0")
	k := sim.NewKernel()
	cfg := p.Sched
	cfg.Batch = false
	sched := scheduler.New(cfg, cell, k, tracetest.NopSink{}, rng.New(11), nil)
	j := scheduler.NewJob(1)
	j.CollectionType = trace.CollectionJob
	for i := 0; i < 8; i++ {
		j.AddTask(scheduler.TaskSpec{Request: trace.Resources{CPU: 0.1, Mem: 0.1}, Duration: 1000 * sim.Hour,
			MeanCPU: 0.05, MeanMem: 0.05, PeakFact: 1.2})
	}
	k.At(0, sim.Func(func(sim.Time) { sched.Submit(j) }))
	k.RunUntil(sim.Minute)
	sampler := newUsageSampler(p, cell, sched, nil, &trace.CountingSink{}, rng.New(12))
	sampler.k = k
	task := &j.Tasks[0]
	cycle := func() {
		sampler.sample(k.Now())
		sched.Evict(task)
		k.RunUntil(k.Now() + sim.Minute)
		if task.State != scheduler.TaskRunning || task.Machine != m.ID {
			t.Fatalf("evicted task is %v on machine %d, want running on %d", task.State, task.Machine, m.ID)
		}
	}
	cycle()
	cycle() // size the sampler's buffers, the slots and the kernel's event slots
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("sample then evict and place back on the sampled machine: %v allocs/op, want 0", allocs)
	}
}
