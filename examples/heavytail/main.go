// Heavytail: demonstrates the paper's §7 "hogs and mice" finding and its
// scheduling implication (§7.3, research direction 5): when 1% of jobs
// carry almost all the load, isolating them — here by demoting them below
// the mice — collapses the mice's queueing delay.
//
// The example drives the scheduler directly through the public API with a
// hand-built workload: many tiny mice jobs plus a few enormous hogs.
//
//	go run ./examples/heavytail
package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// buildWorkload makes 500 mice and 5 hogs; hog tasks keep the scheduler
// busy for long stretches.
func runScenario(hogPriority int) (miceDelaysSeconds []float64, hogShare float64) {
	cell := cluster.NewCell("ht", cluster.OvercommitPolicy{CPUFactor: 1.5, MemFactor: 1.45})
	for i := 0; i < 40; i++ {
		cell.AddMachine(trace.Resources{CPU: 1, Mem: 1}, "P0")
	}
	k := sim.NewKernel()
	sink := trace.NewMemTrace(trace.Meta{Era: trace.Era2019, Cell: "ht", Duration: 6 * sim.Hour, Machines: 40})
	cfg := workload.Profile2019("a", 40).Sched
	cfg.Batch = false
	cfg.ServiceTime = dist.LogNormalFromMedian(0.25, 0.6) // a busy scheduler
	sched := scheduler.New(cfg, cell, k, sink, rng.New(7), nil)
	src := rng.New(99)

	id := trace.CollectionID(1)
	var miceJobs []*scheduler.Job
	var total, hogHours float64

	// 5 hogs: 400 tasks each, 2 hours — over 99% of the compute-hours.
	for i := 0; i < 5; i++ {
		j := scheduler.NewJob(id)
		id++
		j.CollectionAttrs = trace.CollectionAttrs{
			CollectionType: trace.CollectionJob,
			Priority:       hogPriority,
			Tier:           trace.TierFromPriority2019(hogPriority),
			User:           "hog",
		}
		for t := 0; t < 400; t++ {
			j.AddTask(scheduler.TaskSpec{
				Request:  trace.Resources{CPU: 0.08, Mem: 0.05},
				Duration: 2 * sim.Hour,
				MeanCPU:  0.06, MeanMem: 0.04, PeakFact: 1.2,
			})
		}
		hogHours += 400 * 0.06 * 2
		total += 400 * 0.06 * 2
		at := sim.Time(i) * 20 * sim.Minute
		k.At(at, sim.Func(func(sim.Time) { sched.Submit(j) }))
	}

	// 500 mice: 1 task, 3 minutes, arriving throughout.
	for i := 0; i < 500; i++ {
		j := scheduler.NewJob(id)
		id++
		j.CollectionAttrs = trace.CollectionAttrs{
			CollectionType: trace.CollectionJob,
			Priority:       110,
			Tier:           trace.TierBestEffortBatch,
			User:           "mouse",
		}
		j.AddTask(scheduler.TaskSpec{
			Request:  trace.Resources{CPU: 0.02, Mem: 0.02},
			Duration: 3 * sim.Minute,
			MeanCPU:  0.015, MeanMem: 0.015, PeakFact: 1.2,
		})
		total += 0.015 * 0.05
		miceJobs = append(miceJobs, j)
		at := sim.Time(src.Intn(int(4 * sim.Hour)))
		k.At(at, sim.Func(func(sim.Time) { sched.Submit(j) }))
	}

	k.RunUntil(6 * sim.Hour)

	for _, j := range miceJobs {
		if j.FirstRun >= 0 {
			miceDelaysSeconds = append(miceDelaysSeconds, (j.FirstRun - j.ReadyTime).Seconds())
		}
	}
	return miceDelaysSeconds, hogHours / total
}

func main() {
	// Scenario A: hogs share the mice's priority — mice queue behind
	// thousands of hog task placements.
	same, share := runScenario(110)
	// Scenario B: hogs demoted to the free tier — mice are effectively
	// isolated and see a lightly loaded scheduler.
	isolated, _ := runScenario(0)

	fmt.Printf("hogs are 1%% of jobs and %.1f%% of compute-hours\n\n", share*100)
	fmt.Printf("%-28s %10s %10s %10s\n", "scenario", "p50 (s)", "p90 (s)", "p99 (s)")
	p := func(xs []float64, q float64) float64 { return stats.Quantile(xs, q) }
	fmt.Printf("%-28s %10.2f %10.2f %10.2f\n", "hogs at mice priority", p(same, 0.5), p(same, 0.9), p(same, 0.99))
	fmt.Printf("%-28s %10.2f %10.2f %10.2f\n", "hogs isolated below mice", p(isolated, 0.5), p(isolated, 0.9), p(isolated, 0.99))
	fmt.Println("\nisolating the hogs lets the 99% of jobs that are mice see a lightly loaded cell (§7.3)")
}
