package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/streaming"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fuzzReplayOpts is the cell every FuzzReplayRecording input replays in.
func fuzzReplayOpts() (*workload.CellProfile, Options) {
	return workload.Profile2019("a", 20), Options{Horizon: 2 * sim.Hour, Seed: 1, IDBase: 1 << 32}
}

// writeRecording writes a recording directory from the raw bytes of its
// meta.json, jobs.csv and tasks.csv and returns it.
func writeRecording(t testing.TB, meta, jobs, tasks []byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, b := range map[string][]byte{"meta.json": meta, "jobs.csv": jobs, "tasks.csv": tasks} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// FuzzReplayRecording: every recording workload.ReadRecordingDir accepts
// replays through Run, re-recorded and with a streaming reducer
// attached, and every reducer product reads back, with no panic. The
// inputs are jobs.csv and tasks.csv beside the meta.json of a recorded
// cell. The seeds are that cell and four recordings the reader once
// accepted that then crashed the scheduler or the reducer.
func FuzzReplayRecording(f *testing.F) {
	p, opts := fuzzReplayOpts()
	opts.RecordWorkload = true
	rec := Run(p, opts).Workload
	rec.Arrivals = rec.Arrivals[:min(len(rec.Arrivals), 4)]
	seed := f.TempDir()
	if err := rec.WriteDir(seed); err != nil {
		f.Fatal(err)
	}
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join(seed, name))
		if err != nil {
			f.Fatal(err)
		}
		return string(b)
	}
	meta, jobs, tasks := []byte(read("meta.json")), read("jobs.csv"), read("tasks.csv")
	f.Add([]byte(jobs), []byte(tasks))
	jobsHeader, _, _ := strings.Cut(jobs, "\n")
	tasksHeader, _, _ := strings.Cut(tasks, "\n")
	job := func(arrival, id, tier, scaling string) string {
		return arrival + ",1000000," + id + ",job,200," + tier + ",u,0,0,default," + scaling + ",finish,0\n"
	}
	task := func(id string) string { return id + ",0,0.01,0.01,600000000,0,0.005,0.005,1.2\n" }
	for _, c := range [][2]string{
		{job("0", "1", "free", "none"), ""},                                        // a job with no tasks
		{job("0", "1", "free", "none") + job("1", "1", "free", "none"), task("1")}, // a duplicate ID
		{job("0", "1", "free", "9"), task("1")},                                    // scaling mode 9
		{job("0", "1", "99", "none"), task("1")},                                   // tier 99
	} {
		f.Add([]byte(jobsHeader+"\n"+c[0]), []byte(tasksHeader+"\n"+c[1]))
	}

	f.Fuzz(func(t *testing.T, jobs, tasks []byte) {
		rec, err := workload.ReadRecordingDir(writeRecording(t, meta, jobs, tasks))
		if err != nil {
			return
		}
		p, opts := fuzzReplayOpts()
		opts.Replay = rec
		opts.RecordWorkload = true
		r := streaming.NewCellReducer(TraceMeta(p, opts))
		opts.ExtraSinks = []trace.Sink{r}
		Run(p, opts)
		r.MachineShapes()
		r.UsageSeries()
		r.AllocationSeries()
		r.AverageUsageByTier(sim.Hour)
		r.AverageAllocationByTier(sim.Hour)
		r.MachineUtilization()
		r.Transitions()
		r.Inventory()
		r.AllocSetAccum()
		r.TerminationAccum()
		r.Rates()
		r.Delays()
		r.TasksPerJob()
		r.UsageIntegrals()
		for mode := trace.ScalingNone; mode <= trace.ScalingFull; mode++ {
			r.SlackSamples(mode)
		}
	})
}
