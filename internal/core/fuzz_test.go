package core

import (
	"bytes"
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

// FuzzReplayRecording: every recording workload.ReadRecording accepts
// replays through Run, re-recorded and with a streaming reducer
// attached, and every reducer product reads back, with no panic. The
// seeds are a recorded cell and four recordings ReadRecording once
// accepted that then crashed the scheduler or the reducer.
func FuzzReplayRecording(f *testing.F) {
	p, opts := fuzzReplayOpts()
	opts.RecordWorkload = true
	rec := Run(p, opts).Workload
	rec.Arrivals = rec.Arrivals[:min(len(rec.Arrivals), 4)]
	var seed bytes.Buffer
	if _, err := rec.WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	const (
		header = "borgworkload/1\ncell a\nera 1\nmachines 20\nhorizon 7200000000\nseed 1\narrival poisson\nidbase 0\n"
		task   = "T 0.01 0.01 600000000 0 0.005 0.005 1.2\n"
	)
	job := func(id, tier, scaling, ntasks string) string {
		return "J " + id + " 0 200 " + tier + ` "u" 0 0 0 ` + scaling + " 0 0 " + ntasks + "\n"
	}
	f.Add([]byte(header + "arrivals 1\nA 1000000 1\n" + job("1", "0", "0", "0")))
	f.Add([]byte(header + "arrivals 2\nA 1000000 1\n" + job("1", "0", "0", "1") + task +
		"A 2000000 1\n" + job("1", "0", "0", "1") + task))
	f.Add([]byte(header + "arrivals 1\nA 1000000 1\n" + job("1", "0", "9", "1") + task))
	f.Add([]byte(header + "arrivals 1\nA 1000000 1\n" + job("1", "99", "0", "1") + task))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := workload.ReadRecording(bytes.NewReader(data))
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
