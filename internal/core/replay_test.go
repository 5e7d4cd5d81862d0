package core

import (
	"reflect"
	"testing"

	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/workload"
)

func tracesEqual(t *testing.T, label string, a, b *trace.MemTrace) bool {
	t.Helper()
	if d := tracetest.Diff(a, b); d != "" {
		t.Errorf("%s: %s", label, d)
		return false
	}
	return true
}

func replayOpts() Options {
	return Options{Horizon: 6 * sim.Hour, Seed: 11, IDBase: 1 << 32}
}

// TestReplayReproducesRecordingRun pins the replay fidelity contract at
// the cell level: a run that replays its own recording at the same seed
// produces the recording run's trace byte for byte — the workload stream
// carries every workload-split draw, and the other rng streams
// (machines, scheduler, maintenance, usage) are untouched by skipping
// the generator.
func TestReplayReproducesRecordingRun(t *testing.T) {
	opts := replayOpts()
	opts.RecordWorkload = true
	rec, recTrace := runRetained(workload.Profile2019("a", 180), opts)
	if rec.Workload == nil || len(rec.Workload.Arrivals) == 0 {
		t.Fatal("RecordWorkload run captured no workload")
	}

	opts2 := replayOpts()
	opts2.Replay = rec.Workload
	_, rep := runRetained(workload.Profile2019("a", 180), opts2)
	if !tracesEqual(t, "record vs replay", recTrace, rep) {
		t.Fatal("replaying a cell's own recording did not reproduce its trace")
	}
}

// TestReplayIdenticalAcrossPolicies pins workload/policy separation:
// replaying one recording under two placement policies re-records equal
// workloads (the arrival stream is policy-independent) while the
// schedulers place it differently.
func TestReplayIdenticalAcrossPolicies(t *testing.T) {
	opts := replayOpts()
	opts.RecordWorkload = true
	rec := Run(workload.Profile2019("a", 180), opts)

	var recs [2]*workload.Recording
	var traces [2]*trace.MemTrace
	for i, policy := range []scheduler.PlacementPolicy{scheduler.RandomFit, scheduler.BestFit} {
		p := workload.Profile2019("a", 180)
		RunKnobs{Policy: &policy}.Apply(p)
		o := replayOpts()
		o.Replay = rec.Workload
		o.RecordWorkload = true
		res, tr := runRetained(p, o)
		recs[i] = res.Workload
		traces[i] = tr
	}
	if !reflect.DeepEqual(recs[0], recs[1]) {
		t.Fatal("re-recorded workloads differ across policies — replay is leaking policy into the workload")
	}
	if tracetest.RowsEqual(&traces[0].InstanceEvents, &traces[1].InstanceEvents) {
		t.Fatal("random-fit and best-fit produced identical instance events under replay — policy override inert")
	}
}

// TestReplayIgnoresArrivalOverride: under replay the recorded stream
// wins; the profile's arrival process (where an -arrival override
// lands) must not change the trace.
func TestReplayIgnoresArrivalOverride(t *testing.T) {
	opts := replayOpts()
	opts.RecordWorkload = true
	rec := Run(workload.Profile2019("a", 180), opts)

	a := replayOpts()
	a.Replay = rec.Workload
	_, plain := runRetained(workload.Profile2019("a", 180), a)

	pb := workload.Profile2019("a", 180)
	gamma, err := workload.ParseArrival("gamma:cv=2.5")
	if err != nil {
		t.Fatal(err)
	}
	pb.Arrival = gamma
	b := replayOpts()
	b.Replay = rec.Workload
	_, overridden := runRetained(pb, b)
	if !tracesEqual(t, "replay vs replay+arrival", plain, overridden) {
		t.Fatal("arrival override changed a replayed run")
	}
}
