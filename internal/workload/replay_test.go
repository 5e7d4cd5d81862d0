package workload

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trace"
)

// recordCell drives a fresh generator for the profile through a Recorder
// exactly as core.Run's arrival loop does and returns the capture.
func recordCell(t testing.TB, arrival string, idBase trace.CollectionID, seed uint64) *Recording {
	t.Helper()
	p := Profile2019("a", 240)
	p.Arrival = mustParseArrival(t, arrival)
	horizon := 12 * sim.Hour
	gen := NewGeneratorArrival(p, testCapacityCPU, horizon, rng.New(seed), idBase+1)
	rec := NewRecorder(gen, RecordingMeta{
		Meta:    trace.Meta{Cell: p.Name, Era: p.Era, Machines: p.Machines, Duration: horizon, Seed: seed},
		Arrival: p.Arrival,
		IDBase:  idBase,
	})
	drive(rec, horizon)
	return rec.Recording()
}

// drive pumps a JobSource to its horizon, mirroring core.Run's loop.
func drive(src JobSource, horizon sim.Time) {
	now := sim.Time(0)
	for {
		now += src.NextInterArrival(now)
		if now >= horizon {
			return
		}
		src.Generate(now)
	}
}

func TestRecordingRoundTripsThroughText(t *testing.T) {
	rec := recordCell(t, "cohorts:k=12", 1<<32, 7)
	if len(rec.Arrivals) == 0 {
		t.Fatal("recorded no arrivals")
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, got) {
		t.Fatalf("recording did not round-trip through its text form:\nmeta %+v vs %+v, %d vs %d arrivals",
			rec.Meta, got.Meta, len(rec.Arrivals), len(got.Arrivals))
	}
}

// TestReplayerReproducesRecording replays a capture through a second
// Recorder: the re-capture must equal the original exactly (same arrival
// instants, same job bodies), proving the replayed stream is the
// recorded stream.
func TestReplayerReproducesRecording(t *testing.T) {
	rec := recordCell(t, "", 1<<32, 7)
	re := NewRecorder(NewReplayer(rec, rec.Meta.IDBase), rec.Meta)
	drive(re, rec.Meta.Duration)
	if !reflect.DeepEqual(rec, re.Recording()) {
		t.Fatalf("replay re-capture differs from the original recording (%d vs %d arrivals)",
			len(rec.Arrivals), len(re.Recording().Arrivals))
	}
}

// TestReplayerRebasesIDs checks a recording replays into a different ID
// space: every collection ID (and parent/alloc reference) shifts by the
// new base while offsets stay put.
func TestReplayerRebasesIDs(t *testing.T) {
	rec := recordCell(t, "", 1<<32, 7)
	newBase := trace.CollectionID(5 << 32)
	re := NewRecorder(NewReplayer(rec, newBase),
		RecordingMeta{Meta: rec.Meta.Meta, Arrival: rec.Meta.Arrival, IDBase: newBase})
	drive(re, rec.Meta.Duration)
	got := re.Recording()
	if len(got.Arrivals) != len(rec.Arrivals) {
		t.Fatalf("arrival counts differ: %d vs %d", len(got.Arrivals), len(rec.Arrivals))
	}
	for i := range rec.Arrivals {
		if !reflect.DeepEqual(rec.Arrivals[i], got.Arrivals[i]) {
			t.Fatalf("arrival %d differs after rebase (offsets should be base-independent)", i)
		}
	}
}

// TestReplayerDrains checks the end-of-stream contract: past the last
// recorded arrival the replayer reports an interval beyond any horizon
// and generates nothing.
func TestReplayerDrains(t *testing.T) {
	rec := recordCell(t, "", 1<<32, 7)
	r := NewReplayer(rec, rec.Meta.IDBase)
	drive(r, rec.Meta.Duration)
	if d := r.NextInterArrival(rec.Meta.Duration); d < rec.Meta.Duration {
		t.Fatalf("drained replayer reported inter-arrival %v, want effectively never", d)
	}
	if jobs := r.Generate(rec.Meta.Duration); jobs != nil {
		t.Fatalf("drained replayer generated %d jobs", len(jobs))
	}
}

// TestReadRecordingRejectsCorruption pins the loud-failure contract of
// the versioned format: wrong magic, wrong version and truncation all
// error rather than replaying a distorted workload.
func TestReadRecordingRejectsCorruption(t *testing.T) {
	rec := recordCell(t, "", 1<<32, 7)
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	corrupt := map[string]string{
		"magic":    "borgtrace/1" + good[len("borgworkload/1"):],
		"version":  "borgworkload/9" + good[len("borgworkload/1"):],
		"truncate": good[:len(good)*2/3],
	}
	for name, text := range corrupt {
		if _, err := ReadRecording(bytes.NewReader([]byte(text))); err == nil {
			t.Errorf("%s-corrupted recording parsed without error", name)
		}
	}
}

// TestReadRecordingRejectsUnreplayable: recordings that parse but that a
// cell cannot replay fail at the line that makes them so. The first four
// once loaded and then crashed the scheduler or the reducer.
func TestReadRecordingRejectsUnreplayable(t *testing.T) {
	const (
		header = "borgworkload/1\ncell a\nera 1\nmachines 20\nhorizon 7200000000\nseed 1\narrival poisson\nidbase 0\n"
		task   = "T 0.01 0.01 600000000 0 0.005 0.005 1.2\n"
	)
	job := func(id, tier, scaling, ntasks string) string {
		return "J " + id + " 0 200 " + tier + ` "u" 0 0 0 ` + scaling + " 0 0 " + ntasks + "\n"
	}
	for _, tc := range []struct {
		name, text string
		line       int
	}{
		{"no tasks", header + "arrivals 1\nA 1000000 1\n" + job("1", "0", "0", "0"), 11},
		{"duplicate ID", header + "arrivals 2\nA 1000000 1\n" + job("1", "0", "0", "1") + task +
			"A 2000000 1\n" + job("1", "0", "0", "1") + task, 14},
		{"scaling mode 9", header + "arrivals 1\nA 1000000 1\n" + job("1", "0", "9", "1") + task, 11},
		{"tier 99", header + "arrivals 1\nA 1000000 1\n" + job("1", "99", "0", "1") + task, 11},
		{"time runs back", header + "arrivals 2\nA 2000000 1\n" + job("1", "0", "0", "1") + task +
			"A 1000000 1\n" + job("2", "0", "0", "1") + task, 13},
		{"NaN request", header + "arrivals 1\nA 1000000 1\n" + job("1", "0", "0", "1") +
			"T NaN 0.01 600000000 0 0.005 0.005 1.2\n", 12},
		{"arrival spec", strings.Replace(header, "poisson", "nope", 1) + "arrivals 0\n", 7},
	} {
		_, err := ReadRecording(strings.NewReader(tc.text))
		if err == nil {
			t.Errorf("%s: recording parsed without error", tc.name)
			continue
		}
		if want := fmt.Sprintf("line %d:", tc.line); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, want)
		}
	}
}

// TestRecordingFormatPinned pins the recording's bytes across builds:
// WriteTo of a hand-built recording hashes to a fixed value, and a
// read-back writes the same bytes. Every value is a literal, so no float
// depends on the CPU's arithmetic. The recording covers a user name with
// a space, parent and alloc-set offsets, a multi-knob arrival header and
// a task with restarts.
func TestRecordingFormatPinned(t *testing.T) {
	const (
		wantHash  = "9271c2a1d67dfd1d2767ead081a347520333a21917c817cb72581dbea66a0484"
		wantBytes = 437
	)
	rec := &Recording{
		Meta: RecordingMeta{
			Meta:    trace.Meta{Era: trace.Era2019, Cell: "b", Duration: 3 * sim.Hour, Machines: 40, Seed: 7},
			Arrival: mustParseArrival(t, "cohorts:k=40,skew=1.1,cv=2"),
			IDBase:  5 << 32,
		},
		Arrivals: []RecordedArrival{
			{At: 90 * sim.Second, Jobs: []RecordedJob{
				{
					IDOff: 1,
					CollectionAttrs: trace.CollectionAttrs{CollectionType: trace.CollectionAllocSet,
						Priority: 200, Tier: trace.TierProduction, User: "svc owner"},
					Outcome: scheduler.OutcomeFinish,
					Tasks: []scheduler.TaskSpec{
						{Request: trace.Resources{CPU: 0.25, Mem: 0.125}, Duration: 2 * sim.Hour, PeakFact: 1},
						{Request: trace.Resources{CPU: 0.25, Mem: 0.125}, Duration: 2 * sim.Hour, PeakFact: 1},
					},
				},
				{
					IDOff: 2,
					CollectionAttrs: trace.CollectionAttrs{CollectionType: trace.CollectionJob,
						Priority: 205, Tier: trace.TierProduction, User: "svc owner", AllocSet: 1,
						Scaling: trace.ScalingConstrained},
					Outcome: scheduler.OutcomeFinish,
					Tasks: []scheduler.TaskSpec{
						{Request: trace.Resources{CPU: 0.1, Mem: 0.07}, Duration: 40 * sim.Minute,
							MeanCPU: 0.045, MeanMem: 0.03, PeakFact: 1.35},
					},
				},
			}},
			{At: 17*sim.Minute + 3*sim.Millisecond, Jobs: []RecordedJob{
				{
					IDOff: 3,
					CollectionAttrs: trace.CollectionAttrs{CollectionType: trace.CollectionJob,
						Priority: 110, Tier: trace.TierBestEffortBatch, User: "batch-7", Parent: 2,
						Scheduler: trace.SchedulerBatch, Scaling: trace.ScalingFull},
					Outcome:   scheduler.OutcomeFail,
					KillAfter: 25 * sim.Minute,
					Tasks: []scheduler.TaskSpec{
						{Request: trace.Resources{CPU: 0.02, Mem: 0.015625}, Duration: 90 * sim.Minute,
							Restarts: 3, MeanCPU: 0.0125, MeanMem: 1e-3, PeakFact: 2.5},
					},
				},
			}},
		},
	}
	var b bytes.Buffer
	if _, err := rec.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); got != wantHash || b.Len() != wantBytes {
		t.Fatalf("recording format moved: sha256 %s (%d bytes), want %s (%d bytes)\n%s",
			got, b.Len(), wantHash, wantBytes, b.String())
	}
	back, err := ReadRecording(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := back.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), b.Bytes()) {
		t.Fatalf("read-back writes different bytes:\n%s\nwant\n%s", again.String(), b.String())
	}
}
