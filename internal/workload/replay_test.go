package workload

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
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
	dir := t.TempDir()
	if err := rec.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecordingDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, got) {
		t.Fatalf("recording did not round-trip through its directory:\nmeta %+v vs %+v, %d vs %d arrivals",
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

// recordingFiles are a recording directory's files in the order
// TestRecordingFormatPinned hashes them.
var recordingFiles = []string{"meta.json", "jobs.csv", "tasks.csv"}

// readRecordingFiles returns the bytes of dir's recording files, joined
// in recordingFiles order.
func readRecordingFiles(t testing.TB, dir string) []byte {
	t.Helper()
	var all []byte
	for _, name := range recordingFiles {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// writeRecordingFiles writes a recording directory from the raw bytes
// of its three files and returns it.
func writeRecordingFiles(t testing.TB, meta, jobs, tasks []byte) string {
	t.Helper()
	dir := t.TempDir()
	for i, b := range [][]byte{meta, jobs, tasks} {
		if err := os.WriteFile(filepath.Join(dir, recordingFiles[i]), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestReadRecordingRejectsCorruption pins the loud-failure contract of
// the versioned format: a missing file, a wrong version and a jobs.csv
// cut off mid-row all error rather than replaying a distorted workload.
func TestReadRecordingRejectsCorruption(t *testing.T) {
	rec := recordCell(t, "", 1<<32, 7)
	good := t.TempDir()
	if err := rec.WriteDir(good); err != nil {
		t.Fatal(err)
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(good, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	meta, jobs, tasks := read("meta.json"), read("jobs.csv"), read("tasks.csv")
	cut := bytes.LastIndexByte(jobs[:len(jobs)*2/3], ',') + 1

	missing := writeRecordingFiles(t, meta, jobs, tasks)
	if err := os.Remove(filepath.Join(missing, "tasks.csv")); err != nil {
		t.Fatal(err)
	}
	for name, dir := range map[string]string{
		"missing tasks.csv": missing,
		"version": writeRecordingFiles(t, bytes.Replace(meta, []byte(`"version": 2`), []byte(`"version": 1`), 1),
			jobs, tasks),
		"truncated jobs.csv": writeRecordingFiles(t, meta, jobs[:cut], tasks),
	} {
		if _, err := ReadRecordingDir(dir); err == nil {
			t.Errorf("%s: corrupted recording read without error", name)
		}
	}
}

// TestReadRecordingRejectsUnreplayable: recordings that parse but that a
// cell cannot replay fail naming the file and line, or the collection
// offset, that makes them so. The first four once loaded and then
// crashed the scheduler or the reducer.
func TestReadRecordingRejectsUnreplayable(t *testing.T) {
	meta := `{"version": 2, "Era": 1, "Cell": "a", "Duration": 7200000000, "Machines": 20, "Seed": 1, "arrival": "poisson", "id_base": 0}`
	const (
		jobsHeader  = "arrival,time,collection_id,collection_type,priority,tier,user,parent_collection_id,alloc_collection_id,scheduler,vertical_scaling,outcome,kill_after\n"
		tasksHeader = "collection_id,instance_index,request_cpu,request_mem,duration,restarts,mean_cpu,mean_mem,peak_factor\n"
	)
	job := func(arrival, time, id, tier, scaling string) string {
		return arrival + "," + time + "," + id + ",job,200," + tier + ",u,0,0,default," + scaling + ",finish,0\n"
	}
	task := func(id, cpu string) string { return id + ",0," + cpu + ",0.01,600000000,0,0.005,0.005,1.2\n" }
	job1, task1 := jobsHeader+job("0", "1000000", "1", "free", "none"), tasksHeader+task("1", "0.01")
	for _, tc := range []struct {
		name, meta, jobs, tasks string
		want                    string
	}{
		{"no tasks", meta, job1, tasksHeader, "collection 1:"},
		{"duplicate ID", meta, job1 + job("1", "2000000", "1", "free", "none"), task1, "collection 1:"},
		{"scaling mode 9", meta, jobsHeader + job("0", "1000000", "1", "free", "9"), task1,
			"jobs.csv line 2: vertical_scaling:"},
		{"tier 99", meta, jobsHeader + job("0", "1000000", "1", "99", "none"), task1, "jobs.csv line 2: tier:"},
		{"time runs back", meta, jobsHeader + job("0", "2000000", "1", "free", "none") + job("1", "1000000", "2", "free", "none"),
			task1 + task("2", "0.01"), "collection 2:"},
		{"NaN request", meta, job1, tasksHeader + task("1", "NaN"), "tasks.csv line 2: request_cpu:"},
		{"arrival spec", strings.Replace(meta, "poisson", "nope", 1), job1, task1, "meta.json:"},
		{"version", strings.Replace(meta, `"version": 2`, `"version": 1`, 1), job1, task1, "meta.json:"},
		{"swapped header", meta, strings.Replace(job1, "tier,user", "user,tier", 1), task1,
			"jobs.csv: header column 6"},
		{"task of unknown job", meta, job1, task1 + task("7", "0.01"), "collection 7:"},
	} {
		_, err := ReadRecordingDir(writeRecordingFiles(t, []byte(tc.meta), []byte(tc.jobs), []byte(tc.tasks)))
		if err == nil {
			t.Errorf("%s: recording read without error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

// TestRecordingFormatPinned pins the recording's bytes across builds:
// WriteDir of a hand-built recording writes meta.json, jobs.csv and
// tasks.csv that hash, in that order, to a fixed value, and a read-back
// writes the same bytes. Every value is a literal, so no float depends
// on the CPU's arithmetic. The recording covers a user name with a
// space, a comma, a quote and a newline (CSV quoting), parent and
// alloc-set offsets, a multi-knob arrival spec, two arrivals at the
// same instant and a task with restarts.
func TestRecordingFormatPinned(t *testing.T) {
	const (
		wantHash  = "5c69ce87853e78f937ba84d738f6f8833c1f28ec2469664fe83c492607d0c59a"
		wantBytes = 892
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
						Priority: 205, Tier: trace.TierProduction, User: "svc owner, \"west\"\nteam", AllocSet: 1,
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
			{At: 17*sim.Minute + 3*sim.Millisecond, Jobs: []RecordedJob{
				{
					IDOff: 4,
					CollectionAttrs: trace.CollectionAttrs{CollectionType: trace.CollectionJob,
						Priority: 0, Tier: trace.TierFree, User: "batch-7"},
					Outcome: scheduler.OutcomeKill,
					Tasks: []scheduler.TaskSpec{
						{Request: trace.Resources{CPU: 0.5, Mem: 0.25}, Duration: sim.Hour, PeakFact: 1.1},
					},
				},
			}},
		},
	}
	dir := t.TempDir()
	if err := rec.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	b := readRecordingFiles(t, dir)
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != wantHash || len(b) != wantBytes {
		t.Fatalf("recording format moved: sha256 %s (%d bytes), want %s (%d bytes)\n%s",
			got, len(b), wantHash, wantBytes, b)
	}
	back, err := ReadRecordingDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rec) {
		t.Fatalf("read-back differs from the recording:\n%+v\nwant\n%+v", back, rec)
	}
	again := t.TempDir()
	if err := back.WriteDir(again); err != nil {
		t.Fatal(err)
	}
	if a := readRecordingFiles(t, again); !bytes.Equal(a, b) {
		t.Fatalf("read-back writes different bytes:\n%s\nwant\n%s", a, b)
	}
}
