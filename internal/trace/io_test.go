package trace

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	tr := newTestTrace()
	dir := t.TempDir()
	if err := WriteDir(tr, dir); err != nil {
		t.Fatalf("write: %v", err)
	}
	for _, f := range []string{metaFile, collectionEventsFile, instanceEventsFile, usageFile, machineEventsFile} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Meta != tr.Meta {
		t.Fatalf("meta %+v != %+v", got.Meta, tr.Meta)
	}
	if !reflect.DeepEqual(got.CollectionEvents, tr.CollectionEvents) {
		t.Fatalf("collection events differ:\n%v\n%v", got.CollectionEvents, tr.CollectionEvents)
	}
	if !reflect.DeepEqual(got.InstanceEvents, tr.InstanceEvents) {
		t.Fatalf("instance events differ")
	}
	if !reflect.DeepEqual(got.UsageRecords, tr.UsageRecords) {
		t.Fatalf("usage records differ:\n%v\n%v", got.UsageRecords, tr.UsageRecords)
	}
	if !reflect.DeepEqual(got.MachineEvents, tr.MachineEvents) {
		t.Fatalf("machine events differ")
	}
}

func TestReadDirMissing(t *testing.T) {
	if _, err := ReadDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("expected error for missing dir")
	}
}

func TestReadDirCorruptMeta(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDir(newTestTrace(), dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, metaFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); err == nil {
		t.Fatal("expected error for corrupt meta")
	}
}

func TestReadDirCorruptRow(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDir(newTestTrace(), dir); err != nil {
		t.Fatal(err)
	}
	bad := "time,collection_id,type,collection_type,priority,tier,user,parent_collection_id,alloc_collection_id,scheduler,vertical_scaling\nnot-a-number,1,SUBMIT,job,0,free,u,0,0,default,none\n"
	if err := os.WriteFile(filepath.Join(dir, collectionEventsFile), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); err == nil {
		t.Fatal("expected error for corrupt row")
	}
}

func TestReadDirBadEnums(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDir(newTestTrace(), dir); err != nil {
		t.Fatal(err)
	}
	bad := "time,collection_id,type,collection_type,priority,tier,user,parent_collection_id,alloc_collection_id,scheduler,vertical_scaling\n1,1,SUBMIT,weird,0,free,u,0,0,default,none\n"
	if err := os.WriteFile(filepath.Join(dir, collectionEventsFile), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); err == nil {
		t.Fatal("expected error for bad collection type")
	}
}

// TestReadDirRejectsOutOfRangeIndex: an instance index outside
// [0, MaxInt32] must fail the load with an error naming the file and
// line, not wrap silently into the int32 key.
func TestReadDirRejectsOutOfRangeIndex(t *testing.T) {
	for _, c := range []struct {
		file  string
		field int
	}{
		{instanceEventsFile, 2},  // instance index
		{instanceEventsFile, 10}, // alloc instance index
		{usageFile, 3},
	} {
		for _, bad := range []string{"2147483648", "-1"} {
			dir := t.TempDir()
			if err := WriteDir(newTestTrace(), dir); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, c.file)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(string(data), "\n")
			if len(lines) < 2 || lines[1] == "" {
				t.Fatalf("%s has no data row", c.file)
			}
			fields := strings.Split(lines[1], ",")
			fields[c.field] = bad
			row := lines[0] + "\n" + strings.Join(fields, ",") + "\n"
			if err := os.WriteFile(path, []byte(row), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = ReadDir(dir)
			if err == nil {
				t.Fatalf("%s field %d = %s: loaded without error", c.file, c.field, bad)
			}
			if msg := err.Error(); !strings.Contains(msg, c.file) || !strings.Contains(msg, "line 2") {
				t.Fatalf("error %q does not name the file and line", msg)
			}
		}
	}
}

func TestParseHelpers(t *testing.T) {
	if _, err := parseTier("nope"); err == nil {
		t.Fatal("parseTier")
	}
	if _, err := parseScheduler("nope"); err == nil {
		t.Fatal("parseScheduler")
	}
	if _, err := parseScaling("nope"); err == nil {
		t.Fatal("parseScaling")
	}
	if _, err := parseMachineEventType("nope"); err == nil {
		t.Fatal("parseMachineEventType")
	}
	for _, tier := range Tiers() {
		got, err := parseTier(tier.String())
		if err != nil || got != tier {
			t.Fatalf("tier round trip %v", tier)
		}
	}
}

// TestDirSinkStreamsIdenticalToWriteDir pins the shared-encoder property:
// streaming rows through a DirSink, with usage rows in one-record blocks
// as the sampler's partial-window path delivers them, produces
// byte-identical files to post-hoc WriteDir of the same trace, which
// hands the whole usage table over as one block.
func TestDirSinkStreamsIdenticalToWriteDir(t *testing.T) {
	tr := newTestTrace()
	postDir, streamDir := t.TempDir(), t.TempDir()
	if err := WriteDir(tr, postDir); err != nil {
		t.Fatal(err)
	}
	ds, err := NewDirSink(streamDir, tr.Meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.MachineEvents {
		ds.MachineEvent(ev)
	}
	for _, ev := range tr.CollectionEvents {
		ds.CollectionEvent(ev)
	}
	for _, ev := range tr.InstanceEvents {
		ds.InstanceEvent(ev)
	}
	for i := range tr.UsageRecords {
		ds.UsageBatch(tr.UsageRecords[i : i+1])
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{metaFile, collectionEventsFile, instanceEventsFile, usageFile, machineEventsFile} {
		want, err := os.ReadFile(filepath.Join(postDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(streamDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s differs between streamed and post-hoc write", name)
		}
	}
}

// TestDirSinkMidRunFlushAndCloseIdempotent exercises Flush mid-stream
// (rows written so far become visible on disk) and double Close.
func TestDirSinkMidRunFlushAndCloseIdempotent(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirSink(dir, Meta{Cell: "x"})
	if err != nil {
		t.Fatal(err)
	}
	ds.MachineEvent(MachineEvent{Time: 0, Machine: 1, Type: MachineAdd, Capacity: Resources{CPU: 1, Mem: 1}, Platform: "P0"})
	ds.Flush()
	mid, err := os.ReadFile(filepath.Join(dir, machineEventsFile))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(mid), "\n"); lines != 2 { // header + 1 row
		t.Fatalf("mid-run flush left %d lines visible, want 2", lines)
	}
	ds.MachineEvent(MachineEvent{Time: 1, Machine: 2, Type: MachineAdd, Capacity: Resources{CPU: 1, Mem: 1}, Platform: "P0"})
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// Rows after Close are dropped, not panicking or resurrecting files.
	ds.MachineEvent(MachineEvent{Time: 2, Machine: 3, Type: MachineAdd})
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.MachineEvents) != 2 {
		t.Fatalf("machine events %d, want 2", len(got.MachineEvents))
	}
	if ds.Err() != nil {
		t.Fatalf("unexpected sink error: %v", ds.Err())
	}
}
