package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	tr := newTestTrace()
	dir := t.TempDir()
	if err := writeDir(tr, dir); err != nil {
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
	if g, w := collect(&got.CollectionEvents), collect(&tr.CollectionEvents); !reflect.DeepEqual(g, w) {
		t.Fatalf("collection events differ:\n%v\n%v", g, w)
	}
	if !reflect.DeepEqual(collect(&got.InstanceEvents), collect(&tr.InstanceEvents)) {
		t.Fatalf("instance events differ")
	}
	if g, w := collect(&got.UsageRecords), collect(&tr.UsageRecords); !reflect.DeepEqual(g, w) {
		t.Fatalf("usage records differ:\n%v\n%v", g, w)
	}
	if !reflect.DeepEqual(collect(&got.MachineEvents), collect(&tr.MachineEvents)) {
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
	if err := writeDir(newTestTrace(), dir); err != nil {
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
	if err := writeDir(newTestTrace(), dir); err != nil {
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
	if err := writeDir(newTestTrace(), dir); err != nil {
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

// TestReadDirRejectsOutOfRangeIndex: an instance index or machine ID
// outside [0, MaxInt32] must fail the load with an error naming the file
// and line, not wrap silently into the int32 field (4294967297 would
// read as machine 1).
func TestReadDirRejectsOutOfRangeIndex(t *testing.T) {
	for _, c := range []struct {
		file  string
		field int
	}{
		{instanceEventsFile, 2},  // instance index
		{instanceEventsFile, 10}, // alloc instance index
		{usageFile, 3},
		{instanceEventsFile, 4}, // machine ID
		{usageFile, 4},
		{machineEventsFile, 1},
	} {
		for _, bad := range []string{"2147483648", "4294967297", "-1"} {
			dir := t.TempDir()
			if err := writeDir(newTestTrace(), dir); err != nil {
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

// TestReadDirChecksHeader: a table whose header names other columns, or
// the right ones in another order, or that has no header row at all, must
// fail the load with an error naming the file and the first column that
// differs. A swapped avg_cpu/avg_mem header would otherwise read memory
// usage as CPU.
func TestReadDirChecksHeader(t *testing.T) {
	usageHeader := "start_time,end_time,collection_id,instance_index,machine_id,tier,avg_cpu,avg_mem,max_cpu,max_mem,limit_cpu,limit_mem"
	for _, c := range []struct {
		name, file, header, want string
	}{
		{"swapped", usageFile, strings.Replace(usageHeader, "avg_cpu,avg_mem", "avg_mem,avg_cpu", 1), `column 7 is "avg_mem", want "avg_cpu"`},
		{"short", usageFile, strings.TrimSuffix(usageHeader, ",limit_mem"), `lacks column 12 "limit_mem"`},
		{"long", usageFile, usageHeader + ",extra", `extra column 13 "extra"`},
		{"empty collection events", collectionEventsFile, "", "no header row"},
		{"empty instance events", instanceEventsFile, "", "no header row"},
		{"empty usage", usageFile, "", "no header row"},
		{"empty machine events", machineEventsFile, "", "no header row"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := writeDir(newTestTrace(), dir); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, c.file)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if c.header != "" {
				_, rows, _ := strings.Cut(string(data), "\n")
				data = []byte(c.header + "\n" + rows)
			} else {
				data = nil
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			tr, err := ReadDir(dir)
			if err == nil {
				t.Fatalf("loaded without error: %s", tr.Counts())
			}
			if msg := err.Error(); !strings.Contains(msg, c.file) || !strings.Contains(msg, c.want) {
				t.Fatalf("error %q does not name %s and %s", msg, c.file, c.want)
			}
		})
	}
}

// TestParseHelpers round-trips every trace enum through its name table:
// each value prints as its name and parses back, an unknown name is
// rejected with an error naming the enum, and the first value past the
// table prints as Type(n).
func TestParseHelpers(t *testing.T) {
	checkEnum(t, eraNames, Era2019+1)
	checkEnum(t, tierNames, NumTiers)
	checkEnum(t, collectionTypeNames, CollectionAllocSet+1)
	checkEnum(t, scalingNames, ScalingFull+1)
	checkEnum(t, schedulerNames, SchedulerBatch+1)
	checkEnum(t, eventTypeNames, NumEventTypes)
	checkEnum(t, machineEventNames, MachineUpdate+1)
	checkEnum(t, kindNames, KindString+1)
}

// checkEnum checks one enum's name table against its n values.
func checkEnum[E interface {
	~int
	String() string
}](t *testing.T, names enumNames[E], n E) {
	t.Helper()
	if len(names.names) != int(n) {
		t.Errorf("%s: %d names for %d values", names.typ, len(names.names), n)
	}
	for v := E(0); v < n; v++ {
		if got, err := names.parse(v.String()); err != nil || got != v {
			t.Errorf("%s: %q parsed as %d, %v", names.typ, v.String(), got, err)
		}
	}
	if _, err := names.parse("nope"); err == nil || !strings.Contains(err.Error(), `unknown `+names.kind+` "nope"`) {
		t.Errorf("%s: parsing an unknown name gave error %v", names.typ, err)
	}
	if got, want := n.String(), fmt.Sprintf("%s(%d)", names.typ, n); got != want {
		t.Errorf("value past the table prints %q, want %q", got, want)
	}
}

// TestDirSinkStreamsIdenticalToWriteDir pins the shared-encoder property:
// streaming rows through a DirSink, with usage rows in one-record blocks
// as the sampler's partial-window path delivers them, produces
// byte-identical files to post-hoc writeDir of the same trace, which
// hands the whole usage table over as one block.
func TestDirSinkStreamsIdenticalToWriteDir(t *testing.T) {
	tr := newTestTrace()
	postDir, streamDir := t.TempDir(), t.TempDir()
	if err := writeDir(tr, postDir); err != nil {
		t.Fatal(err)
	}
	ds, err := NewDirSink(streamDir, tr.Meta)
	if err != nil {
		t.Fatal(err)
	}
	for ev := range tr.MachineEvents.All() {
		ds.MachineEvent(ev)
	}
	for ev := range tr.CollectionEvents.All() {
		ds.CollectionEvent(ev)
	}
	for ev := range tr.InstanceEvents.All() {
		ds.InstanceEvent(ev)
	}
	for rec := range tr.UsageRecords.All() {
		ds.UsageBatch([]UsageRecord{rec})
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
	if got.MachineEvents.Len() != 2 {
		t.Fatalf("machine events %d, want 2", got.MachineEvents.Len())
	}
	if ds.err != nil {
		t.Fatalf("unexpected sink error: %v", ds.err)
	}
}
