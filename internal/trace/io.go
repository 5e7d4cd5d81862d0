package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// The on-disk layout mirrors the 2011 trace's CSV distribution (§3): one
// file per table plus a JSON metadata file.
const (
	metaFile             = "meta.json"
	collectionEventsFile = "collection_events.csv"
	instanceEventsFile   = "instance_events.csv"
	usageFile            = "instance_usage.csv"
	machineEventsFile    = "machine_events.csv"
)

// Kind is the type of a column's values as Column.Value returns them:
// an int64 (uint64 for collection IDs), a float64 or a string (an enum's
// name).
type Kind int

// Column kinds.
const (
	KindInt Kind = iota
	KindFloat
	KindString
)

var kindNames = enumNames[Kind]{"Kind", "kind", []string{"int", "float", "string"}}

// String names the kind.
func (k Kind) String() string { return kindNames.name(k) }

// Column is one CSV column of a table whose rows have type R. It is bound
// to one field of R, which it formats for DirSink, parses for ReadDir and
// reads for queries.
type Column[R any] struct {
	name   string
	kind   Kind
	format func(r *R) string
	parse  func(r *R, s string) error
	value  func(r *R) any
}

// Name returns the column's CSV header name.
func (c Column[R]) Name() string { return c.name }

// Kind returns the type of the column's values.
func (c Column[R]) Kind() Kind { return c.kind }

// Value returns the column's field of r, typed as Kind says.
func (c Column[R]) Value(r *R) any { return c.value(r) }

// The column constructors, one per field type. Each takes the column's
// CSV name and f, which points at the column's field in a row.

// intCol is a signed integer column: a time or a priority.
func intCol[R any, T ~int | ~int64](name string, f func(*R) *T) Column[R] {
	return Column[R]{name, KindInt,
		func(r *R) string { return strconv.FormatInt(int64(*f(r)), 10) },
		func(r *R, s string) error {
			v, err := strconv.ParseInt(s, 10, 64)
			*f(r) = T(v)
			return err
		},
		func(r *R) any { return int64(*f(r)) },
	}
}

// indexCol is a machine ID or instance index column. Its values lie in
// [0, MaxInt32]; parse rejects the rest, which would wrap when narrowed
// to the field's int32.
func indexCol[R any, T ~int32](name string, f func(*R) *T) Column[R] {
	return Column[R]{name, KindInt,
		func(r *R) string { return strconv.FormatInt(int64(*f(r)), 10) },
		func(r *R, s string) error {
			v, err := strconv.ParseInt(s, 10, 32)
			if err == nil && v < 0 {
				err = fmt.Errorf("%d is out of range [0, %d]", v, math.MaxInt32)
			}
			*f(r) = T(v)
			return err
		},
		func(r *R) any { return int64(*f(r)) },
	}
}

// collectionCol is a collection ID column.
func collectionCol[R any](name string, f func(*R) *CollectionID) Column[R] {
	return Column[R]{name, KindInt,
		func(r *R) string { return strconv.FormatUint(uint64(*f(r)), 10) },
		func(r *R, s string) error {
			v, err := strconv.ParseUint(s, 10, 64)
			*f(r) = CollectionID(v)
			return err
		},
		func(r *R) any { return uint64(*f(r)) },
	}
}

// floatCol is a float column, written in the shortest form that parses
// back to the same value.
func floatCol[R any](name string, f func(*R) *float64) Column[R] {
	return Column[R]{name, KindFloat,
		func(r *R) string { return strconv.FormatFloat(*f(r), 'g', -1, 64) },
		func(r *R, s string) (err error) {
			*f(r), err = strconv.ParseFloat(s, 64)
			return err
		},
		func(r *R) any { return *f(r) },
	}
}

// enumCol is an enum column, written as the names in n.
func enumCol[R any, E ~int](name string, n enumNames[E], f func(*R) *E) Column[R] {
	return Column[R]{name, KindString,
		func(r *R) string { return n.name(*f(r)) },
		func(r *R, s string) (err error) {
			*f(r), err = n.parse(s)
			return err
		},
		func(r *R) any { return n.name(*f(r)) },
	}
}

// stringCol is a string column, written verbatim.
func stringCol[R any](name string, f func(*R) *string) Column[R] {
	return Column[R]{name, KindString,
		func(r *R) string { return *f(r) },
		func(r *R, s string) error {
			*f(r) = s
			return nil
		},
		func(r *R) any { return *f(r) },
	}
}

// Table is one trace table's schema: its CSV file in a trace directory
// and its columns in file order. DirSink writes the header and rows from
// it, ReadDir checks the header and decodes rows with it, and borgquery
// serves its columns under their CSV names.
type Table[R any] struct {
	file    string
	columns []Column[R]
}

// Name returns the table's name: its CSV file name without ".csv".
func (t *Table[R]) Name() string { return strings.TrimSuffix(t.file, ".csv") }

// Columns returns the table's columns in file order.
func (t *Table[R]) Columns() []Column[R] { return t.columns }

// Column names that more than one table uses.
const (
	colTime       = "time"
	colCollection = "collection_id"
	colAllocSet   = "alloc_collection_id"
	colIndex      = "instance_index"
	colMachine    = "machine_id"
	colType       = "type"
	colPriority   = "priority"
	colTier       = "tier"
)

// The four tables' schemas.
var (
	CollectionEventsTable = Table[CollectionEvent]{collectionEventsFile, []Column[CollectionEvent]{
		intCol(colTime, func(r *CollectionEvent) *sim.Time { return &r.Time }),
		collectionCol(colCollection, func(r *CollectionEvent) *CollectionID { return &r.Collection }),
		enumCol(colType, eventTypeNames, func(r *CollectionEvent) *EventType { return &r.Type }),
		enumCol("collection_type", collectionTypeNames, func(r *CollectionEvent) *CollectionType { return &r.CollectionType }),
		intCol(colPriority, func(r *CollectionEvent) *int { return &r.Priority }),
		enumCol(colTier, tierNames, func(r *CollectionEvent) *Tier { return &r.Tier }),
		stringCol("user", func(r *CollectionEvent) *string { return &r.User }),
		collectionCol("parent_collection_id", func(r *CollectionEvent) *CollectionID { return &r.Parent }),
		collectionCol(colAllocSet, func(r *CollectionEvent) *CollectionID { return &r.AllocSet }),
		enumCol("scheduler", schedulerNames, func(r *CollectionEvent) *SchedulerKind { return &r.Scheduler }),
		enumCol("vertical_scaling", scalingNames, func(r *CollectionEvent) *VerticalScaling { return &r.Scaling }),
	}}
	InstanceEventsTable = Table[InstanceEvent]{instanceEventsFile, []Column[InstanceEvent]{
		intCol(colTime, func(r *InstanceEvent) *sim.Time { return &r.Time }),
		collectionCol(colCollection, func(r *InstanceEvent) *CollectionID { return &r.Key.Collection }),
		indexCol(colIndex, func(r *InstanceEvent) *int32 { return &r.Key.Index }),
		enumCol(colType, eventTypeNames, func(r *InstanceEvent) *EventType { return &r.Type }),
		indexCol(colMachine, func(r *InstanceEvent) *MachineID { return &r.Machine }),
		intCol(colPriority, func(r *InstanceEvent) *int { return &r.Priority }),
		enumCol(colTier, tierNames, func(r *InstanceEvent) *Tier { return &r.Tier }),
		floatCol("request_cpu", func(r *InstanceEvent) *float64 { return &r.Request.CPU }),
		floatCol("request_mem", func(r *InstanceEvent) *float64 { return &r.Request.Mem }),
		collectionCol(colAllocSet, func(r *InstanceEvent) *CollectionID { return &r.AllocInstance.Collection }),
		indexCol("alloc_instance_index", func(r *InstanceEvent) *int32 { return &r.AllocInstance.Index }),
	}}
	UsageTable = Table[UsageRecord]{usageFile, []Column[UsageRecord]{
		intCol("start_time", func(r *UsageRecord) *sim.Time { return &r.Start }),
		intCol("end_time", func(r *UsageRecord) *sim.Time { return &r.End }),
		collectionCol(colCollection, func(r *UsageRecord) *CollectionID { return &r.Key.Collection }),
		indexCol(colIndex, func(r *UsageRecord) *int32 { return &r.Key.Index }),
		indexCol(colMachine, func(r *UsageRecord) *MachineID { return &r.Machine }),
		enumCol(colTier, tierNames, func(r *UsageRecord) *Tier { return &r.Tier }),
		floatCol("avg_cpu", func(r *UsageRecord) *float64 { return &r.AvgUsage.CPU }),
		floatCol("avg_mem", func(r *UsageRecord) *float64 { return &r.AvgUsage.Mem }),
		floatCol("max_cpu", func(r *UsageRecord) *float64 { return &r.MaxUsage.CPU }),
		floatCol("max_mem", func(r *UsageRecord) *float64 { return &r.MaxUsage.Mem }),
		floatCol("limit_cpu", func(r *UsageRecord) *float64 { return &r.Limit.CPU }),
		floatCol("limit_mem", func(r *UsageRecord) *float64 { return &r.Limit.Mem }),
	}}
	MachineEventsTable = Table[MachineEvent]{machineEventsFile, []Column[MachineEvent]{
		intCol(colTime, func(r *MachineEvent) *sim.Time { return &r.Time }),
		indexCol(colMachine, func(r *MachineEvent) *MachineID { return &r.Machine }),
		enumCol(colType, machineEventNames, func(r *MachineEvent) *MachineEventType { return &r.Type }),
		floatCol("capacity_cpu", func(r *MachineEvent) *float64 { return &r.Capacity.CPU }),
		floatCol("capacity_mem", func(r *MachineEvent) *float64 { return &r.Capacity.Mem }),
		stringCol("platform", func(r *MachineEvent) *string { return &r.Platform }),
	}}
)

// tableWriter is one CSV table's open write path. rec is the record
// every row of the table is formatted into before it is written.
type tableWriter struct {
	file *os.File
	buf  *bufio.Writer
	csv  *csv.Writer
	rec  []string
}

// create creates the table's file in dir and writes its header.
func (t *Table[R]) create(dir string) (tableWriter, error) {
	f, err := os.Create(filepath.Join(dir, t.file))
	if err != nil {
		return tableWriter{}, fmt.Errorf("trace: create %s: %w", t.file, err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	w := tableWriter{file: f, buf: bw, csv: csv.NewWriter(bw), rec: make([]string, len(t.columns))}
	for i, c := range t.columns {
		w.rec[i] = c.name
	}
	if err := w.csv.Write(w.rec); err != nil {
		f.Close()
		return tableWriter{}, fmt.Errorf("trace: write %s header: %w", t.file, err)
	}
	return w, nil
}

// DirSink streams trace rows to the trace's on-disk CSV layout — one
// file per table plus meta.json — as the simulation emits them, so
// writing a trace needs no in-memory retention at all. Each
// table writes through its own 1 MB buffer. It is not safe for
// concurrent use: give each concurrently simulated cell its own shard
// directory.
//
// The Sink interface carries no error returns, so write errors are
// sticky: the first one is retained, subsequent rows are dropped, and
// Err/Close surface it.
type DirSink struct {
	dir    string
	tables [4]tableWriter // collection, instance, usage, machine
	err    error
	closed bool
}

// Table indexes into DirSink.tables.
const (
	tabCollection = iota
	tabInstance
	tabUsage
	tabMachine
)

// NewDirSink creates dir (if needed), writes meta.json and the four CSV
// headers, and returns a sink streaming rows into the table files.
func NewDirSink(dir string, meta Meta) (*DirSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: create dir: %w", err)
	}
	metaBytes, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("trace: marshal meta: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, metaFile), metaBytes, 0o644); err != nil {
		return nil, fmt.Errorf("trace: write meta: %w", err)
	}
	s := &DirSink{dir: dir}
	creates := [...]func(string) (tableWriter, error){
		CollectionEventsTable.create, InstanceEventsTable.create, UsageTable.create, MachineEventsTable.create,
	}
	for i, create := range creates {
		if s.tables[i], err = create(dir); err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	return s, nil
}

// writeRow formats r into table i's record and writes it.
func writeRow[R any](s *DirSink, i int, t *Table[R], r *R) {
	if s.err != nil || s.closed {
		return
	}
	w := &s.tables[i]
	for j, c := range t.columns {
		w.rec[j] = c.format(r)
	}
	if err := w.csv.Write(w.rec); err != nil {
		s.err = fmt.Errorf("trace: write %s: %w", s.dir, err)
	}
}

// CollectionEvent writes the row.
func (s *DirSink) CollectionEvent(ev CollectionEvent) {
	writeRow(s, tabCollection, &CollectionEventsTable, &ev)
}

// InstanceEvent writes the row.
func (s *DirSink) InstanceEvent(ev InstanceEvent) {
	writeRow(s, tabInstance, &InstanceEventsTable, &ev)
}

// UsageBatch writes the block in order.
func (s *DirSink) UsageBatch(recs []UsageRecord) {
	for i := range recs {
		writeRow(s, tabUsage, &UsageTable, &recs[i])
	}
}

// MachineEvent writes the row.
func (s *DirSink) MachineEvent(ev MachineEvent) { writeRow(s, tabMachine, &MachineEventsTable, &ev) }

// Flush pushes buffered rows to the operating system. It is idempotent
// and safe to call mid-run.
func (s *DirSink) Flush() {
	if s.closed {
		return
	}
	for i := range s.tables {
		t := &s.tables[i]
		t.csv.Flush()
		if err := t.csv.Error(); err != nil && s.err == nil {
			s.err = fmt.Errorf("trace: flush %s: %w", s.dir, err)
		}
		if err := t.buf.Flush(); err != nil && s.err == nil {
			s.err = fmt.Errorf("trace: flush %s: %w", s.dir, err)
		}
	}
}

// Close flushes and closes the table files, returning the first error
// encountered over the sink's lifetime. Further rows are dropped.
func (s *DirSink) Close() error {
	if s.closed {
		return s.err
	}
	s.Flush()
	s.closed = true
	s.closeFiles()
	return s.err
}

func (s *DirSink) closeFiles() {
	for i := range s.tables {
		if f := s.tables[i].file; f != nil {
			if err := f.Close(); err != nil && s.err == nil {
				s.err = fmt.Errorf("trace: close %s: %w", s.dir, err)
			}
			s.tables[i].file = nil
		}
	}
}

// ReadDir loads a trace previously written by a DirSink. Each table's
// header must name the table's columns in order.
func ReadDir(dir string) (*MemTrace, error) {
	metaBytes, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, fmt.Errorf("trace: read meta: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return nil, fmt.Errorf("trace: parse meta: %w", err)
	}
	t := NewMemTrace(meta)
	if err := CollectionEventsTable.Read(dir, t.CollectionEvent); err != nil {
		return nil, err
	}
	if err := InstanceEventsTable.Read(dir, t.InstanceEvent); err != nil {
		return nil, err
	}
	if err := UsageTable.Read(dir, t.UsageRecords.Append); err != nil {
		return nil, err
	}
	if err := MachineEventsTable.Read(dir, t.MachineEvent); err != nil {
		return nil, err
	}
	return t, nil
}

// Read decodes the table's file in the trace directory dir, after
// checking its header, and hands each row to add in file order. It opens
// no other file of the directory.
func (t *Table[R]) Read(dir string, add func(R)) error {
	path := filepath.Join(dir, t.file)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("trace: open %s: %w", path, err)
	}
	defer f.Close()
	// The reader holds every row to the header's field count, which
	// checkHeader pins to len(t.columns).
	r := csv.NewReader(bufio.NewReaderSize(f, 1<<20))
	r.ReuseRecord = true
	header, err := r.Read()
	if err == io.EOF {
		return fmt.Errorf("trace: read %s: no header row", path)
	}
	if err == nil {
		err = t.checkHeader(header)
	}
	if err != nil {
		return fmt.Errorf("trace: read %s: %w", path, err)
	}
	// Every column sets its whole field, so one row serves all records.
	var row R
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: read %s: %w", path, err)
		}
		for i, c := range t.columns {
			if err := c.parse(&row, rec[i]); err != nil {
				line, _ := r.FieldPos(i)
				return fmt.Errorf("trace: parse %s line %d: %s: %w", path, line, c.name, err)
			}
		}
		add(row)
	}
}

// checkHeader returns an error naming the first column where header
// differs from the table's columns.
func (t *Table[R]) checkHeader(header []string) error {
	for i, c := range t.columns {
		if i == len(header) {
			return fmt.Errorf("header lacks column %d %q", i+1, c.name)
		}
		if header[i] != c.name {
			return fmt.Errorf("header column %d is %q, want %q", i+1, header[i], c.name)
		}
	}
	if n := len(t.columns); len(header) > n {
		return fmt.Errorf("header has extra column %d %q", n+1, header[n])
	}
	return nil
}
