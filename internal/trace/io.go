package trace

import (
	"bufio"
	"cmp"
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
// to one field of R, which it formats for a TableWriter, parses for
// Table.Read and reads for queries.
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

// In returns the numeric column c with its parser also rejecting a
// value outside [lo, hi], and NaN.
func (c Column[R]) In(lo, hi float64) Column[R] {
	parse := c.parse
	c.parse = func(r *R, s string) error {
		if err := parse(r, s); err != nil {
			return err
		}
		var v float64
		switch x := c.value(r).(type) {
		case int64:
			v = float64(x)
		case uint64:
			v = float64(x)
		case float64:
			v = x
		}
		if !(v >= lo && v <= hi) {
			return fmt.Errorf("%s is outside [%g, %g]", s, lo, hi)
		}
		return nil
	}
	return c
}

// The column constructors, one per field type. Each takes the column's
// CSV name and f, which points at the column's field in a row. A table
// declared outside this package, such as a workload recording's, builds
// its columns with them too.

// IntCol is a signed integer column: a time or a priority.
func IntCol[R any, T ~int | ~int64](name string, f func(*R) *T) Column[R] {
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

// IndexCol is a machine ID or instance index column. Its values lie in
// [0, MaxInt32]; parse rejects the rest, which would wrap when narrowed
// to the field's int32.
func IndexCol[R any, T ~int32](name string, f func(*R) *T) Column[R] {
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

// CollectionCol is a collection ID column, or one of a collection-ID
// offset.
func CollectionCol[R any, T ~uint64](name string, f func(*R) *T) Column[R] {
	return Column[R]{name, KindInt,
		func(r *R) string { return strconv.FormatUint(uint64(*f(r)), 10) },
		func(r *R, s string) error {
			v, err := strconv.ParseUint(s, 10, 64)
			*f(r) = T(v)
			return err
		},
		func(r *R) any { return uint64(*f(r)) },
	}
}

// FloatCol is a float column, written in the shortest form that parses
// back to the same value.
func FloatCol[R any](name string, f func(*R) *float64) Column[R] {
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

// EnumCol is a column of an enum whose values run from 0 to n-1, written
// as the names their String methods give.
func EnumCol[R any, E interface {
	~int
	String() string
}](name string, n E, f func(*R) *E) Column[R] {
	names := make([]string, n)
	for v := range n {
		names[v] = v.String()
	}
	return enumCol(name, enumNames[E]{name, name, names}, f)
}

// StringCol is a string column, written verbatim.
func StringCol[R any](name string, f func(*R) *string) Column[R] {
	return Column[R]{name, KindString,
		func(r *R) string { return *f(r) },
		func(r *R, s string) error {
			*f(r) = s
			return nil
		},
		func(r *R) any { return *f(r) },
	}
}

// AttrColumns returns the columns of the CollectionAttrs that f points at
// in a row, in collection_events.csv's order. A workload recording's
// jobs.csv lists them too.
func AttrColumns[R any](f func(*R) *CollectionAttrs) []Column[R] {
	return []Column[R]{
		enumCol("collection_type", collectionTypeNames, func(r *R) *CollectionType { return &f(r).CollectionType }),
		IntCol(colPriority, func(r *R) *int { return &f(r).Priority }),
		enumCol(colTier, tierNames, func(r *R) *Tier { return &f(r).Tier }),
		StringCol("user", func(r *R) *string { return &f(r).User }),
		CollectionCol("parent_collection_id", func(r *R) *CollectionID { return &f(r).Parent }),
		CollectionCol(colAllocSet, func(r *R) *CollectionID { return &f(r).AllocSet }),
		enumCol("scheduler", schedulerNames, func(r *R) *SchedulerKind { return &f(r).Scheduler }),
		enumCol("vertical_scaling", scalingNames, func(r *R) *VerticalScaling { return &f(r).Scaling }),
	}
}

// Table is one table's schema: its CSV file in a directory and its
// columns in file order. DirSink and workload.Recording.WriteDir write
// the header and rows from it through a TableWriter, Read checks the
// header and decodes rows with it for ReadDir and
// workload.ReadRecordingDir, and borgquery serves its columns under
// their CSV names.
type Table[R any] struct {
	file    string
	columns []Column[R]
}

// NewTable returns the schema of a table stored in file, with columns
// in file order.
func NewTable[R any](file string, columns ...Column[R]) Table[R] {
	return Table[R]{file, columns}
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
	CollectionEventsTable = NewTable(collectionEventsFile, append([]Column[CollectionEvent]{
		IntCol(colTime, func(r *CollectionEvent) *sim.Time { return &r.Time }),
		CollectionCol(colCollection, func(r *CollectionEvent) *CollectionID { return &r.Collection }),
		enumCol(colType, eventTypeNames, func(r *CollectionEvent) *EventType { return &r.Type }),
	}, AttrColumns(func(r *CollectionEvent) *CollectionAttrs { return &r.CollectionAttrs })...)...)
	InstanceEventsTable = NewTable(instanceEventsFile,
		IntCol(colTime, func(r *InstanceEvent) *sim.Time { return &r.Time }),
		CollectionCol(colCollection, func(r *InstanceEvent) *CollectionID { return &r.Key.Collection }),
		IndexCol(colIndex, func(r *InstanceEvent) *int32 { return &r.Key.Index }),
		enumCol(colType, eventTypeNames, func(r *InstanceEvent) *EventType { return &r.Type }),
		IndexCol(colMachine, func(r *InstanceEvent) *MachineID { return &r.Machine }),
		IntCol(colPriority, func(r *InstanceEvent) *int { return &r.Priority }),
		enumCol(colTier, tierNames, func(r *InstanceEvent) *Tier { return &r.Tier }),
		FloatCol("request_cpu", func(r *InstanceEvent) *float64 { return &r.Request.CPU }),
		FloatCol("request_mem", func(r *InstanceEvent) *float64 { return &r.Request.Mem }),
		CollectionCol(colAllocSet, func(r *InstanceEvent) *CollectionID { return &r.AllocInstance.Collection }),
		IndexCol("alloc_instance_index", func(r *InstanceEvent) *int32 { return &r.AllocInstance.Index }),
	)
	UsageTable = NewTable(usageFile,
		IntCol("start_time", func(r *UsageRecord) *sim.Time { return &r.Start }),
		IntCol("end_time", func(r *UsageRecord) *sim.Time { return &r.End }),
		CollectionCol(colCollection, func(r *UsageRecord) *CollectionID { return &r.Key.Collection }),
		IndexCol(colIndex, func(r *UsageRecord) *int32 { return &r.Key.Index }),
		IndexCol(colMachine, func(r *UsageRecord) *MachineID { return &r.Machine }),
		enumCol(colTier, tierNames, func(r *UsageRecord) *Tier { return &r.Tier }),
		FloatCol("avg_cpu", func(r *UsageRecord) *float64 { return &r.AvgUsage.CPU }),
		FloatCol("avg_mem", func(r *UsageRecord) *float64 { return &r.AvgUsage.Mem }),
		FloatCol("max_cpu", func(r *UsageRecord) *float64 { return &r.MaxUsage.CPU }),
		FloatCol("max_mem", func(r *UsageRecord) *float64 { return &r.MaxUsage.Mem }),
		FloatCol("limit_cpu", func(r *UsageRecord) *float64 { return &r.Limit.CPU }),
		FloatCol("limit_mem", func(r *UsageRecord) *float64 { return &r.Limit.Mem }),
	)
	MachineEventsTable = NewTable(machineEventsFile,
		IntCol(colTime, func(r *MachineEvent) *sim.Time { return &r.Time }),
		IndexCol(colMachine, func(r *MachineEvent) *MachineID { return &r.Machine }),
		enumCol(colType, machineEventNames, func(r *MachineEvent) *MachineEventType { return &r.Type }),
		FloatCol("capacity_cpu", func(r *MachineEvent) *float64 { return &r.Capacity.CPU }),
		FloatCol("capacity_mem", func(r *MachineEvent) *float64 { return &r.Capacity.Mem }),
		StringCol("platform", func(r *MachineEvent) *string { return &r.Platform }),
	)
)

// TableWriter streams one table's rows to its CSV file through a 1 MB
// buffer. Write errors are sticky: the first is kept, later rows are
// dropped, and Close returns it.
type TableWriter[R any] struct {
	table *Table[R]
	path  string
	file  *os.File // nil once closed
	buf   *bufio.Writer
	csv   *csv.Writer
	rec   []string // the record every row is formatted into
	err   error
}

// Create creates the table's file in dir, writes its header and returns
// the writer of its rows.
func (t *Table[R]) Create(dir string) (*TableWriter[R], error) {
	path := filepath.Join(dir, t.file)
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: create %s: %w", path, err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	w := &TableWriter[R]{table: t, path: path, file: f, buf: bw, csv: csv.NewWriter(bw), rec: make([]string, len(t.columns))}
	for i, c := range t.columns {
		w.rec[i] = c.name
	}
	if err := w.csv.Write(w.rec); err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: write %s header: %w", path, err)
	}
	return w, nil
}

// Write formats r and writes it as the table's next row.
func (w *TableWriter[R]) Write(r *R) {
	if w.err != nil || w.file == nil {
		return
	}
	for i, c := range w.table.columns {
		w.rec[i] = c.format(r)
	}
	if err := w.csv.Write(w.rec); err != nil {
		w.err = fmt.Errorf("trace: write %s: %w", w.path, err)
	}
}

// flush pushes buffered rows to the operating system. It is idempotent
// and safe to call between rows.
func (w *TableWriter[R]) flush() {
	if w.file == nil {
		return
	}
	w.csv.Flush()
	if err := cmp.Or(w.csv.Error(), w.buf.Flush()); err != nil && w.err == nil {
		w.err = fmt.Errorf("trace: flush %s: %w", w.path, err)
	}
}

// Close flushes and closes the file. A nil writer (a table never
// created) closes as a no-op.
func (w *TableWriter[R]) Close() error {
	if w == nil {
		return nil
	}
	if w.file == nil {
		return w.err
	}
	w.flush()
	if err := w.file.Close(); err != nil && w.err == nil {
		w.err = fmt.Errorf("trace: close %s: %w", w.path, err)
	}
	w.file = nil
	return w.err
}

// DirSink streams trace rows to the trace's on-disk CSV layout — one
// file per table plus meta.json — as the simulation emits them, so
// writing a trace needs no in-memory retention at all. Each table
// writes through its own TableWriter. It is not safe for concurrent
// use: give each concurrently simulated cell its own shard directory.
//
// The Sink interface carries no error returns, so write errors are
// sticky: a table keeps its first one and drops its later rows, and
// Close returns the first table's error.
type DirSink struct {
	collections *TableWriter[CollectionEvent]
	instances   *TableWriter[InstanceEvent]
	usage       *TableWriter[UsageRecord]
	machines    *TableWriter[MachineEvent]
}

// NewDirSink creates dir (if needed), writes meta.json and the four CSV
// headers, and returns a sink streaming rows into the table files.
func NewDirSink(dir string, meta Meta) (*DirSink, error) {
	if err := WriteMeta(dir, meta); err != nil {
		return nil, err
	}
	s := &DirSink{}
	var err error
	s.collections, err = CollectionEventsTable.Create(dir)
	if err == nil {
		s.instances, err = InstanceEventsTable.Create(dir)
	}
	if err == nil {
		s.usage, err = UsageTable.Create(dir)
	}
	if err == nil {
		s.machines, err = MachineEventsTable.Create(dir)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// CollectionEvent writes the row.
func (s *DirSink) CollectionEvent(ev CollectionEvent) { s.collections.Write(&ev) }

// InstanceEvent writes the row.
func (s *DirSink) InstanceEvent(ev InstanceEvent) { s.instances.Write(&ev) }

// UsageBatch writes the block in order.
func (s *DirSink) UsageBatch(recs []UsageRecord) {
	for i := range recs {
		s.usage.Write(&recs[i])
	}
}

// MachineEvent writes the row.
func (s *DirSink) MachineEvent(ev MachineEvent) { s.machines.Write(&ev) }

// Flush pushes buffered rows to the operating system. It is idempotent
// and safe to call mid-run.
func (s *DirSink) Flush() {
	s.collections.flush()
	s.instances.flush()
	s.usage.flush()
	s.machines.flush()
}

// Close flushes and closes the table files and returns the first error
// a table met over the sink's lifetime. Further rows are dropped.
func (s *DirSink) Close() error {
	return cmp.Or(s.collections.Close(), s.instances.Close(), s.usage.Close(), s.machines.Close())
}

// WriteMeta creates dir if needed and writes meta, any value JSON
// encodes, to the directory's meta.json.
func WriteMeta(dir string, meta any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: create dir: %w", err)
	}
	b, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("trace: marshal meta: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, metaFile), b, 0o644); err != nil {
		return fmt.Errorf("trace: write meta: %w", err)
	}
	return nil
}

// ReadMeta decodes the meta.json of dir into meta.
func ReadMeta(dir string, meta any) error {
	b, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return fmt.Errorf("trace: read meta: %w", err)
	}
	if err := json.Unmarshal(b, meta); err != nil {
		return fmt.Errorf("trace: parse meta: %w", err)
	}
	return nil
}

// ReadDir loads a trace previously written by a DirSink. Each table's
// header must name the table's columns in order.
func ReadDir(dir string) (*MemTrace, error) {
	var meta Meta
	if err := ReadMeta(dir, &meta); err != nil {
		return nil, err
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

// Read decodes the table's file in the directory dir, after
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
