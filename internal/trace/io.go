package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

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

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
func itoa(i int64) string   { return strconv.FormatInt(i, 10) }
func utoa(u uint64) string  { return strconv.FormatUint(u, 10) }
func ts(t sim.Time) string  { return itoa(int64(t)) }

// Per-row CSV encoders of DirSink.

func collectionEventHeader() []string {
	return []string{
		"time", "collection_id", "type", "collection_type", "priority",
		"tier", "user", "parent_collection_id", "alloc_collection_id",
		"scheduler", "vertical_scaling",
	}
}

func collectionEventRow(ev CollectionEvent) []string {
	return []string{
		ts(ev.Time), utoa(uint64(ev.Collection)), ev.Type.String(),
		ev.CollectionType.String(), itoa(int64(ev.Priority)),
		ev.Tier.String(), ev.User, utoa(uint64(ev.Parent)),
		utoa(uint64(ev.AllocSet)), ev.Scheduler.String(),
		ev.Scaling.String(),
	}
}

func instanceEventHeader() []string {
	return []string{
		"time", "collection_id", "instance_index", "type", "machine_id",
		"priority", "tier", "request_cpu", "request_mem",
		"alloc_collection_id", "alloc_instance_index",
	}
}

func instanceEventRow(ev InstanceEvent) []string {
	return []string{
		ts(ev.Time), utoa(uint64(ev.Key.Collection)),
		itoa(int64(ev.Key.Index)), ev.Type.String(),
		itoa(int64(ev.Machine)), itoa(int64(ev.Priority)),
		ev.Tier.String(), ftoa(ev.Request.CPU), ftoa(ev.Request.Mem),
		utoa(uint64(ev.AllocInstance.Collection)),
		itoa(int64(ev.AllocInstance.Index)),
	}
}

func usageHeader() []string {
	return []string{
		"start_time", "end_time", "collection_id", "instance_index",
		"machine_id", "tier", "avg_cpu", "avg_mem", "max_cpu", "max_mem",
		"limit_cpu", "limit_mem",
	}
}

func usageRow(rec UsageRecord) []string {
	return []string{
		ts(rec.Start), ts(rec.End), utoa(uint64(rec.Key.Collection)),
		itoa(int64(rec.Key.Index)), itoa(int64(rec.Machine)),
		rec.Tier.String(), ftoa(rec.AvgUsage.CPU), ftoa(rec.AvgUsage.Mem),
		ftoa(rec.MaxUsage.CPU), ftoa(rec.MaxUsage.Mem),
		ftoa(rec.Limit.CPU), ftoa(rec.Limit.Mem),
	}
}

func machineEventHeader() []string {
	return []string{
		"time", "machine_id", "type", "capacity_cpu", "capacity_mem", "platform",
	}
}

func machineEventRow(ev MachineEvent) []string {
	return []string{
		ts(ev.Time), itoa(int64(ev.Machine)), ev.Type.String(),
		ftoa(ev.Capacity.CPU), ftoa(ev.Capacity.Mem), ev.Platform,
	}
}

// tableWriter is one CSV table's open write path.
type tableWriter struct {
	file *os.File
	buf  *bufio.Writer
	csv  *csv.Writer
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
	specs := []struct {
		name   string
		header []string
	}{
		{collectionEventsFile, collectionEventHeader()},
		{instanceEventsFile, instanceEventHeader()},
		{usageFile, usageHeader()},
		{machineEventsFile, machineEventHeader()},
	}
	for i, spec := range specs {
		f, err := os.Create(filepath.Join(dir, spec.name))
		if err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("trace: create %s: %w", spec.name, err)
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		cw := csv.NewWriter(bw)
		s.tables[i] = tableWriter{file: f, buf: bw, csv: cw}
		if err := cw.Write(spec.header); err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("trace: write %s header: %w", spec.name, err)
		}
	}
	return s, nil
}

func (s *DirSink) write(table int, row []string) {
	if s.err != nil || s.closed {
		return
	}
	if err := s.tables[table].csv.Write(row); err != nil {
		s.err = fmt.Errorf("trace: write %s: %w", s.dir, err)
	}
}

// CollectionEvent writes the row.
func (s *DirSink) CollectionEvent(ev CollectionEvent) { s.write(tabCollection, collectionEventRow(ev)) }

// InstanceEvent writes the row.
func (s *DirSink) InstanceEvent(ev InstanceEvent) { s.write(tabInstance, instanceEventRow(ev)) }

// UsageBatch writes the block in order through the codec path, checking
// the sticky error once instead of per row.
func (s *DirSink) UsageBatch(recs []UsageRecord) {
	if s.err != nil || s.closed {
		return
	}
	for i := range recs {
		s.write(tabUsage, usageRow(recs[i]))
	}
}

// MachineEvent writes the row.
func (s *DirSink) MachineEvent(ev MachineEvent) { s.write(tabMachine, machineEventRow(ev)) }

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

// ReadDir loads a trace previously written by a DirSink.
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
	if err := readCSVFile(filepath.Join(dir, collectionEventsFile), t.readCollectionEvent); err != nil {
		return nil, err
	}
	if err := readCSVFile(filepath.Join(dir, instanceEventsFile), t.readInstanceEvent); err != nil {
		return nil, err
	}
	if err := readCSVFile(filepath.Join(dir, usageFile), t.readUsage); err != nil {
		return nil, err
	}
	if err := readCSVFile(filepath.Join(dir, machineEventsFile), t.readMachineEvent); err != nil {
		return nil, err
	}
	return t, nil
}

func readCSVFile(path string, row func(rec []string) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("trace: open %s: %w", path, err)
	}
	defer f.Close()
	r := csv.NewReader(bufio.NewReaderSize(f, 1<<20))
	r.ReuseRecord = true
	first := true
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: read %s: %w", path, err)
		}
		if first {
			first = false // skip header
			continue
		}
		if err := row(rec); err != nil {
			line, _ := r.FieldPos(0)
			return fmt.Errorf("trace: parse %s line %d: %w", path, line, err)
		}
	}
}

// fieldParser accumulates the first parse error across a row, so row
// readers stay linear instead of nesting a dozen error checks.
type fieldParser struct{ err error }

func (p *fieldParser) int(s string) int64 {
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		p.err = err
	}
	return v
}

// index parses an instance index, which must lie in [0, MaxInt32]: a
// wider value would wrap when narrowed to the key's int32.
func (p *fieldParser) index(s string) int32 {
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(s, 10, 32)
	if err == nil && v < 0 {
		err = fmt.Errorf("negative instance index %d", v)
	}
	if err != nil {
		p.err = err
	}
	return int32(v)
}

func (p *fieldParser) uint(s string) uint64 {
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		p.err = err
	}
	return v
}

func (p *fieldParser) float(s string) float64 {
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		p.err = err
	}
	return v
}

// enum parses an enum field through its name table n, keeping p's
// first error.
func enum[E ~int](p *fieldParser, n enumNames[E], s string) E {
	if p.err != nil {
		return 0
	}
	v, err := n.parse(s)
	if err != nil {
		p.err = err
	}
	return v
}

func (t *MemTrace) readCollectionEvent(rec []string) error {
	if len(rec) != 11 {
		return fmt.Errorf("collection event row has %d fields", len(rec))
	}
	var p fieldParser
	ev := CollectionEvent{
		Time:           sim.Time(p.int(rec[0])),
		Collection:     CollectionID(p.uint(rec[1])),
		Type:           enum(&p, eventTypeNames, rec[2]),
		CollectionType: enum(&p, collectionTypeNames, rec[3]),
		Priority:       int(p.int(rec[4])),
		Tier:           enum(&p, tierNames, rec[5]),
		User:           rec[6],
		Parent:         CollectionID(p.uint(rec[7])),
		AllocSet:       CollectionID(p.uint(rec[8])),
		Scheduler:      enum(&p, schedulerNames, rec[9]),
		Scaling:        enum(&p, scalingNames, rec[10]),
	}
	if p.err != nil {
		return p.err
	}
	t.CollectionEvent(ev)
	return nil
}

func (t *MemTrace) readInstanceEvent(rec []string) error {
	if len(rec) != 11 {
		return fmt.Errorf("instance event row has %d fields", len(rec))
	}
	var p fieldParser
	ev := InstanceEvent{
		Time: sim.Time(p.int(rec[0])),
		Key: InstanceKey{
			Collection: CollectionID(p.uint(rec[1])),
			Index:      p.index(rec[2]),
		},
		Type:     enum(&p, eventTypeNames, rec[3]),
		Machine:  MachineID(p.int(rec[4])),
		Priority: int(p.int(rec[5])),
		Tier:     enum(&p, tierNames, rec[6]),
		Request:  Resources{CPU: p.float(rec[7]), Mem: p.float(rec[8])},
		AllocInstance: InstanceKey{
			Collection: CollectionID(p.uint(rec[9])),
			Index:      p.index(rec[10]),
		},
	}
	if p.err != nil {
		return p.err
	}
	t.InstanceEvent(ev)
	return nil
}

func (t *MemTrace) readUsage(rec []string) error {
	if len(rec) != 12 {
		return fmt.Errorf("usage row has %d fields", len(rec))
	}
	var p fieldParser
	u := UsageRecord{
		Start: sim.Time(p.int(rec[0])),
		End:   sim.Time(p.int(rec[1])),
		Key: InstanceKey{
			Collection: CollectionID(p.uint(rec[2])),
			Index:      p.index(rec[3]),
		},
		Machine:  MachineID(p.int(rec[4])),
		Tier:     enum(&p, tierNames, rec[5]),
		AvgUsage: Resources{CPU: p.float(rec[6]), Mem: p.float(rec[7])},
		MaxUsage: Resources{CPU: p.float(rec[8]), Mem: p.float(rec[9])},
		Limit:    Resources{CPU: p.float(rec[10]), Mem: p.float(rec[11])},
	}
	if p.err != nil {
		return p.err
	}
	t.UsageRecords.Append(u)
	return nil
}

func (t *MemTrace) readMachineEvent(rec []string) error {
	if len(rec) != 6 {
		return fmt.Errorf("machine event row has %d fields", len(rec))
	}
	var p fieldParser
	ev := MachineEvent{
		Time:     sim.Time(p.int(rec[0])),
		Machine:  MachineID(p.int(rec[1])),
		Type:     enum(&p, machineEventNames, rec[2]),
		Capacity: Resources{CPU: p.float(rec[3]), Mem: p.float(rec[4])},
		Platform: rec[5],
	}
	if p.err != nil {
		return p.err
	}
	t.MachineEvent(ev)
	return nil
}
