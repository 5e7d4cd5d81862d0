package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trace"
)

// JobSource is the generator-facing seam core.Run schedules arrivals
// from: the live Generator and the Replayer both satisfy it, so a cell
// cannot tell a synthesized workload from a recorded one.
type JobSource interface {
	// NextInterArrival returns the time from now to the next submission;
	// a result placing it at or beyond the horizon ends the stream.
	NextInterArrival(now sim.Time) sim.Time
	// Generate returns the collections submitted at time now. The slice
	// is the source's reusable buffer, valid until the next call; the
	// jobs in it are the caller's.
	Generate(now sim.Time) []*scheduler.Job
}

// recordingVersion is the workload-trace format version this build
// writes; ReadRecording rejects anything else, so a format change is a
// loud version bump rather than a silent misparse.
const recordingVersion = 1

// recordingMagic is the first line of every recording file.
const recordingMagic = "borgworkload"

// RecordingMeta is a recording's provenance header: enough to name the
// cell the workload was generated for and to re-anchor collection IDs on
// replay. Horizon and Seed are informational (a replay may run under a
// different horizon; the seed documents which world generated the jobs).
type RecordingMeta struct {
	Cell     string
	Era      trace.Era
	Machines int
	Horizon  sim.Time
	Seed     uint64
	// Arrival is the generating process's spec string.
	Arrival string
	// IDBase is the collection-ID base the recording was generated under;
	// job IDs are stored as offsets from it so a replay can rebase them
	// into any cell's ID space.
	IDBase trace.CollectionID
}

// RecordedTask is one task body, exactly the fields the generator sets.
type RecordedTask struct {
	CPU, Mem float64
	Duration sim.Time
	Restarts int
	MeanCPU  float64
	MeanMem  float64
	PeakFact float64
}

// RecordedJob is one collection as generated, with IDs stored as offsets
// from the recording's IDBase (0 = none for Parent/AllocSet).
type RecordedJob struct {
	IDOff     uint64
	Type      trace.CollectionType
	Priority  int
	Tier      trace.Tier
	User      string
	ParentOff uint64
	AllocOff  uint64
	Scheduler trace.SchedulerKind
	Scaling   trace.VerticalScaling
	Outcome   scheduler.Outcome
	KillAfter sim.Time
	Tasks     []RecordedTask
}

// RecordedArrival is one arrival instant and the collections submitted
// at it (a job, possibly preceded by an alloc set).
type RecordedArrival struct {
	At   sim.Time
	Jobs []RecordedJob
}

// Recording is a captured workload: a versioned, immutable arrival/job
// stream. One Recording may back any number of concurrent Replayers.
type Recording struct {
	Meta     RecordingMeta
	Arrivals []RecordedArrival
}

// Recorder wraps a JobSource and captures everything it emits, in
// emission order, into a Recording — the jobs still flow to the caller
// untouched. Snapshots are taken inside Generate, before the scheduler
// mutates the returned jobs.
type Recorder struct {
	src JobSource
	rec *Recording
}

// NewRecorder wraps src; meta documents the generating run.
func NewRecorder(src JobSource, meta RecordingMeta) *Recorder {
	return &Recorder{src: src, rec: &Recording{Meta: meta}}
}

// Recording returns the captured workload (valid once the run is done).
func (r *Recorder) Recording() *Recording { return r.rec }

// NextInterArrival delegates to the wrapped source.
func (r *Recorder) NextInterArrival(now sim.Time) sim.Time {
	return r.src.NextInterArrival(now)
}

// Generate delegates and snapshots the result.
func (r *Recorder) Generate(now sim.Time) []*scheduler.Job {
	jobs := r.src.Generate(now)
	arr := RecordedArrival{At: now, Jobs: make([]RecordedJob, 0, len(jobs))}
	base := uint64(r.rec.Meta.IDBase)
	for _, j := range jobs {
		rj := RecordedJob{
			IDOff:     uint64(j.ID) - base,
			Type:      j.Type,
			Priority:  j.Priority,
			Tier:      j.Tier,
			User:      j.User,
			Scheduler: j.Scheduler,
			Scaling:   j.Scaling,
			Outcome:   j.Outcome,
			KillAfter: j.KillAfter,
			Tasks:     make([]RecordedTask, 0, len(j.Tasks)),
		}
		if j.Parent != 0 {
			rj.ParentOff = uint64(j.Parent) - base
		}
		if j.AllocSet != 0 {
			rj.AllocOff = uint64(j.AllocSet) - base
		}
		for _, t := range j.Tasks {
			rj.Tasks = append(rj.Tasks, RecordedTask{
				CPU: t.Request.CPU, Mem: t.Request.Mem,
				Duration: t.Duration, Restarts: t.Restarts,
				MeanCPU: t.MeanCPU, MeanMem: t.MeanMem, PeakFact: t.PeakFact,
			})
		}
		arr.Jobs = append(arr.Jobs, rj)
	}
	r.rec.Arrivals = append(r.rec.Arrivals, arr)
	return jobs
}

// replayNever is the inter-arrival a drained Replayer reports: far
// enough past any horizon that the caller's "next >= horizon" check
// always ends the stream.
const replayNever = sim.Time(math.MaxInt64 / 4)

// Replayer replays a Recording through the JobSource seam: the same
// arrival instants, the same job bodies, byte-identically — under any
// placement policy, parameter overlay or engine parallelism. Collection
// IDs are rebased onto idBase so the replayed cell keeps a disjoint ID
// space. A Replayer is single-run state (it holds a cursor); build a
// fresh one per cell run, sharing the immutable Recording.
type Replayer struct {
	rec    *Recording
	idBase trace.CollectionID
	cursor int
	out    []*scheduler.Job // Generate's reused result buffer
}

// NewReplayer builds a replayer over rec, rebasing collection IDs onto
// idBase (pass the run's engine ID base, as NewGeneratorArrival's startID-1).
func NewReplayer(rec *Recording, idBase trace.CollectionID) *Replayer {
	return &Replayer{rec: rec, idBase: idBase}
}

// NextInterArrival returns the delta to the next recorded arrival.
func (r *Replayer) NextInterArrival(now sim.Time) sim.Time {
	if r.cursor >= len(r.rec.Arrivals) {
		return replayNever
	}
	d := r.rec.Arrivals[r.cursor].At - now
	if d < 0 {
		d = 0
	}
	return d
}

// Generate rebuilds the collections recorded at the current arrival.
func (r *Replayer) Generate(now sim.Time) []*scheduler.Job {
	if r.cursor >= len(r.rec.Arrivals) {
		return nil
	}
	arr := &r.rec.Arrivals[r.cursor]
	r.cursor++
	out := r.out[:0]
	for i := range arr.Jobs {
		rj := &arr.Jobs[i]
		j := scheduler.NewJob(r.idBase + trace.CollectionID(rj.IDOff))
		j.Type = rj.Type
		j.Priority = rj.Priority
		j.Tier = rj.Tier
		j.User = rj.User
		j.Scheduler = rj.Scheduler
		j.Scaling = rj.Scaling
		j.Outcome = rj.Outcome
		j.KillAfter = rj.KillAfter
		if rj.ParentOff != 0 {
			j.Parent = r.idBase + trace.CollectionID(rj.ParentOff)
		}
		if rj.AllocOff != 0 {
			j.AllocSet = r.idBase + trace.CollectionID(rj.AllocOff)
		}
		tasks := make([]scheduler.Task, len(rj.Tasks))
		for i, rt := range rj.Tasks {
			tasks[i] = scheduler.Task{
				Request:  trace.Resources{CPU: rt.CPU, Mem: rt.Mem},
				Duration: rt.Duration,
				Restarts: rt.Restarts,
				MeanCPU:  rt.MeanCPU,
				MeanMem:  rt.MeanMem,
				PeakFact: rt.PeakFact,
			}
		}
		j.SetTasks(tasks)
		out = append(out, j)
	}
	r.out = out
	return out
}

// ftoaExact renders a float so ParseFloat round-trips it bit-exactly —
// replay fidelity depends on it.
func ftoaExact(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo serializes the recording in the versioned text format:
//
//	borgworkload/1
//	cell <name> / era / machines / horizon / seed / arrival / idbase
//	arrivals <count>
//	A <time-µs> <njobs>
//	J <idoff> <type> <prio> <tier> <user> <parentoff> <allocoff> <sched> <scaling> <outcome> <killafter> <ntasks>
//	T <cpu> <mem> <duration-µs> <restarts> <meancpu> <meanmem> <peakfact>
//
// Floats are written with strconv.FormatFloat(…, 'g', -1, 64) and user
// names with strconv.Quote (a space escaped as \x20), so decoding
// reproduces the recording bit-exactly. The format is line-oriented and
// diff-friendly: two recordings of the same workload are byte-identical
// files.
func (rec *Recording) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(format string, args ...any) error {
		k, err := fmt.Fprintf(bw, format, args...)
		n += int64(k)
		return err
	}
	m := &rec.Meta
	if err := write("%s/%d\n", recordingMagic, recordingVersion); err != nil {
		return n, err
	}
	if err := write("cell %s\nera %d\nmachines %d\nhorizon %d\nseed %d\narrival %s\nidbase %d\narrivals %d\n",
		quoteIfNeeded(m.Cell), int(m.Era), m.Machines, int64(m.Horizon), m.Seed,
		quoteIfNeeded(m.Arrival), uint64(m.IDBase), len(rec.Arrivals)); err != nil {
		return n, err
	}
	for ai := range rec.Arrivals {
		arr := &rec.Arrivals[ai]
		if err := write("A %d %d\n", int64(arr.At), len(arr.Jobs)); err != nil {
			return n, err
		}
		for ji := range arr.Jobs {
			j := &arr.Jobs[ji]
			if err := write("J %d %d %d %d %s %d %d %d %d %d %d %d\n",
				j.IDOff, int(j.Type), j.Priority, int(j.Tier), quoteField(j.User),
				j.ParentOff, j.AllocOff, int(j.Scheduler), int(j.Scaling),
				int(j.Outcome), int64(j.KillAfter), len(j.Tasks)); err != nil {
				return n, err
			}
			for _, t := range j.Tasks {
				if err := write("T %s %s %d %d %s %s %s\n",
					ftoaExact(t.CPU), ftoaExact(t.Mem), int64(t.Duration), t.Restarts,
					ftoaExact(t.MeanCPU), ftoaExact(t.MeanMem), ftoaExact(t.PeakFact)); err != nil {
					return n, err
				}
			}
		}
	}
	return n, bw.Flush()
}

// quoteIfNeeded keeps a header value on its line and readable back:
// plain tokens stay bare for readability, and anything else (empty, or
// holding a space or a character strconv.Quote escapes) is quoted.
func quoteIfNeeded(s string) string {
	q := strconv.Quote(s)
	if s == "" || strings.Contains(s, " ") || q[1:len(q)-1] != s {
		return q
	}
	return s
}

// quoteField quotes a value that shares its line with other
// space-separated fields; a space inside it is escaped too.
func quoteField(s string) string {
	return strings.ReplaceAll(strconv.Quote(s), " ", `\x20`)
}

func unquoteHeader(s string) (string, error) {
	if strings.HasPrefix(s, "\"") {
		return strconv.Unquote(s)
	}
	return s, nil
}

// maxPresize caps a slice ReadRecording reserves from a count the file
// claims, so a corrupt count fails as truncation rather than as an
// allocation sized by the count.
const maxPresize = 1 << 12

// maxIDOff bounds a collection-ID offset to one cell's ID space (the
// engine spaces cells 2^32 IDs apart), and maxTime a recorded instant or
// duration: about 142 years, which the kernel can add to any time.
const (
	maxIDOff = 1 << 32
	maxTime  = sim.Time(1) << 52
)

// ReadRecording parses a recording written by WriteTo. It validates the
// magic, the version, and every count, so a truncated or corrupted file
// fails loudly instead of replaying a partial workload. It also rejects,
// naming the line, what a cell cannot replay: an arrival spec that does
// not parse, arrival times that decrease, a collection offset used twice,
// and a field outside its range (a collection with no tasks, an unknown
// tier or other enum value, a time beyond maxTime, a non-finite or
// negative resource, a peak factor below 1).
func ReadRecording(r io.Reader) (*Recording, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	next := func() (string, error) {
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line != "" {
				return line, nil
			}
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", fmt.Errorf("workload: recording truncated at line %d", lineNo)
	}
	errAt := func(format string, args ...any) error {
		return fmt.Errorf("workload: recording line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}

	head, err := next()
	if err != nil {
		return nil, err
	}
	magic, ver, ok := strings.Cut(head, "/")
	if !ok || magic != recordingMagic {
		return nil, errAt("not a workload recording (want %q header)", recordingMagic)
	}
	if v, err := strconv.Atoi(ver); err != nil || v != recordingVersion {
		return nil, errAt("unsupported recording version %q (this build reads version %d)", ver, recordingVersion)
	}

	rec := &Recording{}
	var arrivals int
	for _, key := range []string{"cell", "era", "machines", "horizon", "seed", "arrival", "idbase", "arrivals"} {
		line, err := next()
		if err != nil {
			return nil, err
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok || k != key {
			return nil, errAt("want header %q, got %q", key, line)
		}
		var p fieldParser
		m := &rec.Meta
		switch key {
		case "cell":
			m.Cell, p.err = unquoteHeader(v)
		case "era":
			m.Era = trace.Era(p.int(key, v, math.MinInt64, math.MaxInt64))
		case "machines":
			m.Machines = int(p.int(key, v, math.MinInt64, math.MaxInt64))
		case "horizon":
			m.Horizon = sim.Time(p.int(key, v, math.MinInt64, math.MaxInt64))
		case "seed":
			m.Seed, p.err = strconv.ParseUint(v, 10, 64)
		case "arrival":
			if m.Arrival, p.err = unquoteHeader(v); p.err == nil {
				_, p.err = ParseArrival(m.Arrival)
			}
		case "idbase":
			var b uint64
			b, p.err = strconv.ParseUint(v, 10, 64)
			m.IDBase = trace.CollectionID(b)
		case "arrivals":
			arrivals = int(p.int(key, v, 0, math.MaxInt64))
		}
		if p.err != nil {
			return nil, errAt("bad %s %q: %v", key, v, p.err)
		}
	}

	rec.Arrivals = make([]RecordedArrival, 0, min(arrivals, maxPresize))
	ids := make(map[uint64]bool)
	last := sim.Time(0)
	for ai := 0; ai < arrivals; ai++ {
		line, err := next()
		if err != nil {
			return nil, err
		}
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != "A" {
			return nil, errAt("want arrival record, got %q", line)
		}
		var p fieldParser
		last = sim.Time(p.int("arrival time", f[1], int64(last), int64(maxTime)))
		njobs := int(p.int("job count", f[2], 0, math.MaxInt64))
		if p.err != nil {
			return nil, errAt("bad arrival record %q: %v", line, p.err)
		}
		arr := RecordedArrival{At: last, Jobs: make([]RecordedJob, 0, min(njobs, maxPresize))}
		for ji := 0; ji < njobs; ji++ {
			line, err := next()
			if err != nil {
				return nil, err
			}
			j, ntasks, err := parseJobLine(line)
			if err != nil {
				return nil, errAt("%v", err)
			}
			if ids[j.IDOff] {
				return nil, errAt("collection offset %d used twice", j.IDOff)
			}
			ids[j.IDOff] = true
			for ti := 0; ti < ntasks; ti++ {
				line, err := next()
				if err != nil {
					return nil, err
				}
				t, err := parseTaskLine(line)
				if err != nil {
					return nil, errAt("%v", err)
				}
				j.Tasks = append(j.Tasks, t)
			}
			arr.Jobs = append(arr.Jobs, j)
		}
		rec.Arrivals = append(rec.Arrivals, arr)
	}
	return rec, nil
}

func parseJobLine(line string) (RecordedJob, int, error) {
	var j RecordedJob
	f := strings.Fields(line)
	if len(f) != 13 || f[0] != "J" {
		return j, 0, fmt.Errorf("want job record, got %q", line)
	}
	var p fieldParser
	j.IDOff = uint64(p.int("collection offset", f[1], 1, maxIDOff-1))
	j.Type = trace.CollectionType(p.int("collection type", f[2], 0, int64(trace.CollectionAllocSet)))
	j.Priority = int(p.int("priority", f[3], math.MinInt64, math.MaxInt64))
	j.Tier = trace.Tier(p.int("tier", f[4], 0, int64(trace.NumTiers-1)))
	user, err := strconv.Unquote(f[5])
	p.keep(err)
	j.User = user
	j.ParentOff = uint64(p.int("parent offset", f[6], 0, maxIDOff-1))
	j.AllocOff = uint64(p.int("alloc set offset", f[7], 0, maxIDOff-1))
	j.Scheduler = trace.SchedulerKind(p.int("scheduler", f[8], 0, int64(trace.SchedulerBatch)))
	j.Scaling = trace.VerticalScaling(p.int("vertical-scaling mode", f[9], 0, int64(trace.ScalingFull)))
	j.Outcome = scheduler.Outcome(p.int("outcome", f[10], 0, int64(scheduler.OutcomeFail)))
	j.KillAfter = sim.Time(p.int("kill delay", f[11], 0, int64(maxTime)))
	ntasks := int(p.int("task count", f[12], 1, math.MaxInt32))
	if p.err != nil {
		return j, 0, fmt.Errorf("bad job record %q: %v", line, p.err)
	}
	j.Tasks = make([]RecordedTask, 0, min(ntasks, maxPresize))
	return j, ntasks, nil
}

func parseTaskLine(line string) (RecordedTask, error) {
	var t RecordedTask
	f := strings.Fields(line)
	if len(f) != 8 || f[0] != "T" {
		return t, fmt.Errorf("want task record, got %q", line)
	}
	var p fieldParser
	t.CPU = p.float("CPU request", f[1], 0)
	t.Mem = p.float("memory request", f[2], 0)
	t.Duration = sim.Time(p.int("duration", f[3], 0, int64(maxTime)))
	t.Restarts = int(p.int("restart count", f[4], 0, math.MaxInt32))
	t.MeanCPU = p.float("mean CPU", f[5], 0)
	t.MeanMem = p.float("mean memory", f[6], 0)
	t.PeakFact = p.float("peak factor", f[7], 1)
	if p.err != nil {
		return t, fmt.Errorf("bad task record %q: %v", line, p.err)
	}
	return t, nil
}

// fieldParser parses a record's fields, each within the range a cell can
// replay, and keeps the first error.
type fieldParser struct{ err error }

func (p *fieldParser) keep(err error) {
	if p.err == nil {
		p.err = err
	}
}

// int parses an integer field in [lo, hi].
func (p *fieldParser) int(name, s string, lo, hi int64) int64 {
	v, err := strconv.ParseInt(s, 10, 64)
	if err == nil && (v < lo || v > hi) {
		err = fmt.Errorf("%s %d outside [%d, %d]", name, v, lo, hi)
	}
	p.keep(err)
	return v
}

// float parses a finite float field of at least lo.
func (p *fieldParser) float(name, s string, lo float64) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && !(v >= lo && v <= math.MaxFloat64) {
		err = fmt.Errorf("%s %v is not a finite number of at least %v", name, v, lo)
	}
	p.keep(err)
	return v
}
