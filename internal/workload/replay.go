package workload

import (
	"cmp"
	"fmt"
	"math"
	"path/filepath"
	"slices"

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
	// jobs in it are the caller's. A job's Specs are the source's buffer
	// too, valid until the next call and not to be written: the caller
	// submits each job before calling again, and Submit does not retain
	// them.
	Generate(now sim.Time) []*scheduler.Job
}

// RecordingMeta is a recording's provenance, stored in its meta.json:
// enough to name the cell the workload was generated for and to
// re-anchor collection IDs on replay. The embedded trace.Meta is the
// generating cell's; its Duration and Seed are informational (a replay
// may run under a different horizon; the seed documents which world
// generated the jobs).
type RecordingMeta struct {
	trace.Meta
	// Arrival is the generating process, parsed; meta.json stores its
	// String form.
	Arrival ArrivalSpec
	// IDBase is the collection-ID base the recording was generated under;
	// job IDs are stored as offsets from it so a replay can rebase them
	// into any cell's ID space.
	IDBase trace.CollectionID
}

// RecordedJob is one collection as generated, with IDs stored as offsets
// from the recording's IDBase: IDOff, and the attributes' Parent and
// AllocSet (0 = none).
type RecordedJob struct {
	IDOff uint64
	trace.CollectionAttrs
	Outcome   scheduler.Outcome
	KillAfter sim.Time
	Tasks     []scheduler.TaskSpec
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
// mutates the returned jobs; the task specs are copied, since they are
// the wrapped source's buffer.
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
	base := r.rec.Meta.IDBase
	for _, j := range jobs {
		rj := RecordedJob{
			IDOff:           uint64(j.ID - base),
			CollectionAttrs: j.CollectionAttrs,
			Outcome:         j.Outcome,
			KillAfter:       j.KillAfter,
			Tasks:           slices.Clone(j.Specs),
		}
		if j.Parent != 0 {
			rj.Parent -= base
		}
		if j.AllocSet != 0 {
			rj.AllocSet -= base
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
		j.CollectionAttrs = rj.CollectionAttrs
		j.Outcome = rj.Outcome
		j.KillAfter = rj.KillAfter
		if rj.Parent != 0 {
			j.Parent += r.idBase
		}
		if rj.AllocSet != 0 {
			j.AllocSet += r.idBase
		}
		// The recording's own slice, capped so an append copies it.
		j.Specs = rj.Tasks[:len(rj.Tasks):len(rj.Tasks)]
		out = append(out, j)
	}
	r.out = out
	return out
}

// recordingVersion is the recording format version this build writes
// and reads; ReadRecordingDir rejects anything else, so a format change
// is a loud version bump rather than a silent misparse.
const recordingVersion = 2

// recordingMeta is a recording's meta.json: its RecordingMeta, with the
// arrival spec in its String form, under the format version.
type recordingMeta struct {
	Version int `json:"version"`
	trace.Meta
	Arrival string             `json:"arrival"`
	IDBase  trace.CollectionID `json:"id_base"`
}

// jobRow is one row of a recording's jobs.csv: a recorded collection,
// without its tasks, and the arrival it belongs to. Arrival numbers the
// arrivals from 0, so two arrivals at the same instant stay two, as the
// Replayer fires them.
type jobRow struct {
	Arrival int
	At      sim.Time
	RecordedJob
}

// taskRow is one row of tasks.csv: task Index of collection IDOff.
type taskRow struct {
	IDOff uint64
	Index int32
	scheduler.TaskSpec
}

// maxIDOff bounds a collection-ID offset to one cell's ID space (the
// engine spaces cells 2^32 IDs apart), and maxTime a recorded instant or
// duration: about 142 years, which the kernel can add to any time.
const (
	maxIDOff = 1<<32 - 1
	maxTime  = 1 << 52
)

// The recording's two tables. Their collection IDs are offsets from
// meta.json's id_base. Each column's parser holds its field to the
// range a cell can replay.
var (
	jobsTable = trace.NewTable("jobs.csv", slices.Concat(
		[]trace.Column[jobRow]{
			trace.IntCol("arrival", func(r *jobRow) *int { return &r.Arrival }),
			trace.IntCol("time", func(r *jobRow) *sim.Time { return &r.At }).In(0, maxTime),
			trace.CollectionCol("collection_id", func(r *jobRow) *uint64 { return &r.IDOff }).In(1, maxIDOff),
		},
		trace.AttrColumns(func(r *jobRow) *trace.CollectionAttrs { return &r.CollectionAttrs }),
		[]trace.Column[jobRow]{
			trace.EnumCol("outcome", scheduler.OutcomeFail+1, func(r *jobRow) *scheduler.Outcome { return &r.Outcome }),
			trace.IntCol("kill_after", func(r *jobRow) *sim.Time { return &r.KillAfter }).In(0, maxTime),
		})...)
	tasksTable = trace.NewTable("tasks.csv",
		trace.CollectionCol("collection_id", func(r *taskRow) *uint64 { return &r.IDOff }).In(1, maxIDOff),
		trace.IndexCol("instance_index", func(r *taskRow) *int32 { return &r.Index }),
		trace.FloatCol("request_cpu", func(r *taskRow) *float64 { return &r.Request.CPU }).In(0, math.MaxFloat64),
		trace.FloatCol("request_mem", func(r *taskRow) *float64 { return &r.Request.Mem }).In(0, math.MaxFloat64),
		trace.IntCol("duration", func(r *taskRow) *sim.Time { return &r.Duration }).In(0, maxTime),
		trace.IntCol("restarts", func(r *taskRow) *int { return &r.Restarts }).In(0, math.MaxInt32),
		trace.FloatCol("mean_cpu", func(r *taskRow) *float64 { return &r.MeanCPU }).In(0, math.MaxFloat64),
		trace.FloatCol("mean_mem", func(r *taskRow) *float64 { return &r.MeanMem }).In(0, math.MaxFloat64),
		trace.FloatCol("peak_factor", func(r *taskRow) *float64 { return &r.PeakFact }).In(1, math.MaxFloat64),
	)
)

// WriteDir writes the recording into dir, created if missing, as
// meta.json, jobs.csv and tasks.csv. Floats are written in their
// shortest exact form, so ReadRecordingDir reproduces the recording bit
// for bit; two recordings of the same workload are byte-identical
// directories. An arrival without jobs has no row and is not written.
func (rec *Recording) WriteDir(dir string) error {
	m := &rec.Meta
	if err := trace.WriteMeta(dir, recordingMeta{recordingVersion, m.Meta, m.Arrival.String(), m.IDBase}); err != nil {
		return err
	}
	jobs, err := jobsTable.Create(dir)
	if err != nil {
		return err
	}
	tasks, err := tasksTable.Create(dir)
	if err != nil {
		jobs.Close()
		return err
	}
	row := jobRow{Arrival: -1}
	for _, arr := range rec.Arrivals {
		if len(arr.Jobs) > 0 {
			row.Arrival++
		}
		row.At = arr.At
		for _, j := range arr.Jobs {
			row.RecordedJob = j
			jobs.Write(&row)
			for i, spec := range j.Tasks {
				tasks.Write(&taskRow{j.IDOff, int32(i), spec})
			}
		}
	}
	return cmp.Or(jobs.Close(), tasks.Close())
}

// ReadRecordingDir reads a recording that WriteDir wrote. A field
// outside the range a cell can replay fails in its column's parser,
// naming the file, line and column. It also rejects, naming the
// collection offset, arrival times that decrease, an offset used twice,
// a parent or alloc-set offset outside one cell's ID space, a task of
// no listed collection, task indices out of order, and a collection
// with no tasks.
func ReadRecordingDir(dir string) (*Recording, error) {
	var m recordingMeta
	if err := trace.ReadMeta(dir, &m); err != nil {
		return nil, err
	}
	metaPath := filepath.Join(dir, "meta.json")
	if m.Version != recordingVersion {
		return nil, fmt.Errorf("workload: %s: recording version %d, this build reads version %d",
			metaPath, m.Version, recordingVersion)
	}
	arrival, err := ParseArrival(m.Arrival)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", metaPath, err)
	}
	rec := &Recording{Meta: RecordingMeta{Meta: m.Meta, Arrival: arrival, IDBase: m.IDBase}}

	// rowErr is the first cross-row error; rows after it are skipped.
	var rowErr error
	fail := func(file string, off uint64, format string, args ...any) {
		rowErr = fmt.Errorf("workload: %s collection %d: %s", filepath.Join(dir, file), off, fmt.Sprintf(format, args...))
	}
	ord := make(map[uint64]int) // a collection's position in jobs.csv
	err = jobsTable.Read(dir, func(r jobRow) {
		if rowErr != nil {
			return
		}
		n := len(rec.Arrivals)
		var last *RecordedArrival
		if n > 0 {
			last = &rec.Arrivals[n-1]
		}
		_, dup := ord[r.IDOff]
		switch {
		case dup:
			fail("jobs.csv", r.IDOff, "offset used twice")
		case r.Parent > maxIDOff || r.AllocSet > maxIDOff:
			fail("jobs.csv", r.IDOff, "parent or alloc set offset beyond %d", maxIDOff)
		case r.Arrival == n && last != nil && r.At < last.At:
			fail("jobs.csv", r.IDOff, "arrival time %d runs back from %d", r.At, last.At)
		case r.Arrival == n:
			rec.Arrivals = append(rec.Arrivals, RecordedArrival{At: r.At})
			last = &rec.Arrivals[n]
		case last == nil || r.Arrival != n-1 || r.At != last.At:
			fail("jobs.csv", r.IDOff, "arrival %d at %d does not follow arrival %d", r.Arrival, r.At, n-1)
		}
		if rowErr == nil {
			ord[r.IDOff] = len(ord)
			last.Jobs = append(last.Jobs, r.RecordedJob)
		}
	})
	if err != nil || rowErr != nil {
		return nil, cmp.Or(err, rowErr)
	}

	// The jobs in file order, which tasks.csv follows.
	jobs := make([]*RecordedJob, 0, len(ord))
	for ai := range rec.Arrivals {
		for ji := range rec.Arrivals[ai].Jobs {
			jobs = append(jobs, &rec.Arrivals[ai].Jobs[ji])
		}
	}
	cur := 0
	err = tasksTable.Read(dir, func(r taskRow) {
		k, ok := ord[r.IDOff]
		switch {
		case rowErr != nil:
			return
		case !ok:
			fail("tasks.csv", r.IDOff, "task of a collection jobs.csv does not list")
		case k < cur:
			fail("tasks.csv", r.IDOff, "task out of job order")
		case int(r.Index) != len(jobs[k].Tasks):
			fail("tasks.csv", r.IDOff, "task index %d, want %d", r.Index, len(jobs[k].Tasks))
		default:
			cur = k
			jobs[k].Tasks = append(jobs[k].Tasks, r.TaskSpec)
		}
	})
	if err != nil || rowErr != nil {
		return nil, cmp.Or(err, rowErr)
	}
	for _, j := range jobs {
		if len(j.Tasks) == 0 {
			fail("tasks.csv", j.IDOff, "collection has no tasks")
			return nil, rowErr
		}
	}
	return rec, nil
}
