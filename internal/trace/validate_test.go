package trace_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/workload"
)

// invariants names every check the Validator runs.
var invariants = []string{
	"coll-time-order", "submit-before-termination", "double-termination", "parent-kill",
	"inst-time-order", "schedule-before-submit", "schedule-machine", "orphan-instance",
	"usage-window", "usage-negative", "usage-avg-max", "usage-order",
	"usage-machine", "machine-mem-capacity", "machine-cpu-capacity",
}

// faultSink passes a simulated cell's rows on to next and breaks every
// invariant at least once on the way: it drops a SUBMIT, duplicates
// terminations, moves a task to machine 9999, corrupts usage records,
// sends one record for a window already checked, and adds a few
// collections and an instance that break the rest.
type faultSink struct {
	next                      trace.Sink
	colls, insts, usage       int
	collDoubled, instDoubled  bool
	rescheduled, lateRecorded bool
}

// fake is the first ID of the collections the sink makes up.
const fake = trace.CollectionID(1 << 60)

func (s *faultSink) CollectionEvent(ev trace.CollectionEvent) {
	s.colls++
	if s.colls == 1 {
		t := ev.Time
		for _, f := range []trace.CollectionEvent{
			{Time: t, Collection: fake, Type: trace.EventFinish},                                                               // submit-before-termination
			{Time: t + 10, Collection: fake + 1, Type: trace.EventSubmit},                                                      // coll-time-order:
			{Time: t, Collection: fake + 1, Type: trace.EventFinish},                                                           // finishes before its submit
			{Time: t, Collection: fake + 2, Type: trace.EventSubmit},                                                           // parent-kill: the parent
			{Time: t, Collection: fake + 2, Type: trace.EventFinish},                                                           // finishes,
			{Time: t, Collection: fake + 3, Type: trace.EventSubmit, CollectionAttrs: trace.CollectionAttrs{Parent: fake + 2}}, // the child never does
		} {
			s.next.CollectionEvent(f)
		}
	}
	if s.colls == 3 && ev.Type == trace.EventSubmit {
		return // a dropped SUBMIT
	}
	s.next.CollectionEvent(ev)
	if ev.Type.IsTermination() && !s.collDoubled {
		s.collDoubled = true
		s.next.CollectionEvent(ev)
	}
}

func (s *faultSink) InstanceEvent(ev trace.InstanceEvent) {
	s.insts++
	if s.insts == 1 {
		// An instance of a collection with no events, scheduled on no
		// machine before its SUBMIT, which comes back in time.
		k := trace.InstanceKey{Collection: fake + 4}
		s.next.InstanceEvent(trace.InstanceEvent{Time: ev.Time + 10, Key: k, Type: trace.EventSchedule})
		s.next.InstanceEvent(trace.InstanceEvent{Time: ev.Time, Key: k, Type: trace.EventSubmit})
	}
	if ev.Type == trace.EventSchedule && !s.rescheduled {
		s.rescheduled = true
		ev.Machine = 9999
	}
	s.next.InstanceEvent(ev)
	if ev.Type.IsTermination() && !s.instDoubled {
		s.instDoubled = true
		s.next.InstanceEvent(ev)
	}
}

func (s *faultSink) UsageBatch(recs []trace.UsageRecord) {
	recs = slices.Clone(recs)
	for i := range recs {
		switch r := &recs[i]; s.usage {
		case 0:
			r.End = r.Start
		case 1:
			r.AvgUsage.CPU = -0.1
		case 2:
			r.AvgUsage.Mem = r.MaxUsage.Mem + 0.5
		case 3:
			r.Machine = 9999
		case 4:
			r.AvgUsage.Mem, r.MaxUsage.Mem = 100, 100
		case 5:
			r.AvgUsage.CPU, r.MaxUsage.CPU = 100, 100
		}
		s.usage++
	}
	if len(recs) > 0 && recs[0].Start >= 2*sim.SampleWindow && !s.lateRecorded {
		s.lateRecorded = true
		late := recs[0]
		late.Start, late.End = 0, sim.SampleWindow
		recs = append(recs, late)
	}
	s.next.UsageBatch(recs)
}

func (s *faultSink) MachineEvent(ev trace.MachineEvent) { s.next.MachineEvent(ev) }

// TestValidatorLiveMatchesReplay: a Validator attached to a running cell
// and Validate over the same rows retained report the same violations,
// as multisets, and the injected faults reach every invariant.
func TestValidatorLiveMatchesReplay(t *testing.T) {
	p := workload.Profile2019("a", 40)
	opts := core.Options{Horizon: 2 * sim.Hour, Seed: 3}
	live := trace.NewValidator()
	mt := trace.NewMemTrace(core.TraceMeta(p, opts))
	opts.ExtraSinks = []trace.Sink{&faultSink{next: trace.MultiSink{live, mt}}}
	core.Run(p, opts)

	got := live.Finish()
	want := tracetest.Validate(mt)
	str := func(vs []trace.Violation) []string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = v.String()
		}
		slices.Sort(out)
		return out
	}
	if g, w := str(got), str(want); !slices.Equal(g, w) {
		t.Fatalf("live validator found %d violations, replay %d:\nlive   %q\nreplay %q", len(g), len(w), g, w)
	}
	for _, name := range invariants {
		if !hasViolation(got, name) {
			t.Errorf("no %s violation among %d", name, len(got))
		}
	}
}

// TestValidatorStateBound: over a 24-hour cell the validator holds the
// usage sums of one window at most, one per machine, and none after
// Finish.
func TestValidatorStateBound(t *testing.T) {
	p := workload.Profile2019("b", 30)
	v := trace.NewValidator()
	core.Run(p, core.Options{Horizon: 24 * sim.Hour, Seed: 1, ExtraSinks: []trace.Sink{v}})
	if windows, sums := v.OpenWindows(); windows != 1 || sums == 0 || sums > p.Machines {
		t.Fatalf("%d usage sums open over %d windows, want one window of at most %d machines", sums, windows, p.Machines)
	}
	if vs := v.Finish(); len(vs) != 0 {
		t.Fatalf("%d violations, first %v", len(vs), vs[0])
	}
	if _, sums := v.OpenWindows(); sums != 0 {
		t.Fatalf("%d usage sums left open after Finish", sums)
	}
}

// TestValidateCatchesUsageOutOfOrder: a record for a window already
// checked is flagged, and is not added to a sum that was already dropped.
func TestValidateCatchesUsageOutOfOrder(t *testing.T) {
	tr := trace.NewMemTrace(trace.Meta{})
	tr.MachineEvent(trace.MachineEvent{Machine: 1, Type: trace.MachineAdd, Capacity: trace.Resources{CPU: 1, Mem: 1}})
	rec := func(start sim.Time, mem float64) trace.UsageRecord {
		return trace.UsageRecord{Start: start, End: start + sim.SampleWindow, Machine: 1,
			AvgUsage: trace.Resources{Mem: mem}, MaxUsage: trace.Resources{Mem: mem}}
	}
	tr.UsageBatch([]trace.UsageRecord{rec(0, 0.6), rec(sim.SampleWindow, 0.1), rec(0, 0.6)})
	vs := tracetest.Validate(tr)
	if len(vs) != 1 || vs[0].Invariant != "usage-order" {
		t.Fatalf("violations %v, want one usage-order", vs)
	}
}
