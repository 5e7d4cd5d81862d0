package trace_test

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/workload"
)

// simulatedTrace is a small retained trace with every table populated.
func simulatedTrace(t *testing.T) *trace.MemTrace {
	t.Helper()
	p := workload.Profile2019("a", 40)
	opts := core.Options{Horizon: 2 * sim.Hour, Seed: 3}
	tr := trace.NewMemTrace(core.TraceMeta(p, opts))
	opts.ExtraSinks = []trace.Sink{tr}
	core.Run(p, opts)
	if tr.CollectionEvents.Len() == 0 || tr.InstanceEvents.Len() == 0 || tr.UsageRecords.Len() == 0 {
		t.Fatalf("degenerate trace: %s", tr.Counts())
	}
	return tr
}

// feed appends rows [from, to) of every src table to dst.
func feed(dst, src *trace.MemTrace, from, to float64) {
	span := func(n int) (int, int) { return int(from * float64(n)), int(to * float64(n)) }
	lo, hi := span(src.MachineEvents.Len())
	for i := lo; i < hi; i++ {
		dst.MachineEvent(src.MachineEvents.At(i))
	}
	lo, hi = span(src.CollectionEvents.Len())
	for i := lo; i < hi; i++ {
		dst.CollectionEvent(src.CollectionEvents.At(i))
	}
	lo, hi = span(src.InstanceEvents.Len())
	for i := lo; i < hi; i++ {
		dst.InstanceEvent(src.InstanceEvents.At(i))
	}
	lo, hi = span(src.UsageRecords.Len())
	var batch []trace.UsageRecord
	for i := lo; i < hi; i++ {
		batch = append(batch, src.UsageRecords.At(i))
	}
	dst.UsageBatch(batch)
}

// queries is every answer a MemTrace's queries give.
type queries struct {
	Infos  []trace.CollectionInfo
	Counts string
}

func ask(tr *trace.MemTrace) queries {
	return queries{Infos: tr.CollectionInfos(), Counts: tr.Counts()}
}

// scan answers the same queries by brute force over the rows: a stable
// sort of each table by ID groups every collection's and instance's
// events in emission order.
func scan(tr *trace.MemTrace) queries {
	byColl := slices.Collect(tr.CollectionEvents.All())
	slices.SortStableFunc(byColl, func(a, b trace.CollectionEvent) int { return cmp.Compare(a.Collection, b.Collection) })
	q := queries{Infos: []trace.CollectionInfo{}}
	for _, ev := range byColl {
		if n := len(q.Infos); n == 0 || q.Infos[n-1].ID != ev.Collection {
			q.Infos = append(q.Infos, trace.CollectionInfo{ID: ev.Collection, CollectionType: ev.CollectionType,
				Priority: ev.Priority, Tier: ev.Tier, User: ev.User, Parent: ev.Parent, AllocSet: ev.AllocSet,
				Scheduler: ev.Scheduler, Scaling: ev.Scaling, SubmitTime: ev.Time, FinalEvent: trace.EventSubmit})
		}
		if ev.Type.IsTermination() {
			q.Infos[len(q.Infos)-1].FinalEvent, q.Infos[len(q.Infos)-1].FinalTime = ev.Type, ev.Time
		}
	}
	keys := 0
	byKey := slices.Collect(tr.InstanceEvents.All())
	slices.SortStableFunc(byKey, func(a, b trace.InstanceEvent) int {
		return cmp.Or(cmp.Compare(a.Key.Collection, b.Key.Collection), cmp.Compare(a.Key.Index, b.Key.Index))
	})
	for i, ev := range byKey {
		if i == 0 || byKey[i-1].Key != ev.Key {
			keys++
		}
	}
	q.Counts = fmt.Sprintf("collections=%d instances=%d collEvents=%d instEvents=%d usage=%d machineEvents=%d",
		len(q.Infos), keys, len(byColl), len(byKey), tr.UsageRecords.Len(), tr.MachineEvents.Len())
	return q
}

// matchScan fails unless every query equals the brute-force scan.
func matchScan(t *testing.T, stage string, tr *trace.MemTrace) {
	t.Helper()
	if got, want := ask(tr), scan(tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: queries differ from a scan of the rows:\n%+v\nwant\n%+v", stage, got.Counts, want.Counts)
	}
}

// TestMemTraceQueriesMatchScan: on a simulated trace every query equals
// a brute-force scan of the rows — before any row, after half of each
// table, and after the rest is appended behind an earlier query. Validate
// of the incrementally fed trace equals Validate of the original, and
// sees a collection appended after an earlier query.
func TestMemTraceQueriesMatchScan(t *testing.T) {
	full := simulatedTrace(t)
	tr := trace.NewMemTrace(full.Meta)
	matchScan(t, "empty", tr)
	feed(tr, full, 0, 0.5)
	matchScan(t, "first half", tr)
	feed(tr, full, 0.5, 1)
	matchScan(t, "after late rows", tr)

	if got, want := tracetest.Validate(tr), tracetest.Validate(full); !reflect.DeepEqual(got, want) {
		t.Fatalf("Validate after incremental appends:\n%v\nwant\n%v", got, want)
	}
	orphan := trace.CollectionID(1 << 61)
	tr.InstanceEvent(trace.InstanceEvent{Time: full.Meta.Duration, Key: trace.InstanceKey{Collection: orphan}, Type: trace.EventSubmit})
	if !hasViolation(tracetest.Validate(tr), "orphan-instance") {
		t.Fatal("an instance of a collection with no events was not flagged")
	}
	tr.CollectionEvent(trace.CollectionEvent{Time: full.Meta.Duration, Collection: orphan, Type: trace.EventSubmit})
	if hasViolation(tracetest.Validate(tr), "orphan-instance") {
		t.Fatal("a collection appended after an earlier query was not seen")
	}
	matchScan(t, "after the orphan's collection", tr)
}

func hasViolation(vs []trace.Violation, invariant string) bool {
	return slices.ContainsFunc(vs, func(v trace.Violation) bool { return v.Invariant == invariant })
}

// TestMemTraceConcurrentQueries: once appends stop, any number of
// goroutines may query, replay and validate a trace at once, and all get
// the serial answers. CI runs this package under -race.
func TestMemTraceConcurrentQueries(t *testing.T) {
	full := simulatedTrace(t)
	want := ask(full)
	tr := trace.NewMemTrace(full.Meta)
	feed(tr, full, 0, 1)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := ask(tr); !reflect.DeepEqual(got, want) {
				t.Error("a concurrent reader got different answers")
			}
			if v := tracetest.Validate(tr); len(v) != 0 {
				t.Errorf("concurrent Validate: %v", v[0])
			}
		}()
	}
	wg.Wait()
}
