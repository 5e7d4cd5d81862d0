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
	"repro/internal/workload"
)

// simulatedTrace is a small retained trace with every table populated.
func simulatedTrace(t *testing.T) *trace.MemTrace {
	t.Helper()
	tr := core.Run(workload.Profile2019("a", 40), core.Options{Horizon: 2 * sim.Hour, Seed: 3}).Trace
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

// queries is every index-backed answer a MemTrace gives.
type queries struct {
	Collections   []trace.CollectionID
	EventsOf      map[trace.CollectionID][]trace.CollectionEvent
	Instances     []trace.InstanceKey
	InstEventsOf  map[trace.InstanceKey][]trace.InstanceEvent
	InstancesOfID map[trace.CollectionID][]trace.InstanceKey
	Infos         []trace.CollectionInfo
	Counts        string
}

// ask answers every query through the trace's index. An ID and a key
// that occur in no row are asked too.
func ask(tr *trace.MemTrace) queries {
	q := queries{
		Collections:   tr.Collections(),
		EventsOf:      map[trace.CollectionID][]trace.CollectionEvent{},
		Instances:     tr.Instances(),
		InstEventsOf:  map[trace.InstanceKey][]trace.InstanceEvent{},
		InstancesOfID: map[trace.CollectionID][]trace.InstanceKey{},
		Infos:         tr.CollectionInfos(),
		Counts:        tr.Counts(),
	}
	for _, id := range append(slices.Clone(q.Collections), 1<<62) {
		q.EventsOf[id] = tr.EventsOf(id)
		q.InstancesOfID[id] = tr.InstancesOfCollection(id)
	}
	for _, k := range append(slices.Clone(q.Instances), trace.InstanceKey{Collection: 1 << 62}) {
		q.InstEventsOf[k] = tr.InstanceEventsOf(k)
	}
	return q
}

// scan answers the same queries by brute force over the rows: a stable
// sort of each table by ID groups every collection's and instance's
// events in emission order.
func scan(tr *trace.MemTrace) queries {
	colls := slices.Collect(tr.CollectionEvents.All())
	insts := slices.Collect(tr.InstanceEvents.All())
	q := queries{
		EventsOf:      map[trace.CollectionID][]trace.CollectionEvent{1 << 62: {}},
		InstEventsOf:  map[trace.InstanceKey][]trace.InstanceEvent{{Collection: 1 << 62}: {}},
		InstancesOfID: map[trace.CollectionID][]trace.InstanceKey{1 << 62: nil},
		Infos:         []trace.CollectionInfo{},
	}
	byColl := slices.Clone(colls)
	slices.SortStableFunc(byColl, func(a, b trace.CollectionEvent) int { return cmp.Compare(a.Collection, b.Collection) })
	for _, ev := range byColl {
		if n := len(q.Collections); n == 0 || q.Collections[n-1] != ev.Collection {
			q.Collections = append(q.Collections, ev.Collection)
			q.InstancesOfID[ev.Collection] = nil
		}
		q.EventsOf[ev.Collection] = append(q.EventsOf[ev.Collection], ev)
	}
	byKey := slices.Clone(insts)
	slices.SortStableFunc(byKey, func(a, b trace.InstanceEvent) int {
		return cmp.Or(cmp.Compare(a.Key.Collection, b.Key.Collection), cmp.Compare(a.Key.Index, b.Key.Index))
	})
	for _, ev := range byKey {
		if n := len(q.Instances); n == 0 || q.Instances[n-1] != ev.Key {
			q.Instances = append(q.Instances, ev.Key)
			if _, ok := q.InstancesOfID[ev.Key.Collection]; ok {
				q.InstancesOfID[ev.Key.Collection] = append(q.InstancesOfID[ev.Key.Collection], ev.Key)
			}
		}
		q.InstEventsOf[ev.Key] = append(q.InstEventsOf[ev.Key], ev)
	}
	for _, id := range q.Collections {
		first := q.EventsOf[id][0]
		info := trace.CollectionInfo{ID: id, CollectionType: first.CollectionType, Priority: first.Priority,
			Tier: first.Tier, User: first.User, Parent: first.Parent, AllocSet: first.AllocSet,
			Scheduler: first.Scheduler, Scaling: first.Scaling, SubmitTime: first.Time, FinalEvent: trace.EventSubmit}
		for _, ev := range q.EventsOf[id] {
			if ev.Type.IsTermination() {
				info.FinalEvent, info.FinalTime = ev.Type, ev.Time
			}
		}
		q.Infos = append(q.Infos, info)
	}
	q.Counts = fmt.Sprintf("collections=%d instances=%d collEvents=%d instEvents=%d usage=%d machineEvents=%d",
		len(q.Collections), len(q.Instances), len(colls), len(insts), tr.UsageRecords.Len(), tr.MachineEvents.Len())
	return q
}

// matchScan fails unless every index query equals the brute-force scan.
func matchScan(t *testing.T, stage string, tr *trace.MemTrace) {
	t.Helper()
	got, want := ask(tr), scan(tr)
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := range gv.NumField() {
		g, w := gv.Field(i).Interface(), wv.Field(i).Interface()
		if reflect.ValueOf(w).Len() == 0 && reflect.ValueOf(g).Len() == 0 {
			continue // nil and empty are the same answer
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: %s from the index differs from a scan of the rows", stage, gv.Type().Field(i).Name)
		}
	}
}

// TestMemTraceIndexMatchesScan: on a simulated trace every index-backed
// query equals a brute-force scan of the rows — before any row, after
// half of each table, and after the rest is appended behind an earlier
// query, so the lazily built index must catch up. Validate's orphan
// check reads the same index and must see a late collection too.
func TestMemTraceIndexMatchesScan(t *testing.T) {
	full := simulatedTrace(t)
	tr := trace.NewMemTrace(full.Meta)
	matchScan(t, "empty", tr)
	feed(tr, full, 0, 0.5)
	matchScan(t, "first half", tr)
	feed(tr, full, 0.5, 1)
	matchScan(t, "after late rows", tr)

	opts := trace.DefaultValidateOptions()
	if got, want := trace.Validate(tr, opts), trace.Validate(full, opts); !reflect.DeepEqual(got, want) {
		t.Fatalf("Validate after incremental indexing:\n%v\nwant\n%v", got, want)
	}
	orphan := trace.CollectionID(1 << 61)
	tr.InstanceEvent(trace.InstanceEvent{Time: full.Meta.Duration, Key: trace.InstanceKey{Collection: orphan}, Type: trace.EventSubmit})
	if !hasViolation(trace.Validate(tr, opts), "orphan-instance") {
		t.Fatal("an instance of a collection with no events was not flagged")
	}
	tr.CollectionEvent(trace.CollectionEvent{Time: full.Meta.Duration, Collection: orphan, Type: trace.EventSubmit})
	if hasViolation(trace.Validate(tr, opts), "orphan-instance") {
		t.Fatal("a collection appended after the first query is missing from the index")
	}
	matchScan(t, "after the orphan's collection", tr)
}

func hasViolation(vs []trace.Violation, invariant string) bool {
	return slices.ContainsFunc(vs, func(v trace.Violation) bool { return v.Invariant == invariant })
}

// TestMemTraceConcurrentQueries: once appends stop, goroutines may query
// a trace whose index is not built yet; they race to build it and must
// all get the serial answers. CI runs this package under -race.
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
			if v := trace.Validate(tr, trace.DefaultValidateOptions()); len(v) != 0 {
				t.Errorf("concurrent Validate: %v", v[0])
			}
		}()
	}
	wg.Wait()
}
