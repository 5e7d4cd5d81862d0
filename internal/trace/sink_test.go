package trace

import (
	"testing"

	"repro/internal/sim"
)

// emitMixed streams a deterministic mix of rows into s.
func emitMixed(s Sink, n int) {
	for i := 0; i < n; i++ {
		t := sim.Time(i) * sim.Second
		s.MachineEvent(MachineEvent{Time: t, Machine: MachineID(i%7 + 1), Type: MachineAdd})
		s.CollectionEvent(CollectionEvent{Time: t, Collection: CollectionID(i), Type: EventSubmit})
		s.InstanceEvent(InstanceEvent{Time: t, Key: InstanceKey{Collection: CollectionID(i)}, Type: EventSubmit})
		s.Usage(UsageRecord{Start: t, End: t + sim.Minute, Key: InstanceKey{Collection: CollectionID(i)}})
	}
}

func TestFanOutFlattensAndDropsNil(t *testing.T) {
	a, b := &CountingSink{}, &CountingSink{}
	s := FanOut(nil, MultiSink{a, nil, MultiSink{b}})
	emitMixed(s, 3)
	if a.Counts() != b.Counts() || a.Counts().Total() != 12 {
		t.Fatalf("counts a=%+v b=%+v", a.Counts(), b.Counts())
	}
	if ms, ok := s.(MultiSink); !ok || len(ms) != 2 {
		t.Fatalf("not flattened: %T %v", s, s)
	}
	if _, ok := FanOut().(NopSink); !ok {
		t.Fatal("empty fan-out not NopSink")
	}
	if single := FanOut(a); single != Sink(a) {
		t.Fatal("single fan-out should unwrap")
	}
}

func TestBufferedSinkPreservesPerTableOrderAndFlushes(t *testing.T) {
	direct := NewMemTrace(Meta{})
	buffered := NewMemTrace(Meta{})
	bs := NewBufferedSink(buffered, 16)
	emitMixed(direct, 100)
	emitMixed(bs, 100)
	if got := len(buffered.UsageRecords); got != 96 {
		t.Fatalf("pre-flush usage rows %d, want 96 (tail buffered)", got)
	}
	bs.Flush()
	bs.Flush() // idempotent
	if len(buffered.UsageRecords) != len(direct.UsageRecords) ||
		len(buffered.CollectionEvents) != len(direct.CollectionEvents) ||
		len(buffered.InstanceEvents) != len(direct.InstanceEvents) ||
		len(buffered.MachineEvents) != len(direct.MachineEvents) {
		t.Fatalf("row counts differ after flush: %s vs %s", buffered.Counts(), direct.Counts())
	}
	for i := range direct.UsageRecords {
		if buffered.UsageRecords[i] != direct.UsageRecords[i] {
			t.Fatalf("usage row %d reordered", i)
		}
	}
	for i := range direct.CollectionEvents {
		if buffered.CollectionEvents[i] != direct.CollectionEvents[i] {
			t.Fatalf("collection row %d reordered", i)
		}
	}
}

func TestFlushRecursesThroughFanOut(t *testing.T) {
	inner := NewMemTrace(Meta{})
	bs := NewBufferedSink(inner, 1000)
	s := FanOut(&CountingSink{}, bs)
	emitMixed(s, 5)
	if len(inner.UsageRecords) != 0 {
		t.Fatal("buffer flushed early")
	}
	Flush(s)
	if len(inner.UsageRecords) != 5 {
		t.Fatalf("flush through fan-out left %d rows", len(inner.UsageRecords))
	}
}

func TestRowCountsAddTotal(t *testing.T) {
	a := RowCounts{Collections: 1, Instances: 2, Usage: 3, Machines: 4}
	b := a.Add(a)
	if b.Total() != 20 {
		t.Fatalf("total %d", b.Total())
	}
}
