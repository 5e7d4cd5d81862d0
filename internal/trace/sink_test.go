package trace

import (
	"reflect"
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
		s.UsageBatch([]UsageRecord{{Start: t, End: t + sim.Minute, Key: InstanceKey{Collection: CollectionID(i)}}})
	}
}

// usageBlock builds n distinguishable records starting at ordinal base.
func usageBlock(base, n int) []UsageRecord {
	recs := make([]UsageRecord, n)
	for i := range recs {
		t := sim.Time(base+i) * sim.Minute
		recs[i] = UsageRecord{
			Start: t, End: t + sim.Minute,
			Key:      InstanceKey{Collection: CollectionID(base + i), Index: int32(i)},
			Machine:  MachineID(base + i),
			AvgUsage: Resources{CPU: float64(base + i)},
		}
	}
	return recs
}

// TestMultiSinkUsageBatchFansOutInOrder drives blocks from one reused
// buffer through a fan-out: every child must see every record in
// delivery order, and none may alias the emitter's backing array.
func TestMultiSinkUsageBatchFansOutInOrder(t *testing.T) {
	a, b := NewMemTrace(Meta{}), NewMemTrace(Meta{})
	counter := &CountingSink{}
	s := MultiSink{a, counter, b}

	var want []UsageRecord
	buf := make([]UsageRecord, 0, 8)
	for _, n := range []int{3, 1, 5, 0} {
		block := append(buf[:0], usageBlock(len(want), n)...)
		want = append(want, block...)
		s.UsageBatch(block)
		// The emitter owns the array again once UsageBatch returns.
		for i := range block {
			block[i] = UsageRecord{Machine: -1}
		}
	}
	for name, got := range map[string]*MemTrace{"first": a, "last": b} {
		if !reflect.DeepEqual(collect(&got.UsageRecords), want) {
			t.Fatalf("%s child lost, reordered or aliased rows", name)
		}
	}
	if got := counter.Counts().Usage; got != int64(len(want)) {
		t.Fatalf("counter saw %d rows, want %d", got, len(want))
	}
}

// TestRowCountsAddTotal: Total adds up the four tables' counts.
func TestRowCountsAddTotal(t *testing.T) {
	a := RowCounts{Collections: 1, Instances: 2, Usage: 3, Machines: 4}
	if a.Total() != 10 {
		t.Fatalf("total %d", a.Total())
	}
}
