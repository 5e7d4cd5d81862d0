package trace

import (
	"testing"

	"repro/internal/sim"
)

func TestTierFromPriority2019(t *testing.T) {
	cases := []struct {
		priority int
		want     Tier
	}{
		{0, TierFree}, {99, TierFree},
		{110, TierBestEffortBatch}, {115, TierBestEffortBatch},
		{116, TierMid}, {119, TierMid},
		{120, TierProduction}, {200, TierProduction}, {359, TierProduction},
		{360, TierProduction}, {450, TierProduction}, // monitoring folded into prod
	}
	for _, c := range cases {
		if got := TierFromPriority2019(c.priority); got != c.want {
			t.Errorf("TierFromPriority2019(%d) = %v, want %v", c.priority, got, c.want)
		}
	}
}

func TestStringers(t *testing.T) {
	if TierFree.String() != "free" || TierProduction.String() != "prod" {
		t.Fatal("tier strings")
	}
	if Era2011.String() != "2011" || Era2019.String() != "2019" {
		t.Fatal("era strings")
	}
	if CollectionJob.String() != "job" || CollectionAllocSet.String() != "alloc_set" {
		t.Fatal("collection type strings")
	}
	if ScalingFull.String() != "full" || ScalingNone.String() != "none" {
		t.Fatal("scaling strings")
	}
	if SchedulerBatch.String() != "batch" {
		t.Fatal("scheduler strings")
	}
	if MachineAdd.String() != "ADD" {
		t.Fatal("machine event strings")
	}
	if (InstanceKey{Collection: 3, Index: 7}).String() != "3/7" {
		t.Fatal("instance key string")
	}
}

func TestEventTypeRoundTrip(t *testing.T) {
	for e := EventType(0); e < NumEventTypes; e++ {
		got, err := eventTypeNames.parse(e.String())
		if err != nil || got != e {
			t.Fatalf("round trip %v: got %v err %v", e, got, err)
		}
	}
	if _, err := eventTypeNames.parse("NOPE"); err == nil {
		t.Fatal("unknown event type parsed")
	}
}

func TestIsTermination(t *testing.T) {
	term := map[EventType]bool{
		EventEvict: true, EventFail: true, EventFinish: true,
		EventKill: true, EventLost: true,
	}
	for e := EventType(0); e < NumEventTypes; e++ {
		if got := e.IsTermination(); got != term[e] {
			t.Errorf("%v.IsTermination() = %v", e, got)
		}
	}
}

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{CPU: 1, Mem: 2}
	b := Resources{CPU: 0.5, Mem: 0.5}
	if got := a.Add(b); got != (Resources{CPU: 1.5, Mem: 2.5}) {
		t.Fatalf("add %v", got)
	}
	if got := a.Sub(b); got != (Resources{CPU: 0.5, Mem: 1.5}) {
		t.Fatalf("sub %v", got)
	}
	if got := a.Scale(2); got != (Resources{CPU: 2, Mem: 4}) {
		t.Fatalf("scale %v", got)
	}
	if !a.NonNegative() || (Resources{CPU: -1}).NonNegative() {
		t.Fatal("non-negative")
	}
}

func newTestTrace() *MemTrace {
	tr := NewMemTrace(Meta{Era: Era2019, Cell: "a", Duration: sim.Day, Machines: 2, Seed: 1})
	tr.MachineEvent(MachineEvent{Time: 0, Machine: 1, Type: MachineAdd, Capacity: Resources{CPU: 1, Mem: 1}, Platform: "P0"})
	tr.MachineEvent(MachineEvent{Time: 0, Machine: 2, Type: MachineAdd, Capacity: Resources{CPU: 0.5, Mem: 0.5}, Platform: "P1"})

	// Collection 10: a normal job with 1 task that finishes.
	tr.CollectionEvent(CollectionEvent{Time: 100, Collection: 10, Type: EventSubmit, CollectionAttrs: CollectionAttrs{CollectionType: CollectionJob, Priority: 120, Tier: TierProduction, User: "u1", Scheduler: SchedulerDefault}})
	tr.InstanceEvent(InstanceEvent{Time: 100, Key: InstanceKey{10, 0}, Type: EventSubmit, Priority: 120, Tier: TierProduction, Request: Resources{CPU: 0.1, Mem: 0.1}})
	tr.InstanceEvent(InstanceEvent{Time: 150, Key: InstanceKey{10, 0}, Type: EventSchedule, Machine: 1, Priority: 120, Tier: TierProduction, Request: Resources{CPU: 0.1, Mem: 0.1}})
	tr.UsageBatch([]UsageRecord{{Start: 0, End: sim.Time(300 * sim.Second), Key: InstanceKey{10, 0}, Machine: 1, Tier: TierProduction,
		AvgUsage: Resources{CPU: 0.05, Mem: 0.08}, MaxUsage: Resources{CPU: 0.09, Mem: 0.09}, Limit: Resources{CPU: 0.1, Mem: 0.1}}})
	tr.InstanceEvent(InstanceEvent{Time: sim.Time(time600()), Key: InstanceKey{10, 0}, Type: EventFinish, Machine: 1, Priority: 120, Tier: TierProduction, Request: Resources{CPU: 0.1, Mem: 0.1}})
	tr.CollectionEvent(CollectionEvent{Time: sim.Time(time600()), Collection: 10, Type: EventFinish, CollectionAttrs: CollectionAttrs{CollectionType: CollectionJob, Priority: 120, Tier: TierProduction, User: "u1"}})

	// Collection 11: a child job killed when its parent (10) finished.
	tr.CollectionEvent(CollectionEvent{Time: 200, Collection: 11, Type: EventSubmit, CollectionAttrs: CollectionAttrs{CollectionType: CollectionJob, Priority: 110, Tier: TierBestEffortBatch, User: "u1", Parent: 10, Scheduler: SchedulerBatch}})
	tr.CollectionEvent(CollectionEvent{Time: sim.Time(time600()) + 10, Collection: 11, Type: EventKill, CollectionAttrs: CollectionAttrs{CollectionType: CollectionJob, Priority: 110, Tier: TierBestEffortBatch, User: "u1", Parent: 10}})
	return tr
}

func time600() int64 { return int64(600 * sim.Second) }

func TestCollectionInfos(t *testing.T) {
	tr := newTestTrace()
	infos := tr.CollectionInfos()
	if len(infos) != 2 {
		t.Fatalf("infos %v", infos)
	}
	if infos[0].ID != 10 || infos[0].FinalEvent != EventFinish || infos[0].Tier != TierProduction {
		t.Fatalf("info[0] %+v", infos[0])
	}
	if infos[1].Parent != 10 || infos[1].FinalEvent != EventKill || infos[1].Scheduler != SchedulerBatch {
		t.Fatalf("info[1] %+v", infos[1])
	}
}

func TestValidateCleanTrace(t *testing.T) {
	tr := newTestTrace()
	if v := validate(tr); len(v) != 0 {
		t.Fatalf("violations on clean trace: %v", v)
	}
}

func TestValidateCatchesTerminationBeforeSubmit(t *testing.T) {
	tr := NewMemTrace(Meta{})
	tr.CollectionEvent(CollectionEvent{Time: 5, Collection: 1, Type: EventFinish, CollectionAttrs: CollectionAttrs{CollectionType: CollectionJob}})
	v := validate(tr)
	if len(v) == 0 || v[0].Invariant != "submit-before-termination" {
		t.Fatalf("violations %v", v)
	}
	if v[0].String() == "" {
		t.Fatal("violation string")
	}
}

func TestValidateCatchesDoubleTermination(t *testing.T) {
	tr := NewMemTrace(Meta{})
	tr.CollectionEvent(CollectionEvent{Time: 1, Collection: 1, Type: EventSubmit})
	tr.CollectionEvent(CollectionEvent{Time: 2, Collection: 1, Type: EventFinish})
	tr.CollectionEvent(CollectionEvent{Time: 3, Collection: 1, Type: EventKill})
	found := false
	for _, v := range validate(tr) {
		if v.Invariant == "double-termination" {
			found = true
		}
	}
	if !found {
		t.Fatal("double termination not caught")
	}
}

func TestValidateAllowsResubmitAfterEvict(t *testing.T) {
	tr := NewMemTrace(Meta{})
	tr.MachineEvent(MachineEvent{Time: 0, Machine: 1, Type: MachineAdd, Capacity: Resources{CPU: 1, Mem: 1}})
	tr.CollectionEvent(CollectionEvent{Time: 1, Collection: 1, Type: EventSubmit})
	tr.InstanceEvent(InstanceEvent{Time: 1, Key: InstanceKey{1, 0}, Type: EventSubmit})
	tr.InstanceEvent(InstanceEvent{Time: 2, Key: InstanceKey{1, 0}, Type: EventSchedule, Machine: 1})
	tr.InstanceEvent(InstanceEvent{Time: 3, Key: InstanceKey{1, 0}, Type: EventEvict, Machine: 1})
	tr.InstanceEvent(InstanceEvent{Time: 4, Key: InstanceKey{1, 0}, Type: EventSubmit})
	tr.InstanceEvent(InstanceEvent{Time: 5, Key: InstanceKey{1, 0}, Type: EventSchedule, Machine: 1})
	tr.InstanceEvent(InstanceEvent{Time: 6, Key: InstanceKey{1, 0}, Type: EventFinish, Machine: 1})
	tr.CollectionEvent(CollectionEvent{Time: 6, Collection: 1, Type: EventFinish})
	if v := validate(tr); len(v) != 0 {
		t.Fatalf("evict-resubmit flagged: %v", v)
	}
}

func TestValidateCatchesUnknownMachine(t *testing.T) {
	tr := NewMemTrace(Meta{})
	tr.CollectionEvent(CollectionEvent{Time: 1, Collection: 1, Type: EventSubmit})
	tr.InstanceEvent(InstanceEvent{Time: 1, Key: InstanceKey{1, 0}, Type: EventSubmit})
	tr.InstanceEvent(InstanceEvent{Time: 2, Key: InstanceKey{1, 0}, Type: EventSchedule, Machine: 99})
	found := false
	for _, v := range validate(tr) {
		if v.Invariant == "schedule-machine" {
			found = true
		}
	}
	if !found {
		t.Fatal("unknown machine not caught")
	}
}

func TestValidateCatchesTimeDisorder(t *testing.T) {
	tr := NewMemTrace(Meta{})
	tr.CollectionEvent(CollectionEvent{Time: 10, Collection: 1, Type: EventSubmit})
	tr.CollectionEvent(CollectionEvent{Time: 5, Collection: 1, Type: EventFinish})
	found := false
	for _, v := range validate(tr) {
		if v.Invariant == "coll-time-order" {
			found = true
		}
	}
	if !found {
		t.Fatal("time disorder not caught")
	}
}

func TestValidateCatchesMemoryOverCapacity(t *testing.T) {
	tr := NewMemTrace(Meta{})
	tr.MachineEvent(MachineEvent{Time: 0, Machine: 1, Type: MachineAdd, Capacity: Resources{CPU: 1, Mem: 0.5}})
	tr.CollectionEvent(CollectionEvent{Time: 0, Collection: 1, Type: EventSubmit})
	for i := int32(0); i < 2; i++ {
		tr.InstanceEvent(InstanceEvent{Time: 0, Key: InstanceKey{1, i}, Type: EventSubmit})
		tr.InstanceEvent(InstanceEvent{Time: 1, Key: InstanceKey{1, i}, Type: EventSchedule, Machine: 1})
		tr.UsageBatch([]UsageRecord{{Start: 0, End: sim.SampleWindow, Key: InstanceKey{1, i}, Machine: 1,
			AvgUsage: Resources{CPU: 0.1, Mem: 0.4}, MaxUsage: Resources{CPU: 0.1, Mem: 0.4}}})
	}
	found := false
	for _, v := range validate(tr) {
		if v.Invariant == "machine-mem-capacity" {
			found = true
		}
	}
	if !found {
		t.Fatal("memory over capacity not caught")
	}
}

func TestValidateCatchesChildOutlivingParent(t *testing.T) {
	tr := NewMemTrace(Meta{})
	tr.CollectionEvent(CollectionEvent{Time: 0, Collection: 1, Type: EventSubmit})
	tr.CollectionEvent(CollectionEvent{Time: 10, Collection: 1, Type: EventFinish})
	tr.CollectionEvent(CollectionEvent{Time: 0, Collection: 2, Type: EventSubmit, CollectionAttrs: CollectionAttrs{Parent: 1}})
	// Child terminates way beyond the grace window.
	tr.CollectionEvent(CollectionEvent{Time: 10 + sim.Hour, Collection: 2, Type: EventFinish, CollectionAttrs: CollectionAttrs{Parent: 1}})
	found := false
	for _, v := range validate(tr) {
		if v.Invariant == "parent-kill" {
			found = true
		}
	}
	if !found {
		t.Fatal("child outliving parent not caught")
	}
}

func TestValidateMaxViolations(t *testing.T) {
	tr := NewMemTrace(Meta{})
	for i := CollectionID(1); i <= 2*maxViolations; i++ {
		tr.CollectionEvent(CollectionEvent{Time: 1, Collection: i, Type: EventFinish})
	}
	v := validate(tr)
	if len(v) != 100 {
		t.Fatalf("got %d violations, want capped at 100", len(v))
	}
}

func TestValidateUsageChecks(t *testing.T) {
	tr := NewMemTrace(Meta{})
	tr.MachineEvent(MachineEvent{Time: 0, Machine: 1, Type: MachineAdd, Capacity: Resources{CPU: 1, Mem: 1}})
	tr.UsageBatch([]UsageRecord{{Start: 10, End: 10, Key: InstanceKey{1, 0}, Machine: 1}})
	tr.UsageBatch([]UsageRecord{{Start: 0, End: 10, Key: InstanceKey{1, 0}, Machine: 1,
		AvgUsage: Resources{CPU: 0.5}, MaxUsage: Resources{CPU: 0.1}}})
	var names []string
	for _, v := range validate(tr) {
		names = append(names, v.Invariant)
	}
	hasWindow, hasAvgMax := false, false
	for _, n := range names {
		if n == "usage-window" {
			hasWindow = true
		}
		if n == "usage-avg-max" {
			hasAvgMax = true
		}
	}
	if !hasWindow || !hasAvgMax {
		t.Fatalf("violations %v", names)
	}
}

func TestMultiSinkFanout(t *testing.T) {
	a := NewMemTrace(Meta{})
	b := NewMemTrace(Meta{})
	ms := MultiSink{a, b}
	ms.CollectionEvent(CollectionEvent{Collection: 1, Type: EventSubmit})
	ms.InstanceEvent(InstanceEvent{Key: InstanceKey{1, 0}, Type: EventSubmit})
	ms.UsageBatch([]UsageRecord{{Start: 0, End: 1, Key: InstanceKey{1, 0}}})
	ms.MachineEvent(MachineEvent{Machine: 1, Type: MachineAdd})
	for _, tr := range []*MemTrace{a, b} {
		if tr.CollectionEvents.Len() != 1 || tr.InstanceEvents.Len() != 1 ||
			tr.UsageRecords.Len() != 1 || tr.MachineEvents.Len() != 1 {
			t.Fatalf("fanout missed rows: %s", tr.Counts())
		}
	}
}
