package cluster

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/trace"
)

func res(c, m float64) trace.Resources { return trace.Resources{CPU: c, Mem: m} }

func TestAddMachineAndCapacity(t *testing.T) {
	c := NewCell("test")
	m1 := c.AddMachine(res(1, 1), "P0")
	m2 := c.AddMachine(res(0.5, 0.25), "P1")
	if m1.ID == m2.ID {
		t.Fatal("duplicate machine IDs")
	}
	if c.NumMachines() != 2 {
		t.Fatalf("machines %d", c.NumMachines())
	}
	if got := c.Capacity(); got != res(1.5, 1.25) {
		t.Fatalf("capacity %v", got)
	}
	if c.Machine(m1.ID) != m1 {
		t.Fatal("lookup")
	}
	if c.Machine(999) != nil {
		t.Fatal("unknown machine should be nil")
	}
	if len(c.MachineIDs()) != 2 {
		t.Fatal("ids")
	}
}

func TestPlaceRemoveAccounting(t *testing.T) {
	c := NewCell("test")
	m := c.AddMachine(res(1, 1), "P0")
	r := &Resident{Key: trace.InstanceKey{Collection: 1, Index: 0}, Limit: res(0.3, 0.2), Priority: 120, Tier: trace.TierProduction}
	c.Place(m.ID, r)
	if m.Allocated() != res(0.3, 0.2) {
		t.Fatalf("allocated %v", m.Allocated())
	}
	if m.NumResidents() != 1 {
		t.Fatal("residents")
	}
	if m.Resident(r.Key) != r {
		t.Fatal("resident lookup")
	}
	got := c.Remove(m.ID, r.Key)
	if got != r {
		t.Fatal("removed resident mismatch")
	}
	if m.Allocated() != res(0, 0) || m.NumResidents() != 0 {
		t.Fatalf("post-remove state %v %d", m.Allocated(), m.NumResidents())
	}
}

func TestPlacePanics(t *testing.T) {
	c := NewCell("test")
	m := c.AddMachine(res(1, 1), "P0")
	r := &Resident{Key: trace.InstanceKey{Collection: 1}}
	c.Place(m.ID, r)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate place", func() { c.Place(m.ID, r) })
	mustPanic("unknown machine", func() { c.Place(999, &Resident{}) })
	mustPanic("remove missing", func() { c.Remove(m.ID, trace.InstanceKey{Collection: 9}) })
	mustPanic("remove unknown machine", func() { c.Remove(999, r.Key) })
	mustPanic("remove unknown cell machine", func() { c.RemoveMachine(999) })
	mustPanic("update missing", func() { c.UpdateLimit(m.ID, trace.InstanceKey{Collection: 9}, res(0, 0)) })
}

func TestResidentsOrderedByPriority(t *testing.T) {
	c := NewCell("test")
	m := c.AddMachine(res(1, 1), "P0")
	c.Place(m.ID, &Resident{Key: trace.InstanceKey{Collection: 1}, Priority: 200})
	c.Place(m.ID, &Resident{Key: trace.InstanceKey{Collection: 2}, Priority: 0})
	c.Place(m.ID, &Resident{Key: trace.InstanceKey{Collection: 3}, Priority: 110})
	rs := m.Residents()
	if rs[0].Priority != 0 || rs[1].Priority != 110 || rs[2].Priority != 200 {
		t.Fatalf("victim order %v", rs)
	}
}

func TestFitsLimitOvercommit(t *testing.T) {
	c := NewCell("test")
	m := c.AddMachine(res(1, 1), "P0")
	noOC := OvercommitPolicy{CPUFactor: 1, MemFactor: 1}
	oc := OvercommitPolicy{CPUFactor: 1.5, MemFactor: 1.2}
	c.Place(m.ID, &Resident{Key: trace.InstanceKey{Collection: 1}, Limit: res(0.9, 0.9)})
	if m.FitsLimit(res(0.2, 0.05), noOC) {
		t.Fatal("should not fit without overcommit")
	}
	if !m.FitsLimit(res(0.2, 0.05), oc) {
		t.Fatal("should fit with overcommit")
	}
	if m.FitsLimit(res(0.7, 0.05), oc) {
		t.Fatal("exceeds even overcommit ceiling")
	}
	ceiling := oc.AllocationCeiling(res(1, 1))
	if ceiling != res(1.5, 1.2) {
		t.Fatalf("ceiling %v", ceiling)
	}
}

func TestUpdateLimit(t *testing.T) {
	c := NewCell("test")
	m := c.AddMachine(res(1, 1), "P0")
	key := trace.InstanceKey{Collection: 1}
	c.Place(m.ID, &Resident{Key: key, Limit: res(0.5, 0.5)})
	c.UpdateLimit(m.ID, key, res(0.2, 0.3))
	if m.Allocated() != res(0.2, 0.3) {
		t.Fatalf("allocated after update %v", m.Allocated())
	}
	if m.Resident(key).Limit != res(0.2, 0.3) {
		t.Fatal("resident limit not updated")
	}
}

func TestUsageTotal(t *testing.T) {
	c := NewCell("test")
	m := c.AddMachine(res(1, 1), "P0")
	r1 := &Resident{Key: trace.InstanceKey{Collection: 1}, Usage: res(0.1, 0.2)}
	r2 := &Resident{Key: trace.InstanceKey{Collection: 2}, Usage: res(0.3, 0.1)}
	c.Place(m.ID, r1)
	c.Place(m.ID, r2)
	got := m.UsageTotal()
	if got.CPU < 0.4-1e-12 || got.CPU > 0.4+1e-12 || got.Mem < 0.3-1e-12 || got.Mem > 0.3+1e-12 {
		t.Fatalf("usage total %v", got)
	}
}

func TestRemoveMachineReturnsResidents(t *testing.T) {
	c := NewCell("test")
	m := c.AddMachine(res(1, 1), "P0")
	c.AddMachine(res(1, 1), "P0")
	c.Place(m.ID, &Resident{Key: trace.InstanceKey{Collection: 1}})
	c.Place(m.ID, &Resident{Key: trace.InstanceKey{Collection: 2}})
	evicted := c.RemoveMachine(m.ID)
	if len(evicted) != 2 {
		t.Fatalf("evicted %d", len(evicted))
	}
	if c.NumMachines() != 1 {
		t.Fatalf("machines %d", c.NumMachines())
	}
	if c.Capacity() != res(1, 1) {
		t.Fatalf("capacity %v", c.Capacity())
	}
	if c.Machine(m.ID) != nil {
		t.Fatal("machine still present")
	}
}

// TestMachineTableLookup pins the ID-indexed machine table's edges: IDs
// outside 1..last and removed IDs resolve to nil, and the live-ID views
// stay consistent with lookups after removals, including of the last ID.
func TestMachineTableLookup(t *testing.T) {
	c := NewCell("test")
	ms := make([]*Machine, 5)
	for i := range ms {
		ms[i] = c.AddMachine(res(1, 1), "P0")
	}
	c.RemoveMachine(ms[1].ID)
	c.RemoveMachine(ms[4].ID)
	for _, id := range []trace.MachineID{0, -1, -1 << 31, ms[4].ID, ms[4].ID + 1, 1 << 30, ms[1].ID} {
		if m := c.Machine(id); m != nil {
			t.Fatalf("Machine(%d) = machine %d, want nil", id, m.ID)
		}
	}
	want := []trace.MachineID{ms[0].ID, ms[2].ID, ms[3].ID}
	ids := c.MachineIDs()
	if c.NumMachines() != len(want) || len(ids) != len(want) {
		t.Fatalf("NumMachines %d, MachineIDs %v, want %v", c.NumMachines(), ids, want)
	}
	var walked []trace.MachineID
	c.Machines(func(m *Machine) { walked = append(walked, m.ID) })
	for i, id := range want {
		if ids[i] != id || walked[i] != id || c.Machine(id) != ms[id-1] {
			t.Fatalf("MachineIDs %v, Machines walk %v, want %v", ids, walked, want)
		}
	}
	// IDs are never reused: a new machine takes the next ID, not a freed one.
	if m := c.AddMachine(res(1, 1), "P0"); m.ID != ms[4].ID+1 || c.Machine(m.ID) != m || c.NumMachines() != 4 {
		t.Fatalf("added machine %d after removals: lookup %v, count %d", m.ID, c.Machine(m.ID), c.NumMachines())
	}
}

func TestTotalAllocated(t *testing.T) {
	c := NewCell("test")
	m1 := c.AddMachine(res(1, 1), "P0")
	m2 := c.AddMachine(res(1, 1), "P0")
	c.Place(m1.ID, &Resident{Key: trace.InstanceKey{Collection: 1}, Limit: res(0.5, 0.1)})
	c.Place(m2.ID, &Resident{Key: trace.InstanceKey{Collection: 2}, Limit: res(0.25, 0.2)})
	got := c.TotalAllocated()
	if got.CPU != 0.75 || got.Mem < 0.3-1e-12 || got.Mem > 0.3+1e-12 {
		t.Fatalf("total allocated %v", got)
	}
}

func TestBuildCellShapes(t *testing.T) {
	src := rng.New(1)
	c := BuildCell("a", 2000, Shapes2019, src)
	if c.NumMachines() != 2000 {
		t.Fatalf("machines %d", c.NumMachines())
	}
	shapes := c.ShapeStats()
	if len(shapes) < 15 {
		t.Fatalf("only %d distinct shapes in a 2000-machine 2019 cell", len(shapes))
	}
	platforms := c.Platforms()
	if len(platforms) != 7 {
		t.Fatalf("platforms %d, want 7", len(platforms))
	}

	c11 := BuildCell("2011", 2000, Shapes2011, src)
	if got := len(c11.Platforms()); got != 3 {
		t.Fatalf("2011 platforms %d, want 3", got)
	}
	if got := len(c11.ShapeStats()); got > 10 {
		t.Fatalf("2011 shapes %d, want <= 10", got)
	}
}

func TestShapeCatalogsMatchTable1(t *testing.T) {
	if len(Shapes2011) != 10 {
		t.Fatalf("2011 catalog has %d shapes, want 10", len(Shapes2011))
	}
	if len(Shapes2019) != 21 {
		t.Fatalf("2019 catalog has %d shapes, want 21", len(Shapes2019))
	}
	plat := map[string]bool{}
	for _, s := range Shapes2019 {
		plat[s.Platform] = true
		if s.Capacity.CPU <= 0 || s.Capacity.CPU > 1 || s.Capacity.Mem <= 0 || s.Capacity.Mem > 1 {
			t.Fatalf("shape out of normalized range: %+v", s)
		}
	}
	if len(plat) != 7 {
		t.Fatalf("2019 platforms %d, want 7", len(plat))
	}
}

func TestBuildCellPanicsOnEmptyCatalog(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	BuildCell("x", 10, nil, rng.New(1))
}

func TestSetUsageMaintainsAggregate(t *testing.T) {
	c := NewCell("test")
	m := c.AddMachine(res(1, 1), "P0")
	key := trace.InstanceKey{Collection: 1}
	c.Place(m.ID, &Resident{Key: key, Usage: res(0.1, 0.1)})
	if !m.SetUsage(key, res(0.4, 0.3)) {
		t.Fatal("SetUsage on placed resident returned false")
	}
	got := m.UsageTotal()
	if got.CPU < 0.4-1e-12 || got.CPU > 0.4+1e-12 || got.Mem < 0.3-1e-12 || got.Mem > 0.3+1e-12 {
		t.Fatalf("usage total %v after SetUsage", got)
	}
	if m.Resident(key).Usage != res(0.4, 0.3) {
		t.Fatal("resident usage not updated")
	}
	if m.SetUsage(trace.InstanceKey{Collection: 9}, res(1, 1)) {
		t.Fatal("SetUsage on missing resident returned true")
	}
	c.Remove(m.ID, key)
	if m.UsageTotal() != res(0, 0) {
		t.Fatalf("usage total %v after removing last resident", m.UsageTotal())
	}
}

func TestCeilingMemoized(t *testing.T) {
	c := NewCell("test")
	m := c.AddMachine(res(0.5, 0.8), "P0")
	p1 := OvercommitPolicy{CPUFactor: 1.5, MemFactor: 1.2}
	p2 := OvercommitPolicy{CPUFactor: 2, MemFactor: 1}
	for i := 0; i < 3; i++ { // repeated and alternating policies
		if got := m.Ceiling(p1); got != p1.AllocationCeiling(m.Capacity) {
			t.Fatalf("ceiling %v for p1", got)
		}
		if got := m.Ceiling(p2); got != p2.AllocationCeiling(m.Capacity) {
			t.Fatalf("ceiling %v for p2", got)
		}
	}
}

func TestGenerationBumpsOnEveryMutation(t *testing.T) {
	c := NewCell("test")
	m := c.AddMachine(res(1, 1), "P0")
	key := trace.InstanceKey{Collection: 1}
	g := m.Gen()
	step := func(name string, f func()) {
		f()
		if m.Gen() <= g {
			t.Fatalf("%s did not bump generation (%d -> %d)", name, g, m.Gen())
		}
		g = m.Gen()
	}
	step("place", func() { c.Place(m.ID, &Resident{Key: key, Limit: res(0.2, 0.2)}) })
	step("set usage", func() { m.SetUsage(key, res(0.1, 0.1)) })
	step("update limit", func() { c.UpdateLimit(m.ID, key, res(0.3, 0.1)) })
	step("remove", func() { c.Remove(m.ID, key) })
}

// The cached victim order must behave like a stable snapshot: a slice
// handed out before a mutation keeps its contents, and the next call
// reflects the mutation.
func TestResidentsSnapshotStableAcrossMutation(t *testing.T) {
	c := NewCell("test")
	m := c.AddMachine(res(1, 1), "P0")
	for i := 1; i <= 4; i++ {
		c.Place(m.ID, &Resident{Key: trace.InstanceKey{Collection: trace.CollectionID(i)}, Priority: i * 10})
	}
	snap := m.Residents()
	if len(snap) != 4 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	if again := m.Residents(); &again[0] != &snap[0] {
		t.Fatal("unmutated machine rebuilt its victim order")
	}
	// Evict-while-iterating: removals must not disturb the snapshot.
	for _, r := range snap {
		c.Remove(m.ID, r.Key)
	}
	if len(snap) != 4 || snap[0].Key.Collection != 1 {
		t.Fatal("snapshot disturbed by removals")
	}
	if got := m.Residents(); len(got) != 0 {
		t.Fatalf("fresh call returned %d residents", len(got))
	}
}

// Property: after randomized place/remove/limit/usage mutation sequences,
// the incrementally maintained aggregates (allocation, usage total, victim
// order, ceiling) match a from-scratch recomputation of the same state:
// Residents equals a fresh sort of the machine's residents by (priority,
// key), and a snapshot handed out earlier is never disturbed by later
// mutations.
func TestIncrementalStateMatchesRecompute(t *testing.T) {
	src := rng.New(99)
	c := NewCell("prop")
	oc := OvercommitPolicy{CPUFactor: 1.4, MemFactor: 1.2}
	for i := 0; i < 4; i++ {
		c.AddMachine(res(2, 2), "P0")
	}
	ids := c.MachineIDs()
	type placed struct {
		key trace.InstanceKey
		mid trace.MachineID
		r   *Resident
	}
	var live []placed
	next := trace.CollectionID(1)
	randRes := func() trace.Resources { return res(src.Float64()*0.3, src.Float64()*0.3) }
	// snaps holds, per machine, a Residents snapshot and a private copy of
	// what it contained when handed out.
	type snapshot struct{ got, want []*Resident }
	snaps := make(map[trace.MachineID]snapshot)

	verify := func(step int, m *Machine) {
		for mid, sn := range snaps {
			for i := range sn.want {
				if sn.got[i] != sn.want[i] {
					t.Fatalf("step %d: machine %d snapshot changed at %d", step, mid, i)
				}
			}
		}
		var fresh []*Resident
		for _, p := range live {
			if p.mid == m.ID {
				fresh = append(fresh, p.r)
			}
		}
		sort.Slice(fresh, func(i, j int) bool {
			a, b := fresh[i], fresh[j]
			if a.Priority != b.Priority {
				return a.Priority < b.Priority
			}
			if a.Key.Collection != b.Key.Collection {
				return a.Key.Collection < b.Key.Collection
			}
			return a.Key.Index < b.Key.Index
		})
		var wantAlloc, wantUsage trace.Resources
		rs := m.Residents()
		if len(rs) != m.NumResidents() || len(rs) != len(fresh) {
			t.Fatalf("step %d: victim order has %d entries, machine has %d residents, %d placed",
				step, len(rs), m.NumResidents(), len(fresh))
		}
		for i, r := range rs {
			wantAlloc = wantAlloc.Add(r.Limit)
			wantUsage = wantUsage.Add(r.Usage)
			if r != fresh[i] {
				t.Fatalf("step %d: victim order differs from a fresh sort at %d", step, i)
			}
		}
		if src.Intn(4) == 0 {
			snaps[m.ID] = snapshot{got: rs, want: append([]*Resident(nil), rs...)}
		}
		const eps = 1e-9
		gotAlloc, gotUsage := m.Allocated(), m.UsageTotal()
		if gotAlloc.CPU < wantAlloc.CPU-eps || gotAlloc.CPU > wantAlloc.CPU+eps ||
			gotAlloc.Mem < wantAlloc.Mem-eps || gotAlloc.Mem > wantAlloc.Mem+eps {
			t.Fatalf("step %d: allocated %v, recomputed %v", step, gotAlloc, wantAlloc)
		}
		if gotUsage.CPU < wantUsage.CPU-eps || gotUsage.CPU > wantUsage.CPU+eps ||
			gotUsage.Mem < wantUsage.Mem-eps || gotUsage.Mem > wantUsage.Mem+eps {
			t.Fatalf("step %d: usage total %v, recomputed %v", step, gotUsage, wantUsage)
		}
		if m.Ceiling(oc) != oc.AllocationCeiling(m.Capacity) {
			t.Fatalf("step %d: stale ceiling", step)
		}
	}

	for step := 0; step < 4000; step++ {
		switch op := src.Intn(4); {
		case op == 0 || len(live) == 0: // place
			mid := ids[src.Intn(len(ids))]
			// A few collections with several instances each, so victim
			// order ties on priority and collection and falls to the index.
			key := trace.InstanceKey{Collection: next % 7, Index: int32(next)}
			next++
			r := &Resident{
				Key: key, Limit: randRes(), Usage: randRes(),
				Priority: src.Intn(8) * 45,
			}
			c.Place(mid, r)
			live = append(live, placed{key: key, mid: mid, r: r})
		case op == 1: // remove
			i := src.Intn(len(live))
			c.Remove(live[i].mid, live[i].key)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case op == 2: // update limit
			p := live[src.Intn(len(live))]
			c.UpdateLimit(p.mid, p.key, randRes())
		default: // usage sample
			p := live[src.Intn(len(live))]
			c.Machine(p.mid).SetUsage(p.key, randRes())
		}
		verify(step, c.Machine(ids[src.Intn(len(ids))]))
	}
}

// Property: placement/removal keeps allocation equal to the sum of
// resident limits.
func TestAllocationConsistencyProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c := NewCell("p")
		m := c.AddMachine(res(100, 100), "P0")
		placed := map[trace.InstanceKey]trace.Resources{}
		next := uint64(1)
		for _, op := range ops {
			if op%2 == 0 || len(placed) == 0 {
				key := trace.InstanceKey{Collection: trace.CollectionID(next)}
				next++
				lim := res(float64(op%7)/10, float64(op%5)/10)
				c.Place(m.ID, &Resident{Key: key, Limit: lim})
				placed[key] = lim
			} else {
				for key := range placed {
					c.Remove(m.ID, key)
					delete(placed, key)
					break
				}
			}
		}
		var want trace.Resources
		for _, lim := range placed {
			want = want.Add(lim)
		}
		got := m.Allocated()
		const eps = 1e-9
		return got.CPU > want.CPU-eps && got.CPU < want.CPU+eps &&
			got.Mem > want.Mem-eps && got.Mem < want.Mem+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
