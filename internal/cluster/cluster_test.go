package cluster

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/trace"
)

func res(c, m float64) trace.Resources { return trace.Resources{CPU: c, Mem: m} }

// noOC is the overcommit policy of tests that do not exercise it.
var noOC = OvercommitPolicy{CPUFactor: 1, MemFactor: 1}

func TestAddMachineAndCapacity(t *testing.T) {
	c := NewCell("test", noOC)
	m1 := c.AddMachine(res(1, 1), "P0")
	m2 := c.AddMachine(res(0.5, 0.25), "P1")
	if m1.ID == m2.ID {
		t.Fatal("duplicate machine IDs")
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
	c := NewCell("test", noOC)
	m := c.AddMachine(res(1, 1), "P0")
	r := &Resident{Key: trace.InstanceKey{Collection: 1, Index: 0}, Limit: res(0.3, 0.2), Priority: 120, Tier: trace.TierProduction}
	c.Place(m.ID, r)
	if m.Allocated() != res(0.3, 0.2) {
		t.Fatalf("allocated %v", m.Allocated())
	}
	if m.NumResidents() != 1 {
		t.Fatal("residents")
	}
	if m.Resident(r.Priority, r.Key) != r {
		t.Fatal("resident lookup")
	}
	if m.Resident(r.Priority+1, r.Key) != nil {
		t.Fatal("resident found under another priority")
	}
	got := c.Remove(m.ID, r.Priority, r.Key)
	if got != r {
		t.Fatal("removed resident mismatch")
	}
	if m.Allocated() != res(0, 0) || m.NumResidents() != 0 {
		t.Fatalf("post-remove state %v %d", m.Allocated(), m.NumResidents())
	}
}

func TestPlacePanics(t *testing.T) {
	c := NewCell("test", noOC)
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
	mustPanic("remove missing", func() { c.Remove(m.ID, 0, trace.InstanceKey{Collection: 9}) })
	mustPanic("remove under another priority", func() { c.Remove(m.ID, 1, r.Key) })
	mustPanic("remove unknown machine", func() { c.Remove(999, 0, r.Key) })
	mustPanic("update missing", func() { c.UpdateLimit(m.ID, 0, trace.InstanceKey{Collection: 9}, res(0, 0)) })
}

func TestResidentsOrderedByPriority(t *testing.T) {
	c := NewCell("test", noOC)
	m := c.AddMachine(res(1, 1), "P0")
	c.Place(m.ID, &Resident{Key: trace.InstanceKey{Collection: 1}, Priority: 200})
	c.Place(m.ID, &Resident{Key: trace.InstanceKey{Collection: 2}, Priority: 0})
	c.Place(m.ID, &Resident{Key: trace.InstanceKey{Collection: 3}, Priority: 110})
	rs := m.LiveResidents()
	if rs[0].Priority != 0 || rs[1].Priority != 110 || rs[2].Priority != 200 {
		t.Fatalf("victim order %v", rs)
	}
}

func TestFitsLimitOvercommit(t *testing.T) {
	oc := OvercommitPolicy{CPUFactor: 1.5, MemFactor: 1.2}
	strict, loose := NewCell("strict", noOC), NewCell("loose", oc)
	sm, lm := strict.AddMachine(res(1, 1), "P0"), loose.AddMachine(res(1, 1), "P0")
	strict.Place(sm.ID, &Resident{Key: trace.InstanceKey{Collection: 1}, Limit: res(0.9, 0.9)})
	loose.Place(lm.ID, &Resident{Key: trace.InstanceKey{Collection: 1}, Limit: res(0.9, 0.9)})
	if sm.FitsLimit(res(0.2, 0.05)) {
		t.Fatal("should not fit without overcommit")
	}
	if !lm.FitsLimit(res(0.2, 0.05)) {
		t.Fatal("should fit with overcommit")
	}
	if lm.FitsLimit(res(0.7, 0.05)) {
		t.Fatal("exceeds even overcommit ceiling")
	}
	ceiling := oc.AllocationCeiling(res(1, 1))
	if ceiling != res(1.5, 1.2) {
		t.Fatalf("ceiling %v", ceiling)
	}
}

func TestUpdateLimit(t *testing.T) {
	c := NewCell("test", noOC)
	m := c.AddMachine(res(1, 1), "P0")
	key := trace.InstanceKey{Collection: 1}
	c.Place(m.ID, &Resident{Key: key, Limit: res(0.5, 0.5)})
	c.UpdateLimit(m.ID, 0, key, res(0.2, 0.3))
	if m.Allocated() != res(0.2, 0.3) {
		t.Fatalf("allocated after update %v", m.Allocated())
	}
	if m.Resident(0, key).Limit != res(0.2, 0.3) {
		t.Fatal("resident limit not updated")
	}
}

func TestUsageTotal(t *testing.T) {
	c := NewCell("test", noOC)
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

// TestMachineTableLookup pins the ID-indexed machine table's edges: IDs
// outside 1..last resolve to nil, and the live-ID views stay consistent
// with lookups.
func TestMachineTableLookup(t *testing.T) {
	c := NewCell("test", noOC)
	ms := make([]*Machine, 5)
	for i := range ms {
		ms[i] = c.AddMachine(res(1, 1), "P0")
	}
	for _, id := range []trace.MachineID{0, -1, -1 << 31, ms[4].ID + 1, 1 << 30} {
		if m := c.Machine(id); m != nil {
			t.Fatalf("Machine(%d) = machine %d, want nil", id, m.ID)
		}
	}
	ids := c.MachineIDs()
	if len(ids) != len(ms) {
		t.Fatalf("MachineIDs %v, want %d", ids, len(ms))
	}
	var walked []trace.MachineID
	c.Machines(func(m *Machine) { walked = append(walked, m.ID) })
	for i, m := range ms {
		if ids[i] != m.ID || walked[i] != m.ID || c.Machine(m.ID) != m || m.ID != trace.MachineID(i+1) {
			t.Fatalf("MachineIDs %v, Machines walk %v, want 1..%d", ids, walked, len(ms))
		}
	}
}

func TestBuildCellShapes(t *testing.T) {
	src := rng.New(1)
	c := BuildCell("a", 2000, Shapes2019, noOC, src)
	if n := len(c.MachineIDs()); n != 2000 {
		t.Fatalf("machines %d", n)
	}
	shapes := shapeCounts(c)
	if len(shapes) < 15 {
		t.Fatalf("only %d distinct shapes in a 2000-machine 2019 cell", len(shapes))
	}
	platforms := platformCounts(c)
	if len(platforms) != 7 {
		t.Fatalf("platforms %d, want 7", len(platforms))
	}

	c11 := BuildCell("2011", 2000, Shapes2011, noOC, src)
	if got := len(platformCounts(c11)); got != 3 {
		t.Fatalf("2011 platforms %d, want 3", got)
	}
	if got := len(shapeCounts(c11)); got > 10 {
		t.Fatalf("2011 shapes %d, want <= 10", got)
	}
}

// platformCounts counts c's machines per hardware platform.
func platformCounts(c *Cell) map[string]int {
	out := make(map[string]int)
	c.Machines(func(m *Machine) { out[m.Platform]++ })
	return out
}

// shapeCounts counts c's machines per distinct (CPU, Mem) shape.
func shapeCounts(c *Cell) map[trace.Resources]int {
	out := make(map[trace.Resources]int)
	c.Machines(func(m *Machine) { out[m.Capacity]++ })
	return out
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
	BuildCell("x", 10, nil, noOC, rng.New(1))
}

func TestSetUsageMaintainsAggregate(t *testing.T) {
	c := NewCell("test", noOC)
	m := c.AddMachine(res(1, 1), "P0")
	key := trace.InstanceKey{Collection: 1}
	r := &Resident{Key: key, Usage: res(0.1, 0.1)}
	c.Place(m.ID, r)
	m.SetResidentUsage(r, res(0.4, 0.3))
	got := m.UsageTotal()
	if got.CPU < 0.4-1e-12 || got.CPU > 0.4+1e-12 || got.Mem < 0.3-1e-12 || got.Mem > 0.3+1e-12 {
		t.Fatalf("usage total %v after SetResidentUsage", got)
	}
	if m.Resident(0, key).Usage != res(0.4, 0.3) {
		t.Fatal("resident usage not updated")
	}
	c.Remove(m.ID, 0, key)
	if m.UsageTotal() != res(0, 0) {
		t.Fatalf("usage total %v after removing last resident", m.UsageTotal())
	}
}

// TestCeilingMemoized: each machine's ceiling is its cell's policy
// applied to its capacity, computed once when the machine is added.
func TestCeilingMemoized(t *testing.T) {
	for _, p := range []OvercommitPolicy{{CPUFactor: 1.5, MemFactor: 1.2}, {CPUFactor: 2, MemFactor: 1}} {
		c := NewCell("test", p)
		for _, capacity := range []trace.Resources{res(0.5, 0.8), res(1, 0.25)} {
			m := c.AddMachine(capacity, "P0")
			c.Place(m.ID, &Resident{Key: trace.InstanceKey{Collection: 1}, Limit: res(0.1, 0.1)})
			if got := m.Ceiling(); got != p.AllocationCeiling(capacity) {
				t.Fatalf("policy %+v: ceiling %v for capacity %v", p, got, capacity)
			}
		}
	}
}

// Property: after randomized place/remove/limit/usage mutation sequences,
// the incrementally maintained aggregates (allocation, usage total, victim
// order, ceiling) match a from-scratch recomputation of the same state:
// LiveResidents equals a fresh sort of the machine's residents by
// (priority, key).
func TestIncrementalStateMatchesRecompute(t *testing.T) {
	src := rng.New(99)
	oc := OvercommitPolicy{CPUFactor: 1.4, MemFactor: 1.2}
	c := NewCell("prop", oc)
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
	verify := func(step int, m *Machine) {
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
		rs := m.LiveResidents()
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
		if m.Ceiling() != oc.AllocationCeiling(m.Capacity) {
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
			c.Remove(live[i].mid, live[i].r.Priority, live[i].key)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case op == 2: // update limit
			p := live[src.Intn(len(live))]
			c.UpdateLimit(p.mid, p.r.Priority, p.key, randRes())
		default: // usage sample
			p := live[src.Intn(len(live))]
			c.Machine(p.mid).SetResidentUsage(p.r, randRes())
		}
		verify(step, c.Machine(ids[src.Intn(len(ids))]))
	}
}

// Property: placement/removal keeps allocation equal to the sum of
// resident limits.
func TestAllocationConsistencyProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c := NewCell("p", noOC)
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
					c.Remove(m.ID, 0, key)
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

// TestResidentLookupMatchesLinearScan: random Place, Remove and
// UpdateLimit sequences keep one machine's residents in victim order, and
// every binary-searched lookup agrees with a linear scan of a reference
// list the test keeps itself: a resident is found under its own priority
// and key, and a key that is absent, or present under another priority,
// is not.
func TestResidentLookupMatchesLinearScan(t *testing.T) {
	src := rng.New(7)
	c := NewCell("lookup", noOC)
	m := c.AddMachine(res(100, 100), "P0")
	// ref holds the placed residents in victim order, maintained by
	// linear scans only.
	var ref []*Resident
	before := func(a, b *Resident) bool {
		if a.Priority != b.Priority {
			return a.Priority < b.Priority
		}
		if a.Key.Collection != b.Key.Collection {
			return a.Key.Collection < b.Key.Collection
		}
		return a.Key.Index < b.Key.Index
	}
	scan := func(priority int, key trace.InstanceKey) *Resident {
		for _, r := range ref {
			if r.Priority == priority && r.Key == key {
				return r
			}
		}
		return nil
	}
	// Few collections, indices and priorities, so keys collide often.
	randKey := func() (int, trace.InstanceKey) {
		return src.Intn(4) * 100, trace.InstanceKey{Collection: trace.CollectionID(1 + src.Intn(5)), Index: int32(src.Intn(4))}
	}
	for step := 0; step < 3000; step++ {
		prio, key := randKey()
		switch src.Intn(3) {
		case 0: // place, unless that priority and key is already there
			if scan(prio, key) != nil {
				break
			}
			r := &Resident{Key: key, Priority: prio, Limit: res(src.Float64(), src.Float64())}
			c.Place(m.ID, r)
			i := 0
			for i < len(ref) && before(ref[i], r) {
				i++
			}
			ref = append(ref[:i], append([]*Resident{r}, ref[i:]...)...)
		case 1: // remove a live resident
			if len(ref) == 0 {
				break
			}
			i := src.Intn(len(ref))
			r := ref[i]
			if got := c.Remove(m.ID, r.Priority, r.Key); got != r {
				t.Fatalf("step %d: Remove returned %v, want %v", step, got, r)
			}
			ref = append(ref[:i], ref[i+1:]...)
		default: // update a live resident's limit
			if len(ref) == 0 {
				break
			}
			r := ref[src.Intn(len(ref))]
			lim := res(src.Float64(), src.Float64())
			c.UpdateLimit(m.ID, r.Priority, r.Key, lim)
			if r.Limit != lim {
				t.Fatalf("step %d: limit %v, want %v", step, r.Limit, lim)
			}
		}
		rs := m.LiveResidents()
		if len(rs) != len(ref) {
			t.Fatalf("step %d: %d residents, reference has %d", step, len(rs), len(ref))
		}
		for i := range rs {
			if rs[i] != ref[i] {
				t.Fatalf("step %d: victim order differs from the reference at %d", step, i)
			}
		}
		for i := 0; i < 8; i++ {
			prio, key := randKey()
			if got, want := m.Resident(prio, key), scan(prio, key); got != want {
				t.Fatalf("step %d: Resident(%d, %s) = %v, linear scan finds %v", step, prio, key, got, want)
			}
		}
	}
}
