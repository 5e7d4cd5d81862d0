package cluster

import (
	"testing"

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

func TestFitsLimitOvercommit(t *testing.T) {
	oc := OvercommitPolicy{CPUFactor: 1.5, MemFactor: 1.2}
	strict, loose := NewCell("strict", noOC), NewCell("loose", oc)
	sm, lm := strict.AddMachine(res(1, 1), "P0"), loose.AddMachine(res(1, 1), "P0")
	allocated := res(0.9, 0.9)
	if sm.FitsLimit(allocated, res(0.2, 0.05)) {
		t.Fatal("should not fit without overcommit")
	}
	if !lm.FitsLimit(allocated, res(0.2, 0.05)) {
		t.Fatal("should fit with overcommit")
	}
	if lm.FitsLimit(allocated, res(0.7, 0.05)) {
		t.Fatal("exceeds even overcommit ceiling")
	}
	ceiling := oc.AllocationCeiling(res(1, 1))
	if ceiling != res(1.5, 1.2) {
		t.Fatalf("ceiling %v", ceiling)
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

// TestCeilingMemoized: each machine's ceiling is its cell's policy
// applied to its capacity, computed once when the machine is added.
func TestCeilingMemoized(t *testing.T) {
	for _, p := range []OvercommitPolicy{{CPUFactor: 1.5, MemFactor: 1.2}, {CPUFactor: 2, MemFactor: 1}} {
		c := NewCell("test", p)
		for _, capacity := range []trace.Resources{res(0.5, 0.8), res(1, 0.25)} {
			m := c.AddMachine(capacity, "P0")
			if got := m.Ceiling(); got != p.AllocationCeiling(capacity) {
				t.Fatalf("policy %+v: ceiling %v for capacity %v", p, got, capacity)
			}
		}
	}
}
