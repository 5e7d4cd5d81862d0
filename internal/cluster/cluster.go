// Package cluster models the physical substrate of a Borg cell: machines
// with heterogeneous shapes (Figure 1), capacity and allocation accounting
// with overcommit (Figure 4), and resident-instance tracking used by the
// scheduler for placement, preemption, and OOM handling.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/rng"
	"repro/internal/trace"
)

// Shape is a machine configuration: normalized CPU/memory capacity plus
// the hardware platform it belongs to. Weight is the relative frequency of
// the shape in the fleet.
type Shape struct {
	Capacity trace.Resources
	Platform string
	Weight   float64
}

// Shapes2011 reproduces the 2011 trace's machine mix: 10 machine shapes
// across 3 hardware platforms (Table 1), dominated by one mid-size shape,
// with capacities normalized to the largest machine.
var Shapes2011 = []Shape{
	{Capacity: trace.Resources{CPU: 0.50, Mem: 0.50}, Platform: "A", Weight: 0.53},
	{Capacity: trace.Resources{CPU: 0.50, Mem: 0.25}, Platform: "A", Weight: 0.31},
	{Capacity: trace.Resources{CPU: 0.50, Mem: 0.75}, Platform: "A", Weight: 0.08},
	{Capacity: trace.Resources{CPU: 1.00, Mem: 1.00}, Platform: "B", Weight: 0.01},
	{Capacity: trace.Resources{CPU: 0.25, Mem: 0.25}, Platform: "B", Weight: 0.03},
	{Capacity: trace.Resources{CPU: 0.50, Mem: 0.12}, Platform: "B", Weight: 0.01},
	{Capacity: trace.Resources{CPU: 0.50, Mem: 0.03}, Platform: "B", Weight: 0.005},
	{Capacity: trace.Resources{CPU: 0.50, Mem: 0.97}, Platform: "C", Weight: 0.004},
	{Capacity: trace.Resources{CPU: 1.00, Mem: 0.50}, Platform: "C", Weight: 0.006},
	{Capacity: trace.Resources{CPU: 0.25, Mem: 0.50}, Platform: "C", Weight: 0.005},
}

// Shapes2019 reproduces the 2019 mix: 21 shapes across 7 platforms with a
// much wider spread of CPU:memory ratios (Figure 1, Table 1).
var Shapes2019 = []Shape{
	{Capacity: trace.Resources{CPU: 0.25, Mem: 0.25}, Platform: "P0", Weight: 0.18},
	{Capacity: trace.Resources{CPU: 0.35, Mem: 0.25}, Platform: "P0", Weight: 0.12},
	{Capacity: trace.Resources{CPU: 0.35, Mem: 0.45}, Platform: "P0", Weight: 0.10},
	{Capacity: trace.Resources{CPU: 0.50, Mem: 0.50}, Platform: "P1", Weight: 0.14},
	{Capacity: trace.Resources{CPU: 0.50, Mem: 0.25}, Platform: "P1", Weight: 0.08},
	{Capacity: trace.Resources{CPU: 0.50, Mem: 0.75}, Platform: "P1", Weight: 0.05},
	{Capacity: trace.Resources{CPU: 0.60, Mem: 0.35}, Platform: "P2", Weight: 0.06},
	{Capacity: trace.Resources{CPU: 0.60, Mem: 0.60}, Platform: "P2", Weight: 0.05},
	{Capacity: trace.Resources{CPU: 0.60, Mem: 0.90}, Platform: "P2", Weight: 0.02},
	{Capacity: trace.Resources{CPU: 0.75, Mem: 0.50}, Platform: "P3", Weight: 0.04},
	{Capacity: trace.Resources{CPU: 0.75, Mem: 0.75}, Platform: "P3", Weight: 0.04},
	{Capacity: trace.Resources{CPU: 0.75, Mem: 1.00}, Platform: "P3", Weight: 0.02},
	{Capacity: trace.Resources{CPU: 1.00, Mem: 0.50}, Platform: "P4", Weight: 0.02},
	{Capacity: trace.Resources{CPU: 1.00, Mem: 0.75}, Platform: "P4", Weight: 0.02},
	{Capacity: trace.Resources{CPU: 1.00, Mem: 1.00}, Platform: "P4", Weight: 0.02},
	{Capacity: trace.Resources{CPU: 0.30, Mem: 0.60}, Platform: "P5", Weight: 0.01},
	{Capacity: trace.Resources{CPU: 0.30, Mem: 0.90}, Platform: "P5", Weight: 0.01},
	{Capacity: trace.Resources{CPU: 0.15, Mem: 0.15}, Platform: "P5", Weight: 0.01},
	{Capacity: trace.Resources{CPU: 0.90, Mem: 0.30}, Platform: "P6", Weight: 0.005},
	{Capacity: trace.Resources{CPU: 0.90, Mem: 0.15}, Platform: "P6", Weight: 0.0025},
	{Capacity: trace.Resources{CPU: 0.15, Mem: 0.45}, Platform: "P6", Weight: 0.0025},
}

// Resident is one instance placed on a machine, with the accounting data
// the scheduler needs for preemption and OOM-victim selection.
type Resident struct {
	Key      trace.InstanceKey
	Limit    trace.Resources
	Priority int
	Tier     trace.Tier
	// Usage is the most recent sampled usage; updated by the usage model
	// each sampling window. While a resident is placed, writes must go
	// through Machine.SetResidentUsage so the machine's incremental
	// usage aggregate stays consistent.
	Usage trace.Resources
	// Task is an opaque owner cookie: the scheduler stores its task
	// pointer here when it places the resident so per-window sampling
	// avoids a key-to-task map lookup. The cluster never reads it; it is
	// cleared when the scheduler recycles the resident.
	Task any
}

// Machine is one node of the cell with capacity, allocation, and resident
// accounting. All mutation goes through the Cell so that cell-level
// aggregates stay consistent. Allocation, usage, victim order and the
// overcommit ceiling are maintained incrementally: the placement fast
// path reads them in O(1) instead of rescanning residents.
type Machine struct {
	ID       trace.MachineID
	Capacity trace.Resources
	Platform string

	allocated  trace.Resources
	usageTotal trace.Resources

	// residents is kept in victim order — (priority asc, collection asc,
	// index asc) — at all times: Place inserts by binary search and Remove
	// shifts in place. order mirrors it entry for entry with the sort key
	// held inline, so finding a resident never dereferences the others.
	// shared marks residents as handed out by Residents: the next
	// membership change copies it first (copy-on-write), leaving the
	// caller's snapshot intact. LiveResidents does not set it.
	residents []*Resident
	order     []victimKey
	shared    bool

	// gen counts state mutations (place, remove, limit update, usage
	// sample). The scheduler's score cache keys on it: an unchanged gen
	// guarantees every input to a machine's placement score is unchanged,
	// so memoized scores are exact, never approximations.
	gen uint64

	// ceil memoizes the allocation ceiling for ceilPolicy; recomputed
	// only when the policy changes (capacity is immutable after AddMachine).
	ceil       trace.Resources
	ceilPolicy OvercommitPolicy
	ceilValid  bool
}

// victimKey is a resident's position in victim order.
type victimKey struct {
	priority int
	key      trace.InstanceKey
}

// less orders victim keys by priority, then collection, then index.
func (a victimKey) less(b victimKey) bool {
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	if a.key.Collection != b.key.Collection {
		return a.key.Collection < b.key.Collection
	}
	return a.key.Index < b.key.Index
}

// Allocated returns the summed limits of residents.
func (m *Machine) Allocated() trace.Resources { return m.allocated }

// NumResidents returns the number of placed instances.
func (m *Machine) NumResidents() int { return len(m.residents) }

// Gen returns the machine's mutation generation. Any change to the
// machine's allocation, residents, limits or sampled usage bumps it.
func (m *Machine) Gen() uint64 { return m.gen }

// Residents returns the resident list sorted by (priority asc, key) —
// i.e. preemption-victim order first. The slice is a snapshot: callers
// must not modify it, and it is structurally stable (the next membership
// change copies before writing), so evicting while iterating is safe —
// but entries removed from the machine belong to the remover afterwards
// (the scheduler recycles them), so a snapshot must not be retained
// across scheduling events nor its removed entries dereferenced. The
// snapshot costs the machine's next Place or Remove a copy of the list,
// so only a caller that changes membership while it iterates (machine
// maintenance) takes one; a walk that finishes reading first uses
// LiveResidents.
func (m *Machine) Residents() []*Resident {
	m.shared = true
	return m.residents
}

// LiveResidents returns the resident list in victim order without
// taking a snapshot: the slice is the machine's own, valid only until
// its next Place or Remove. Callers must not modify it or change the
// machine's membership while they read it. The usage sampler's window
// walk, the preemption scan and the OOM victim pick read it this way, so
// the placements that follow them copy nothing.
func (m *Machine) LiveResidents() []*Resident { return m.residents }

// index returns the position of the resident with the given key, or -1.
func (m *Machine) index(key trace.InstanceKey) int {
	for i := range m.order {
		if m.order[i].key == key {
			return i
		}
	}
	return -1
}

// Resident returns the resident with the given key, or nil.
func (m *Machine) Resident(key trace.InstanceKey) *Resident {
	if i := m.index(key); i >= 0 {
		return m.residents[i]
	}
	return nil
}

// UsageTotal returns the summed last-sampled usage of all residents,
// maintained incrementally by Place/Remove/SetResidentUsage.
func (m *Machine) UsageTotal() trace.Resources { return m.usageTotal }

// SetResidentUsage records a resident's sampled usage, keeping the
// machine's usage aggregate consistent. The resident must currently be
// placed on m.
func (m *Machine) SetResidentUsage(r *Resident, usage trace.Resources) {
	m.usageTotal = m.usageTotal.Sub(r.Usage).Add(usage)
	m.clampAggregates()
	r.Usage = usage
	m.gen++
}

// unshare gives m a private resident slice before a membership change
// if the current one has been handed out as a snapshot.
func (m *Machine) unshare() {
	if m.shared {
		m.residents = append(make([]*Resident, 0, len(m.residents)+1), m.residents...)
		m.shared = false
	}
}

// insert places r at its victim-order position.
func (m *Machine) insert(r *Resident) {
	k := victimKey{priority: r.Priority, key: r.Key}
	i := sort.Search(len(m.order), func(i int) bool { return k.less(m.order[i]) })
	m.unshare()
	m.residents = append(m.residents, nil)
	copy(m.residents[i+1:], m.residents[i:])
	m.residents[i] = r
	m.order = append(m.order, victimKey{})
	copy(m.order[i+1:], m.order[i:])
	m.order[i] = k
}

// removeAt drops the resident at position i.
func (m *Machine) removeAt(i int) {
	m.unshare()
	n := len(m.residents) - 1
	copy(m.residents[i:], m.residents[i+1:])
	m.residents[n] = nil
	m.residents = m.residents[:n]
	copy(m.order[i:], m.order[i+1:])
	m.order = m.order[:n]
}

// clampAggregates zeroes numeric drift so long simulations cannot
// accumulate negative aggregates; with no residents the aggregates are
// reset to exactly zero.
func (m *Machine) clampAggregates() {
	if len(m.residents) == 0 {
		m.allocated = trace.Resources{}
		m.usageTotal = trace.Resources{}
		return
	}
	if m.allocated.CPU < 0 {
		m.allocated.CPU = 0
	}
	if m.allocated.Mem < 0 {
		m.allocated.Mem = 0
	}
	if m.usageTotal.CPU < 0 {
		m.usageTotal.CPU = 0
	}
	if m.usageTotal.Mem < 0 {
		m.usageTotal.Mem = 0
	}
}

// OvercommitPolicy bounds the ratio of summed limits to capacity per
// resource dimension (§4: in 2011 CPU was more aggressively over-committed
// than memory; by 2019 they are comparable).
type OvercommitPolicy struct {
	CPUFactor float64
	MemFactor float64
}

// AllocationCeiling returns the machine allocation bound under the policy.
func (p OvercommitPolicy) AllocationCeiling(capacity trace.Resources) trace.Resources {
	return trace.Resources{
		CPU: capacity.CPU * p.CPUFactor,
		Mem: capacity.Mem * p.MemFactor,
	}
}

// Ceiling returns the machine's allocation ceiling under the policy,
// memoized until the policy changes.
func (m *Machine) Ceiling(policy OvercommitPolicy) trace.Resources {
	if !m.ceilValid || policy != m.ceilPolicy {
		m.ceil = policy.AllocationCeiling(m.Capacity)
		m.ceilPolicy = policy
		m.ceilValid = true
	}
	return m.ceil
}

// FitsLimit reports whether a request fits on m under the overcommit
// policy, considering current allocation.
func (m *Machine) FitsLimit(request trace.Resources, policy OvercommitPolicy) bool {
	ceiling := m.Ceiling(policy)
	after := m.allocated.Add(request)
	return after.CPU <= ceiling.CPU+1e-12 && after.Mem <= ceiling.Mem+1e-12
}

// Cell is a set of machines operated as one scheduling domain.
type Cell struct {
	Name string

	// machines is indexed by ID: IDs are dense from 1 (AddMachine's
	// nextID) and slot 0 is never used.
	machines []*Machine
	ids      []trace.MachineID // live IDs, sorted, kept in sync with machines
	// occ lists machines that currently hold at least one resident, in
	// ascending ID order. Place/Remove maintain it on the 0↔1 resident
	// transitions so per-window sampling walks only occupied machines.
	occ      []*Machine
	capacity trace.Resources // total live capacity
	nextID   trace.MachineID
}

// NewCell returns an empty cell.
func NewCell(name string) *Cell {
	return &Cell{
		Name:     name,
		machines: make([]*Machine, 1),
		nextID:   1,
	}
}

// AddMachine creates a machine with the given shape and returns it.
func (c *Cell) AddMachine(capacity trace.Resources, platform string) *Machine {
	m := &Machine{
		ID:       c.nextID,
		Capacity: capacity,
		Platform: platform,
	}
	c.nextID++
	c.machines = append(c.machines, m)
	c.ids = append(c.ids, m.ID)
	c.capacity = c.capacity.Add(capacity)
	return m
}

// Machine returns the machine with the given ID, or nil.
func (c *Cell) Machine(id trace.MachineID) *Machine {
	if id <= 0 || int(id) >= len(c.machines) {
		return nil
	}
	return c.machines[id]
}

// Capacity returns the total live capacity of the cell.
func (c *Cell) Capacity() trace.Resources { return c.capacity }

// MachineIDs returns the live machine IDs in ascending order.
func (c *Cell) MachineIDs() []trace.MachineID { return c.ids }

// OccupiedMachines returns the machines holding at least one resident,
// in ascending ID order. The slice is the cell's live index: callers
// must not modify it or retain it across placements.
func (c *Cell) OccupiedMachines() []*Machine { return c.occ }

// occIndex returns the position of (or insertion point for) machine ID
// id in the occupied index.
func (c *Cell) occIndex(id trace.MachineID) int {
	return sort.Search(len(c.occ), func(i int) bool { return c.occ[i].ID >= id })
}

// occupy inserts m into the occupied index (first resident arrived).
func (c *Cell) occupy(m *Machine) {
	i := c.occIndex(m.ID)
	c.occ = append(c.occ, nil)
	copy(c.occ[i+1:], c.occ[i:])
	c.occ[i] = m
}

// vacate drops m from the occupied index (last resident left).
func (c *Cell) vacate(m *Machine) {
	if i := c.occIndex(m.ID); i < len(c.occ) && c.occ[i] == m {
		c.occ = append(c.occ[:i], c.occ[i+1:]...)
	}
}

// Machines calls fn for every live machine in ID order.
func (c *Cell) Machines(fn func(m *Machine)) {
	for _, id := range c.ids {
		fn(c.machines[id])
	}
}

// Place adds a resident to a machine. It panics on unknown machines or
// duplicate placement — both indicate scheduler bugs, not runtime
// conditions.
func (c *Cell) Place(id trace.MachineID, r *Resident) {
	m := c.Machine(id)
	if m == nil {
		panic(fmt.Sprintf("cluster: placing on unknown machine %d", id))
	}
	if m.index(r.Key) >= 0 {
		panic(fmt.Sprintf("cluster: instance %s already on machine %d", r.Key, id))
	}
	m.insert(r)
	m.allocated = m.allocated.Add(r.Limit)
	m.usageTotal = m.usageTotal.Add(r.Usage)
	if len(m.residents) == 1 {
		c.occupy(m)
	}
	m.gen++
}

// Remove detaches a resident from a machine and returns it. Removing a
// non-resident instance panics.
func (c *Cell) Remove(id trace.MachineID, key trace.InstanceKey) *Resident {
	m := c.Machine(id)
	if m == nil {
		panic(fmt.Sprintf("cluster: removing from unknown machine %d", id))
	}
	i := m.index(key)
	if i < 0 {
		panic(fmt.Sprintf("cluster: instance %s not on machine %d", key, id))
	}
	r := m.residents[i]
	m.removeAt(i)
	m.allocated = m.allocated.Sub(r.Limit)
	m.usageTotal = m.usageTotal.Sub(r.Usage)
	if len(m.residents) == 0 {
		c.vacate(m)
	}
	m.clampAggregates()
	m.gen++
	return r
}

// UpdateLimit changes a resident's limit in place, keeping the machine's
// allocation aggregate consistent. Used by Autopilot's vertical scaling.
func (c *Cell) UpdateLimit(id trace.MachineID, key trace.InstanceKey, limit trace.Resources) {
	m := c.Machine(id)
	if m == nil {
		panic(fmt.Sprintf("cluster: updating on unknown machine %d", id))
	}
	r := m.Resident(key)
	if r == nil {
		panic(fmt.Sprintf("cluster: instance %s not on machine %d", key, id))
	}
	m.allocated = m.allocated.Sub(r.Limit).Add(limit)
	r.Limit = limit
	// Limit changes alter fit and score but not the victim order (which
	// sorts by priority and key), so only the generation moves.
	m.gen++
}

// BuildCell creates a cell of n machines drawn from the shape catalog
// with the catalog's weights, using src for shape selection.
func BuildCell(name string, n int, shapes []Shape, src *rng.Source) *Cell {
	if len(shapes) == 0 {
		panic("cluster: empty shape catalog")
	}
	weights := make([]float64, len(shapes))
	for i, s := range shapes {
		weights[i] = s.Weight
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	c := NewCell(name)
	for i := 0; i < n; i++ {
		u := src.Float64() * total
		j := sort.SearchFloat64s(cum, u)
		if j >= len(shapes) {
			j = len(shapes) - 1
		}
		c.AddMachine(shapes[j].Capacity, shapes[j].Platform)
	}
	return c
}

// Platforms returns the set of distinct hardware platforms in the cell.
func (c *Cell) Platforms() map[string]int {
	out := make(map[string]int)
	for _, id := range c.ids {
		out[c.machines[id].Platform]++
	}
	return out
}
