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
// aggregates stay consistent. Allocation, usage and victim order are
// maintained incrementally and the overcommit ceiling is fixed when the
// machine is added, so the placement fast path reads them in O(1)
// instead of rescanning residents.
type Machine struct {
	ID       trace.MachineID
	Capacity trace.Resources
	Platform string

	allocated  trace.Resources
	usageTotal trace.Resources

	// residents is kept in victim order — (priority asc, collection asc,
	// index asc) — at all times: Place, Remove, Resident and UpdateLimit
	// each find their position with one binary search, and Place and
	// Remove shift in place. order mirrors it entry for entry with the
	// sort key held inline, so a search never dereferences a resident.
	residents []*Resident
	order     []victimKey

	// ceil is the allocation ceiling under the cell's overcommit policy,
	// computed once by AddMachine (capacity never changes afterwards).
	ceil trace.Resources
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

// LiveResidents returns the resident list in victim order — (priority
// asc, key) — as the machine's own slice, valid only until its next Place
// or Remove. Callers must not modify it or change the machine's
// membership while they read it: a walk that evicts as it goes (machine
// maintenance) copies the list first.
func (m *Machine) LiveResidents() []*Resident { return m.residents }

// search returns the position of k in victim order: where it is, or
// where it would be inserted, and whether it is there. One binary search
// serves every lookup, since every caller knows the resident's priority.
func (m *Machine) search(k victimKey) (int, bool) {
	lo, hi := 0, len(m.order)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.order[mid].less(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(m.order) && m.order[lo] == k
}

// Resident returns the resident with the given priority and key, or nil.
func (m *Machine) Resident(priority int, key trace.InstanceKey) *Resident {
	if i, ok := m.search(victimKey{priority: priority, key: key}); ok {
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
}

// insert places r at victim-order position i, found by search.
func (m *Machine) insert(i int, r *Resident) {
	k := victimKey{priority: r.Priority, key: r.Key}
	m.residents = append(m.residents, nil)
	copy(m.residents[i+1:], m.residents[i:])
	m.residents[i] = r
	m.order = append(m.order, victimKey{})
	copy(m.order[i+1:], m.order[i:])
	m.order[i] = k
}

// removeAt drops the resident at position i.
func (m *Machine) removeAt(i int) {
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

// Ceiling returns the machine's allocation ceiling under the cell's
// overcommit policy.
func (m *Machine) Ceiling() trace.Resources { return m.ceil }

// FitsLimit reports whether a request fits on m under the cell's
// overcommit policy, considering current allocation.
func (m *Machine) FitsLimit(request trace.Resources) bool {
	after := m.allocated.Add(request)
	return after.CPU <= m.ceil.CPU+1e-12 && after.Mem <= m.ceil.Mem+1e-12
}

// Cell is a set of machines operated as one scheduling domain.
type Cell struct {
	Name string

	// machines is indexed by ID: IDs are dense from 1 (AddMachine's
	// nextID) and slot 0 is never used.
	machines []*Machine
	ids      []trace.MachineID // live IDs, sorted, kept in sync with machines
	capacity trace.Resources   // total live capacity
	nextID   trace.MachineID
	// oc is the cell's overcommit policy; every machine's ceiling is
	// derived from it once, when the machine is added.
	oc OvercommitPolicy
}

// NewCell returns an empty cell whose machines are overcommitted under oc.
func NewCell(name string, oc OvercommitPolicy) *Cell {
	return &Cell{
		Name:     name,
		machines: make([]*Machine, 1),
		nextID:   1,
		oc:       oc,
	}
}

// AddMachine creates a machine with the given shape and returns it.
func (c *Cell) AddMachine(capacity trace.Resources, platform string) *Machine {
	m := &Machine{
		ID:       c.nextID,
		Capacity: capacity,
		Platform: platform,
		ceil:     c.oc.AllocationCeiling(capacity),
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

// Machines calls fn for every live machine in ID order.
func (c *Cell) Machines(fn func(m *Machine)) {
	for _, id := range c.ids {
		fn(c.machines[id])
	}
}

// Place adds a resident to a machine. It panics on unknown machines or
// duplicate placement — both indicate scheduler bugs, not runtime
// conditions. A resident is identified by its (priority, key) pair, the
// key of the one search every lookup makes, so the duplicate check sees
// a key already on the machine only under the same priority: callers
// must place an instance under its job's fixed priority, as Remove and
// UpdateLimit look it up.
func (c *Cell) Place(id trace.MachineID, r *Resident) {
	m := c.Machine(id)
	if m == nil {
		panic(fmt.Sprintf("cluster: placing on unknown machine %d", id))
	}
	i, dup := m.search(victimKey{priority: r.Priority, key: r.Key})
	if dup {
		panic(fmt.Sprintf("cluster: instance %s already on machine %d", r.Key, id))
	}
	m.insert(i, r)
	m.allocated = m.allocated.Add(r.Limit)
	m.usageTotal = m.usageTotal.Add(r.Usage)
}

// Remove detaches the resident with the given priority and key from a
// machine and returns it. Removing a non-resident instance panics.
func (c *Cell) Remove(id trace.MachineID, priority int, key trace.InstanceKey) *Resident {
	m := c.Machine(id)
	if m == nil {
		panic(fmt.Sprintf("cluster: removing from unknown machine %d", id))
	}
	i, ok := m.search(victimKey{priority: priority, key: key})
	if !ok {
		panic(fmt.Sprintf("cluster: instance %s not on machine %d", key, id))
	}
	r := m.residents[i]
	m.removeAt(i)
	m.allocated = m.allocated.Sub(r.Limit)
	m.usageTotal = m.usageTotal.Sub(r.Usage)
	m.clampAggregates()
	return r
}

// UpdateLimit changes the limit of the resident with the given priority
// and key in place, keeping the machine's allocation aggregate
// consistent. Used by Autopilot's vertical scaling.
func (c *Cell) UpdateLimit(id trace.MachineID, priority int, key trace.InstanceKey, limit trace.Resources) {
	m := c.Machine(id)
	if m == nil {
		panic(fmt.Sprintf("cluster: updating on unknown machine %d", id))
	}
	r := m.Resident(priority, key)
	if r == nil {
		panic(fmt.Sprintf("cluster: instance %s not on machine %d", key, id))
	}
	m.allocated = m.allocated.Sub(r.Limit).Add(limit)
	// Limit changes alter fit and score but not the victim order, which
	// sorts by priority and key, so the resident keeps its position.
	r.Limit = limit
}

// BuildCell creates a cell of n machines drawn from the shape catalog
// with the catalog's weights, using src for shape selection, and
// overcommitted under oc.
func BuildCell(name string, n int, shapes []Shape, oc OvercommitPolicy, src *rng.Source) *Cell {
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
	c := NewCell(name, oc)
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
