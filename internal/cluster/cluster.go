// Package cluster models the physical substrate of a Borg cell: the
// machine shape catalogues (Figure 1, Table 1), each machine's capacity,
// platform and allocation ceiling under the cell's overcommit policy
// (Figure 4), and the ID-indexed machine table. The tasks a machine
// holds, and the allocation and usage sums over them, are the
// scheduler's: it places them, evicts them and keeps the sums.
package cluster

import (
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

// Machine is one node of the cell: its shape and its allocation
// ceiling. The overcommit ceiling is fixed when the machine is added
// (capacity never changes afterwards), so the placement fast path reads
// it in O(1). What runs on a machine, and the allocation and usage sums
// over it, belong to the scheduler, which places the tasks.
type Machine struct {
	ID       trace.MachineID
	Capacity trace.Resources
	Platform string

	// ceil is the allocation ceiling under the cell's overcommit policy,
	// computed once by AddMachine.
	ceil trace.Resources
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

// FitsLimit reports whether a request fits on m beside the allocated
// limits already there, under the cell's overcommit policy.
func (m *Machine) FitsLimit(allocated, request trace.Resources) bool {
	after := allocated.Add(request)
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
