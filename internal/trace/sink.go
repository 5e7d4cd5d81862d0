package trace

// This file is the streaming half of the trace package: composable Sink
// implementations that let a simulation emit rows into a pipeline —
// fan-out and online reduction — instead of (or in addition to)
// retaining a full MemTrace. The engine package wires these per cell;
// full in-memory retention is one sink among several, not a structural
// assumption.

// RowCounts tallies rows per trace table.
type RowCounts struct {
	Collections int64
	Instances   int64
	Usage       int64
	Machines    int64
}

// Total sums all tables.
func (c RowCounts) Total() int64 {
	return c.Collections + c.Instances + c.Usage + c.Machines
}

// Add returns the element-wise sum of two counts.
func (c RowCounts) Add(o RowCounts) RowCounts {
	return RowCounts{
		Collections: c.Collections + o.Collections,
		Instances:   c.Instances + o.Instances,
		Usage:       c.Usage + o.Usage,
		Machines:    c.Machines + o.Machines,
	}
}

// CountingSink is the simplest online reducer: it tallies rows per table
// as they stream past, so a run with MemTrace retention disabled still
// reports how much trace it generated.
type CountingSink struct {
	counts RowCounts
}

// CollectionEvent counts the row.
func (c *CountingSink) CollectionEvent(CollectionEvent) { c.counts.Collections++ }

// InstanceEvent counts the row.
func (c *CountingSink) InstanceEvent(InstanceEvent) { c.counts.Instances++ }

// UsageBatch counts the whole block at once.
func (c *CountingSink) UsageBatch(recs []UsageRecord) { c.counts.Usage += int64(len(recs)) }

// MachineEvent counts the row.
func (c *CountingSink) MachineEvent(MachineEvent) { c.counts.Machines++ }

// Counts returns the tallies so far.
func (c *CountingSink) Counts() RowCounts { return c.counts }
