package trace

// This file is the streaming half of the trace package: composable Sink
// implementations that let a simulation emit rows into a pipeline —
// fan-out, batching, online reduction — instead of (or in addition to)
// retaining a full MemTrace. The engine package wires these per cell;
// full in-memory retention is one sink among several, not a structural
// assumption.

// Flusher is implemented by sinks that buffer rows and can be asked to
// drain them downstream. Flush must be idempotent.
type Flusher interface {
	Flush()
}

// UsageBatcher is an optional Sink capability: delivery of a whole block
// of usage records in one call. The usage table dominates trace volume,
// so hot emitters (the per-window sampler, BufferedSink's flush) hand
// over one slice per block instead of paying an interface dispatch per
// record.
//
// Contract: the batch is ordered — UsageBatch(recs) must be
// indistinguishable from calling Usage(recs[0]), Usage(recs[1]), … in
// sequence, so scalar and batched delivery of the same stream produce
// identical state and bytes. The callee must not retain or modify the
// slice after returning: emitters reuse the backing array for the next
// block.
type UsageBatcher interface {
	UsageBatch(recs []UsageRecord)
}

// EmitUsageBatch delivers a block of usage records to s, in one call
// when s implements UsageBatcher and record by record otherwise. Either
// way the records arrive in slice order.
func EmitUsageBatch(s Sink, recs []UsageRecord) {
	if len(recs) == 0 {
		return
	}
	if ub, ok := s.(UsageBatcher); ok {
		ub.UsageBatch(recs)
		return
	}
	for i := range recs {
		s.Usage(recs[i])
	}
}

// Flush drains s if it buffers, and recurses into fan-out sinks so an
// entire pipeline can be drained with one call at end of simulation.
func Flush(s Sink) {
	switch v := s.(type) {
	case MultiSink:
		for _, child := range v {
			Flush(child)
		}
	case Flusher:
		v.Flush()
	}
}

// FanOut composes sinks into one: nil entries are dropped and nested
// MultiSinks flattened. Zero live sinks yield a NopSink, one is returned
// unwrapped, more become a MultiSink.
func FanOut(sinks ...Sink) Sink {
	var flat MultiSink
	var add func(s Sink)
	add = func(s Sink) {
		switch v := s.(type) {
		case nil:
			return
		case MultiSink:
			for _, child := range v {
				add(child)
			}
		default:
			flat = append(flat, s)
		}
	}
	for _, s := range sinks {
		add(s)
	}
	switch len(flat) {
	case 0:
		return NopSink{}
	case 1:
		return flat[0]
	default:
		return flat
	}
}

// BufferedSink batches rows per table and forwards them to the downstream
// sink in blocks, amortizing per-row dispatch on hot paths (a cell emits
// millions of rows). Row order is preserved within each table; ordering
// across tables is not (a flushed block of usage records may overtake a
// buffered machine event), which every analysis in this repository
// tolerates because rows are timestamped. Call Flush (or trace.Flush on
// the enclosing pipeline) after the simulation to drain the tail.
type BufferedSink struct {
	out   Sink
	limit int
	// outBatcher is out's UsageBatcher capability, asserted once at
	// construction: batch-capable downstreams take usage blocks straight
	// through instead of being re-buffered (see UsageBatch).
	outBatcher UsageBatcher

	coll  []CollectionEvent
	inst  []InstanceEvent
	usage []UsageRecord
	mach  []MachineEvent
}

// DefaultBatchSize is the per-table buffer size used when NewBufferedSink
// is given a non-positive one.
const DefaultBatchSize = 1024

// NewBufferedSink wraps out with per-table batching of the given size.
func NewBufferedSink(out Sink, batch int) *BufferedSink {
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	b := &BufferedSink{out: out, limit: batch}
	b.outBatcher, _ = out.(UsageBatcher)
	return b
}

// CollectionEvent buffers the row.
func (b *BufferedSink) CollectionEvent(ev CollectionEvent) {
	b.coll = append(b.coll, ev)
	if len(b.coll) >= b.limit {
		b.flushCollections()
	}
}

// InstanceEvent buffers the row.
func (b *BufferedSink) InstanceEvent(ev InstanceEvent) {
	b.inst = append(b.inst, ev)
	if len(b.inst) >= b.limit {
		b.flushInstances()
	}
}

// Usage buffers the row.
func (b *BufferedSink) Usage(rec UsageRecord) {
	b.usage = append(b.usage, rec)
	if len(b.usage) >= b.limit {
		b.flushUsage()
	}
}

// UsageBatch buffers a whole block of usage rows, flushing once if the
// buffer reaches its limit. Records stay in delivery order, so scalar
// and batched delivery drain downstream identically. When the downstream
// itself takes blocks, re-buffering would only copy every row once more:
// any scalar stragglers are drained first to keep row order, then the
// block is handed straight through (the downstream must not retain it,
// per the UsageBatcher contract, so the emitter's reuse guarantee holds
// across the forward).
func (b *BufferedSink) UsageBatch(recs []UsageRecord) {
	if b.outBatcher != nil {
		if len(b.usage) > 0 {
			b.flushUsage()
		}
		b.outBatcher.UsageBatch(recs)
		return
	}
	b.usage = append(b.usage, recs...)
	if len(b.usage) >= b.limit {
		b.flushUsage()
	}
}

// MachineEvent buffers the row.
func (b *BufferedSink) MachineEvent(ev MachineEvent) {
	b.mach = append(b.mach, ev)
	if len(b.mach) >= b.limit {
		b.flushMachines()
	}
}

// Flush drains all four table buffers downstream, then flushes the
// downstream sink itself.
func (b *BufferedSink) Flush() {
	b.flushMachines()
	b.flushCollections()
	b.flushInstances()
	b.flushUsage()
	Flush(b.out)
}

func (b *BufferedSink) flushCollections() {
	for i := range b.coll {
		b.out.CollectionEvent(b.coll[i])
	}
	b.coll = b.coll[:0]
}

func (b *BufferedSink) flushInstances() {
	for i := range b.inst {
		b.out.InstanceEvent(b.inst[i])
	}
	b.inst = b.inst[:0]
}

func (b *BufferedSink) flushUsage() {
	EmitUsageBatch(b.out, b.usage)
	b.usage = b.usage[:0]
}

func (b *BufferedSink) flushMachines() {
	for i := range b.mach {
		b.out.MachineEvent(b.mach[i])
	}
	b.mach = b.mach[:0]
}

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

// Usage counts the row.
func (c *CountingSink) Usage(UsageRecord) { c.counts.Usage++ }

// UsageBatch counts the whole block at once.
func (c *CountingSink) UsageBatch(recs []UsageRecord) { c.counts.Usage += int64(len(recs)) }

// MachineEvent counts the row.
func (c *CountingSink) MachineEvent(MachineEvent) { c.counts.Machines++ }

// Counts returns the tallies so far.
func (c *CountingSink) Counts() RowCounts { return c.counts }
