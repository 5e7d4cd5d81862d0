package core

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tableHashes is a sink that hashes every row of each of the four
// tables, in the order the rows arrive.
type tableHashes [4]hash.Hash

func newTableHashes() *tableHashes {
	return &tableHashes{sha256.New(), sha256.New(), sha256.New(), sha256.New()}
}

func (h *tableHashes) CollectionEvent(e trace.CollectionEvent) { fmt.Fprintf(h[0], "%v\n", e) }
func (h *tableHashes) InstanceEvent(e trace.InstanceEvent)     { fmt.Fprintf(h[1], "%v\n", e) }
func (h *tableHashes) MachineEvent(e trace.MachineEvent)       { fmt.Fprintf(h[3], "%v\n", e) }
func (h *tableHashes) UsageBatch(recs []trace.UsageRecord) {
	for _, r := range recs {
		fmt.Fprintf(h[2], "%v\n", r)
	}
}

// sums returns the four tables' hashes: collection, instance, usage and
// machine events.
func (h *tableHashes) sums() [4]string {
	var s [4]string
	for i := range h {
		s[i] = fmt.Sprintf("%x", h[i].Sum(nil))
	}
	return s
}

// TestArenaReuseKeepsRows runs one cell on a fresh arena, then again on
// an arena that has already run the 2011 cell and a 2019 cell of
// another size. Those leave every slice the arena carries at a length
// and capacity the cell would not have grown on its own: more machines'
// slots and partial-usage entries than it has, other priorities' queue
// levels, other size classes of task arrays. Their horizons end inside
// a sampling window, so they also end with partial usage recorded.
// Every table's rows must hash the same both times: an arena hands a
// cell capacity, never state.
func TestArenaReuseKeepsRows(t *testing.T) {
	p := workload.Profile2019("a", 60)
	run := func(a *Arena) [4]string {
		h := newTableHashes()
		a.Run(p, Options{Horizon: 8 * sim.Hour, Seed: 3, ExtraSinks: []trace.Sink{h}})
		return h.sums()
	}
	fresh := run(new(Arena))

	var a Arena
	cut := 6*sim.Hour + sim.SampleWindow/2
	a.Run(workload.Profile2011(90), Options{Horizon: cut, Seed: 11})
	a.Run(workload.Profile2019("d", 40), Options{Horizon: cut, Seed: 12})
	if cap(a.specs) == 0 || cap(a.usage.recBuf) == 0 || len(a.usage.partialCPU) <= 60 {
		t.Fatalf("the earlier cells left the arena nothing to reuse: %d specs, %d records, %d partial entries",
			cap(a.specs), cap(a.usage.recBuf), len(a.usage.partialCPU))
	}
	reused := run(&a)
	for i, table := range [...]string{"collection", "instance", "usage", "machine"} {
		if reused[i] != fresh[i] {
			t.Errorf("%s events on a reused arena hash %s, on a fresh one %s", table, reused[i], fresh[i])
		}
	}
}
