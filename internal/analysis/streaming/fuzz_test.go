package streaming

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// The trace directory's files: meta first, then the four CSV tables in
// ReadDir's read order.
var traceFiles = []string{"meta.json", "collection_events.csv", "instance_events.csv", "instance_usage.csv", "machine_events.csv"}

// fuzzSeedTrace is a small cell: two machines, an autoscaled job and a
// manual one, with usage rows whose CPU limit or peak is hostile (+Inf
// limit, −Inf or NaN peak), so slack samples come out NaN and +Inf.
func fuzzSeedTrace() *trace.MemTrace {
	tr := trace.NewMemTrace(trace.Meta{Era: trace.Era2019, Cell: "a", Duration: 4 * sim.Hour, Machines: 2, Seed: 1})
	one := trace.Resources{CPU: 1, Mem: 1}
	tr.MachineEvent(trace.MachineEvent{Machine: 1, Type: trace.MachineAdd, Capacity: one, Platform: "P0"})
	tr.MachineEvent(trace.MachineEvent{Machine: 2, Type: trace.MachineAdd, Capacity: one, Platform: "P1"})
	req := trace.Resources{CPU: 0.1, Mem: 0.1}
	var usage []trace.UsageRecord
	for c, scaling := range []trace.VerticalScaling{trace.ScalingFull, trace.ScalingNone} {
		id := trace.CollectionID(10 + c)
		coll := trace.CollectionEvent{Collection: id, CollectionAttrs: trace.CollectionAttrs{
			CollectionType: trace.CollectionJob, Priority: 200, Tier: trace.TierProduction, User: "u1", Scaling: scaling}}
		for _, typ := range []trace.EventType{trace.EventSubmit, trace.EventEnable} {
			coll.Type = typ
			tr.CollectionEvent(coll)
		}
		for i := range int32(2) {
			key := trace.InstanceKey{Collection: id, Index: i}
			tr.InstanceEvent(trace.InstanceEvent{Time: sim.Second, Key: key, Type: trace.EventSubmit, Tier: trace.TierProduction, Request: req})
			tr.InstanceEvent(trace.InstanceEvent{Time: sim.Minute, Key: key, Type: trace.EventSchedule, Machine: 1, Tier: trace.TierProduction, Request: req})
			for _, peak := range []trace.Resources{{CPU: 0.05, Mem: 0.05}, {CPU: math.Inf(-1), Mem: 0.05}, {CPU: math.NaN(), Mem: 0.05}} {
				usage = append(usage, trace.UsageRecord{Start: sim.Hour, End: sim.Hour + sim.SampleWindow, Key: key,
					Machine: 1, Tier: trace.TierProduction, AvgUsage: trace.Resources{CPU: 0.02, Mem: 0.02},
					MaxUsage: peak, Limit: req})
			}
			usage = append(usage, trace.UsageRecord{Start: 2 * sim.Hour, End: 2*sim.Hour + sim.SampleWindow, Key: key,
				Machine: 2, Tier: trace.TierProduction, MaxUsage: trace.Resources{CPU: 0.05, Mem: 0.05},
				Limit: trace.Resources{CPU: math.Inf(1), Mem: 0.1}})
		}
		coll.Type, coll.Time = trace.EventFinish, 3*sim.Hour
		tr.CollectionEvent(coll)
	}
	tr.UsageBatch(usage)
	return tr
}

// FuzzReplay writes arbitrary bytes as the four CSV tables beside a valid
// meta.json, as FuzzReadDir does. Every directory trace.ReadDir accepts
// is replayed through Replay, every product is read, and Figure 14's
// quantiles are computed from the slack chunks: none of it may panic or
// hang, and the quantiles must match QuantileInPlace on the concatenated
// samples (up to the sign of a zero), NaN and infinite slack included.
func FuzzReplay(f *testing.F) {
	seed := f.TempDir()
	if err := tracetest.WriteDir(fuzzSeedTrace(), seed); err != nil {
		f.Fatal(err)
	}
	files := make([][]byte, len(traceFiles))
	for i, name := range traceFiles {
		var err error
		if files[i], err = os.ReadFile(filepath.Join(seed, name)); err != nil {
			f.Fatal(err)
		}
	}
	meta := files[0]
	f.Add(files[1], files[2], files[3], files[4])
	f.Add([]byte{}, []byte{}, []byte{}, []byte{})

	qs := []float64{0.25, 0.5, 0.75}
	f.Fuzz(func(t *testing.T, coll, inst, usage, mach []byte) {
		dir := t.TempDir()
		for i, b := range [][]byte{meta, coll, inst, usage, mach} {
			if err := os.WriteFile(filepath.Join(dir, traceFiles[i]), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		tr, err := trace.ReadDir(dir)
		if err != nil {
			return
		}
		r := Replay(tr)
		_ = products(r)
		for mode := range trace.VerticalScaling(numScalingModes) {
			parts := r.SlackSamples(mode)
			got := stats.QuantilesOfParts(parts, qs...)
			all := slices.Concat(parts...)
			for i, q := range qs {
				want := stats.QuantileInPlace(all, q)
				if math.Float64bits(got[i]) != math.Float64bits(want) && !(got[i] == 0 && want == 0) {
					t.Fatalf("%v slack q=%v: %v from chunks, %v from the concatenation", mode, q, got[i], want)
				}
			}
		}
	})
}
