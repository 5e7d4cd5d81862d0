package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestSuiteDeterministicAcrossParallelism is the engine's acceptance
// gate: the small-scale suite at parallelism 8 must produce the same
// trace rows and the same report bytes as at parallelism 1.
func TestSuiteDeterministicAcrossParallelism(t *testing.T) {
	sc := SmallScale()
	sc.Parallelism = 1
	serial := RunSuite(sc)
	sc.Parallelism = 8
	parallel := RunSuite(sc)

	check := func(cell string, a, b *trace.MemTrace) {
		t.Helper()
		if !reflect.DeepEqual(a.CollectionEvents, b.CollectionEvents) {
			t.Fatalf("cell %s: collection event streams differ", cell)
		}
		if !reflect.DeepEqual(a.InstanceEvents, b.InstanceEvents) {
			t.Fatalf("cell %s: instance event streams differ", cell)
		}
		if !reflect.DeepEqual(a.UsageRecords, b.UsageRecords) {
			t.Fatalf("cell %s: usage record streams differ", cell)
		}
		if !reflect.DeepEqual(a.MachineEvents, b.MachineEvents) {
			t.Fatalf("cell %s: machine event streams differ", cell)
		}
	}
	for i, tr := range traces(serial) {
		check(tr.Meta.Cell, tr, parallel.Stats[i].Trace)
	}

	var serialReport, parallelReport bytes.Buffer
	if err := serial.WriteReport(&serialReport); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteReport(&parallelReport); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialReport.Bytes(), parallelReport.Bytes()) {
		t.Fatal("WriteReport bytes differ between parallelism 1 and 8")
	}
	if serialReport.Len() == 0 {
		t.Fatal("empty report")
	}
}

// TestSuiteDeterministicPerPolicy runs the parallelism gate once per
// registered placement policy at a tiny scale: every brain in the zoo
// must keep the byte-identical determinism contract — identical event
// streams at parallelism 1 and 8 — not just the era defaults.
func TestSuiteDeterministicPerPolicy(t *testing.T) {
	for _, p := range scheduler.Policies() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			sc := Scale{Name: "tiny", Machines2011: 40, Machines2019: 30,
				Horizon: 3 * sim.Hour, Warmup: sim.Hour, Seed: 11}
			sc.Policy = p.String()
			sc.Parallelism = 1
			serial := RunSuite(sc)
			sc.Parallelism = 8
			parallel := RunSuite(sc)

			check := func(cell string, a, b *trace.MemTrace) {
				t.Helper()
				if !reflect.DeepEqual(a.CollectionEvents, b.CollectionEvents) ||
					!reflect.DeepEqual(a.InstanceEvents, b.InstanceEvents) ||
					!reflect.DeepEqual(a.UsageRecords, b.UsageRecords) ||
					!reflect.DeepEqual(a.MachineEvents, b.MachineEvents) {
					t.Fatalf("cell %s: event streams differ between parallelism 1 and 8", cell)
				}
			}
			for i, tr := range traces(serial) {
				check(tr.Meta.Cell, tr, parallel.Stats[i].Trace)
			}
			if serial.Stats[1].Sched.TasksPlaced == 0 {
				t.Fatalf("policy %v: degenerate run, no tasks placed", p)
			}
		})
	}
}
