package experiments

import (
	"bytes"
	"testing"

	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trace/tracetest"
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

	for i, tr := range serial.Traces {
		if d := tracetest.Diff(tr, parallel.Traces[i]); d != "" {
			t.Fatalf("cell %s: %s", tr.Meta.Cell, d)
		}
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
	for _, name := range scheduler.PolicyNames() {
		t.Run(name, func(t *testing.T) {
			sc := Scale{Name: "tiny", Machines2011: 40, Machines2019: 30,
				Horizon: 3 * sim.Hour, Warmup: sim.Hour, Seed: 11}
			sc.Policy = name
			sc.Parallelism = 1
			serial := RunSuite(sc)
			sc.Parallelism = 8
			parallel := RunSuite(sc)

			for i, tr := range serial.Traces {
				if d := tracetest.Diff(tr, parallel.Traces[i]); d != "" {
					t.Fatalf("cell %s: %s between parallelism 1 and 8", tr.Meta.Cell, d)
				}
			}
			if serial.Stats[1].Sched.TasksPlaced == 0 {
				t.Fatalf("policy %v: degenerate run, no tasks placed", name)
			}
		})
	}
}
