package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace/tracetest"
	"repro/internal/workload"
)

// TestRunOutputPinned writes a small simulated cell to disk and pins the
// SHA-256 of borganalyze's output on it. The hash was taken from the
// output of the former post-hoc analysis over the same trace, so it also
// checks that replaying a stored trace through the streaming reducer
// gives the same figures.
func TestRunOutputPinned(t *testing.T) {
	const (
		wantHash  = "78c204a0d250243f54cdc89db65b39b5020efa9877d2b26ac1b3dddc65aef624"
		wantBytes = 3206
	)
	dir := t.TempDir()
	tr := core.Run(workload.Profile2019("b", 40), core.Options{Horizon: 6 * sim.Hour, Seed: 7}).Trace
	if err := tracetest.WriteDir(tr, dir); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := run(&b, dir, 2*sim.Hour); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); got != wantHash || b.Len() != wantBytes {
		t.Fatalf("output moved: sha256 %s (%d bytes), want %s (%d bytes)\n%s",
			got, b.Len(), wantHash, wantBytes, b.String())
	}
}

func TestRunMissingDir(t *testing.T) {
	if err := run(&bytes.Buffer{}, t.TempDir()+"/absent", 0); err == nil {
		t.Fatal("run accepted a missing trace directory")
	}
}
