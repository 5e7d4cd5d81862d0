package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
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
	p := workload.Profile2019("b", 40)
	opts := core.Options{Horizon: 6 * sim.Hour, Seed: 7}
	ds, err := trace.NewDirSink(dir, core.TraceMeta(p, opts))
	if err != nil {
		t.Fatal(err)
	}
	opts.ExtraSinks = []trace.Sink{ds}
	core.Run(p, opts)
	if err := ds.Close(); err != nil {
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

// TestAnalyzeRejectsBadWarmup: a -warmup-hours that is negative, not a
// number, infinite or not before the trace's end is an error naming the
// flag, not a panic and not a silent zero.
func TestAnalyzeRejectsBadWarmup(t *testing.T) {
	dir := t.TempDir()
	p := workload.Profile2019("b", 10)
	opts := core.Options{Horizon: 2 * sim.Hour, Seed: 7}
	ds, err := trace.NewDirSink(dir, core.TraceMeta(p, opts))
	if err != nil {
		t.Fatal(err)
	}
	opts.ExtraSinks = []trace.Sink{ds}
	core.Run(p, opts)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	for _, hours := range []float64{-3, math.NaN(), math.Inf(1), math.Inf(-1), 1e6, 1e20, 2} {
		var b bytes.Buffer
		err := analyze(&b, dir, hours)
		if err == nil || !strings.Contains(err.Error(), "-warmup-hours") {
			t.Errorf("-warmup-hours %g: error %v, want one naming the flag", hours, err)
		}
		if b.Len() != 0 {
			t.Errorf("-warmup-hours %g: printed %d bytes before rejecting it", hours, b.Len())
		}
	}
	for _, hours := range []float64{0, 1.5} {
		if err := analyze(&bytes.Buffer{}, dir, hours); err != nil {
			t.Errorf("-warmup-hours %g: %v", hours, err)
		}
	}
}
