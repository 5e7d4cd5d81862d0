package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"repro/internal/scheduler"
	"repro/internal/sim"
)

// swapFiles exchanges the contents of two files.
func swapFiles(a, b string) error {
	ca, err := os.ReadFile(a)
	if err != nil {
		return err
	}
	cb, err := os.ReadFile(b)
	if err != nil {
		return err
	}
	if err := os.WriteFile(a, cb, 0o644); err != nil {
		return err
	}
	return os.WriteFile(b, ca, 0o644)
}

// pinScale is the frozen configuration behind TestReportGoldenHash.
func pinScale() Scale {
	return Scale{Name: "pin", Machines2011: 60, Machines2019: 50,
		Horizon: 4 * sim.Hour, Warmup: 1 * sim.Hour, Seed: 7, Parallelism: 4}
}

// TestReportGoldenHash pins the whole pipeline's bytes: the nine-cell
// suite report at a fixed scale and seed hashes to a frozen value. Any
// change to the default workload path (arrival processes, rng draw
// order, generator structure) that moves even one byte fails here —
// this is the "poisson stays byte-identical" acceptance gate for the
// arrival-process API. If a change intends a versioned trace change, it
// must update these hashes explicitly and say so.
//
// Both hashes were taken from reports computed by the former post-hoc
// analysis over retained traces, so they also pin the reducers to that
// reference. The stream row keeps no rows.
func TestReportGoldenHash(t *testing.T) {
	for _, tc := range []struct {
		name      string
		run       func() (*Suite, error)
		wantHash  string
		wantBytes int
	}{
		{"pin", func() (*Suite, error) { return RunSuite(pinScale()), nil },
			"b2a0d67f4019849a1c63841508fdec5fa1ce29fe72cb55c694ce93b46159d5f6", 14057},
		{"stream", func() (*Suite, error) { return RunSuiteStreaming(streamScale(), StreamingOptions{}) },
			"1321f6e977bbe8f39b528296f253a5ca2c2e2cc003ce874dd24897ede487d33d", 15248},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			if err := s.WriteReport(&b); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); got != tc.wantHash || b.Len() != tc.wantBytes {
				t.Fatalf("pinned report moved: sha256 %s (%d bytes), want %s (%d bytes)",
					got, b.Len(), tc.wantHash, tc.wantBytes)
			}
		})
	}
}

func replayScale() Scale {
	return Scale{Name: "replay", Machines2011: 40, Machines2019: 30,
		Horizon: 3 * sim.Hour, Warmup: 1 * sim.Hour, Seed: 5}
}

// TestSuiteRecordReplayRoundTrip pins the suite-level record/replay
// contract: workloads recorded by one run save to disk, load back, and
// replay to the recording run's exact report — at parallelism 1 and 8
// alike — while a policy change under the same replayed workloads moves
// the report.
func TestSuiteRecordReplayRoundTrip(t *testing.T) {
	report := func(sc Scale) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := RunSuite(sc).WriteReport(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	rec := replayScale()
	rec.RecordWorkload = true
	suite := RunSuite(rec)
	dir := t.TempDir()
	if err := SaveWorkloads(dir, suite.Stats); err != nil {
		t.Fatal(err)
	}
	var recReport bytes.Buffer
	if err := suite.WriteReport(&recReport); err != nil {
		t.Fatal(err)
	}

	base := replayScale()
	recs, err := LoadWorkloads(dir, base)
	if err != nil {
		t.Fatal(err)
	}
	base.Replay = recs

	p1 := base
	p1.Parallelism = 1
	r1 := report(p1)
	p8 := base
	p8.Parallelism = 8
	r8 := report(p8)
	if !bytes.Equal(r1, r8) {
		t.Fatalf("replay reports differ between parallelism 1 and 8 (first diff at byte %d)", firstDiff(r1, r8))
	}
	if !bytes.Equal(r1, recReport.Bytes()) {
		t.Fatalf("replay report differs from the recording run's report (first diff at byte %d)",
			firstDiff(r1, recReport.Bytes()))
	}

	alt := base
	bestFit := scheduler.BestFit
	alt.Policy = &bestFit
	if bytes.Equal(report(alt), r1) {
		t.Fatal("best-fit under replayed workloads produced the baseline report — policy inert under replay")
	}
}

// TestLoadWorkloadsRejectsCellMismatch: loading a directory recorded for
// different cells must fail loudly, not replay the wrong workload.
func TestLoadWorkloadsRejectsCellMismatch(t *testing.T) {
	sc := replayScale()
	sc.RecordWorkload = true
	suite := RunSuite(sc)
	dir := t.TempDir()
	if err := SaveWorkloads(dir, suite.Stats); err != nil {
		t.Fatal(err)
	}
	// Swap two cells' files: names still line up with the suite order,
	// but the recorded Meta.Cell inside no longer matches.
	a := dir + "/" + WorkloadFileName(1, "a")
	b := dir + "/" + WorkloadFileName(2, "b")
	if err := swapFiles(a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadWorkloads(dir, replayScale()); err == nil {
		t.Fatal("LoadWorkloads accepted a directory with mismatched cell recordings")
	}
}
