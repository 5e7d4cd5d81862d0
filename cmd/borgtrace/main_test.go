package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace/tracetest"
	"repro/internal/workload"
)

// TestRunMatchesRetainedWrite: the directory borgtrace streams while
// simulating equals, byte for byte in all five files, tracetest.WriteDir of
// the same cell run with its trace retained, and the validator riding
// along finds nothing.
func TestRunMatchesRetainedWrite(t *testing.T) {
	got, want := t.TempDir(), t.TempDir()
	var log bytes.Buffer
	if err := run([]string{"-era", "2019", "-cell", "b", "-machines", "40", "-hours", "3", "-seed", "7", "-out", got}, &log); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "validator: all invariants hold") {
		t.Fatalf("validator verdict missing:\n%s", log.String())
	}
	tr := core.Run(workload.Profile2019("b", 40), core.Options{Horizon: 3 * sim.Hour, Seed: 7}).Trace
	if err := tracetest.WriteDir(tr, want); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 5 {
		t.Fatalf("tracetest.WriteDir wrote %d files, want 5", len(files))
	}
	for _, f := range files {
		w, err := os.ReadFile(filepath.Join(want, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(got, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from the retained write (%d vs %d bytes)", f.Name(), len(g), len(w))
		}
	}
}

func TestRunRejectsUnknownEra(t *testing.T) {
	if err := run([]string{"-era", "2030", "-out", t.TempDir()}, &bytes.Buffer{}); err == nil {
		t.Fatal("run accepted era 2030")
	}
}
