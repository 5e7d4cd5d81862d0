package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// streamScale is small enough for CI but large enough that every figure
// has non-trivial content in all nine cells.
func streamScale() Scale {
	return Scale{Name: "stream-diff", Machines2011: 60, Machines2019: 50,
		Horizon: 6 * sim.Hour, Warmup: 2 * sim.Hour, Seed: 3}
}

// TestStreamingReportMatchesRetained: the nine-cell suite run that keeps
// no rows must produce a report byte-identical to the run that also
// retains every trace — retention is a sink beside the reducers and must
// not change what they see. TestReportGoldenHash pins both against the
// former post-hoc analysis.
func TestStreamingReportMatchesRetained(t *testing.T) {
	sc := streamScale()
	retained := tinySuiteAt(t, sc)

	streamed, err := RunSuiteStreaming(sc, StreamingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Traces != nil {
		t.Fatal("RunSuiteStreaming kept traces")
	}
	for i, res := range streamed.Stats {
		if res.Rows.Total() == 0 {
			t.Fatalf("cell %d emitted no rows", i)
		}
	}

	var retainedReport, streamedReport bytes.Buffer
	if err := retained.WriteReport(&retainedReport); err != nil {
		t.Fatal(err)
	}
	if err := streamed.WriteReport(&streamedReport); err != nil {
		t.Fatal(err)
	}
	if retainedReport.Len() == 0 {
		t.Fatal("empty report")
	}
	if !bytes.Equal(retainedReport.Bytes(), streamedReport.Bytes()) {
		t.Fatalf("streaming report diverges from retained report\nfirst difference near byte %d",
			firstDiff(retainedReport.Bytes(), streamedReport.Bytes()))
	}
}

// TestStreamingReportDeterministicAcrossParallelism extends the engine's
// determinism contract to the reducer path: parallel reduction must not
// change a byte.
func TestStreamingReportDeterministicAcrossParallelism(t *testing.T) {
	sc := streamScale()
	sc.Parallelism = 1
	serial, err := RunSuiteStreaming(sc, StreamingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc.Parallelism = 8
	parallel, err := RunSuiteStreaming(sc, StreamingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := serial.WriteReport(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("streaming report bytes differ between parallelism 1 and 8")
	}
}

// TestStreamingExportShards drives the trace/io.go codecs through the
// sink pipeline: a streaming run exports per-cell CSV shards while
// simulating, and each shard must read back exactly the rows a retained
// run produced — including the tail rows still buffered when the
// simulation ends, which only the shard's Close delivers.
func TestStreamingExportShards(t *testing.T) {
	sc := streamScale()
	dir := t.TempDir()
	if _, err := RunSuiteStreaming(sc, StreamingOptions{ExportDir: dir}); err != nil {
		t.Fatal(err)
	}
	retained := tinySuiteAt(t, sc)
	for i, want := range retained.Traces {
		shard := filepath.Join(dir, ShardDirName(i, want.Meta.Cell))
		got, err := trace.ReadDir(shard)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if got.Meta != want.Meta {
			t.Fatalf("shard %d meta %+v != %+v", i, got.Meta, want.Meta)
		}
		if d := tracetest.Diff(got, want); d != "" {
			t.Fatalf("shard %d: %s (a usage tail lost to a missing Close?)", i, d)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 9 {
		t.Fatalf("expected 9 shards, found %d", len(entries))
	}
}

// tinySuiteAt caches retained suites per scale so the three tests above
// share one simulation of each configuration. Scale is not comparable
// (it carries a Replay slice), so the cache keys on its printed form.
var retainedCache = map[string]*Suite{}

func tinySuiteAt(t *testing.T, sc Scale) *Suite {
	t.Helper()
	key := fmt.Sprintf("%+v", sc)
	if s, ok := retainedCache[key]; ok {
		return s
	}
	s := RunSuite(sc)
	retainedCache[key] = s
	return s
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
