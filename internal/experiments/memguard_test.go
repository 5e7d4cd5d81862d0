package experiments

import (
	"io"
	"os"
	"strconv"
	"testing"

	"repro/internal/metrics"
)

// defaultMemBudgetMB is the peak-HeapAlloc ceiling for the LargeScale
// streaming suite. Measured on a 2-core x86-64 VM: 312 MB streaming at
// GOMAXPROCS=2 and 417–617 MB over two runs at GOMAXPROCS=4 (more
// concurrent cells means more transient simulation state, and the peak
// depends on where collections fall). With retained traces the peak is
// at least 3104 MB, measured under GOMEMLIMIT=3500MiB: 2.5 GB of the 31M
// stored rows alone, now that MemTrace stores each row once. So the
// budget sits ~2× above the 4-core streaming peak and ~2.4× below the
// trace-retention failure mode it exists to catch.
const defaultMemBudgetMB = 1280

// TestLargeScaleStreamingMemoryCeiling is CI's memory-regression gate:
// the LargeScale nine-cell streaming suite must complete inside a
// fixed heap budget, so a change that quietly reintroduces trace
// retention (or unbounded reducer state) cannot land. The run takes tens
// of seconds, so it only executes when STREAM_MEM_GUARD=1 is set (the CI
// workflow sets it; locally: STREAM_MEM_GUARD=1 go test ./internal/experiments -run MemoryCeiling).
func TestLargeScaleStreamingMemoryCeiling(t *testing.T) {
	if os.Getenv("STREAM_MEM_GUARD") != "1" {
		t.Skip("set STREAM_MEM_GUARD=1 to run the memory-ceiling guard")
	}
	budgetMB := defaultMemBudgetMB
	if s := os.Getenv("STREAM_MEM_BUDGET_MB"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad STREAM_MEM_BUDGET_MB %q: %v", s, err)
		}
		budgetMB = v
	}

	var reportErr error
	peak := metrics.PeakHeapDuring(func() {
		suite, err := RunSuiteStreaming(LargeScale(), StreamingOptions{})
		if err != nil {
			reportErr = err
			return
		}
		reportErr = suite.WriteReport(io.Discard)
	})
	if reportErr != nil {
		t.Fatal(reportErr)
	}
	peakMB := float64(peak) / 1e6
	t.Logf("LargeScale streaming suite peak HeapAlloc: %.1f MB (budget %d MB)", peakMB, budgetMB)
	if peakMB > float64(budgetMB) {
		t.Fatalf("peak HeapAlloc %.1f MB exceeds the %d MB streaming budget — did trace retention creep back in?",
			peakMB, budgetMB)
	}
}
