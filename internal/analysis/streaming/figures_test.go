package streaming

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Tests of the cross-cell merges and figure statistics on synthetic
// data. The per-cell analyses are tested through the reducer's products,
// in reducer_test.go.

func TestAverageSeries(t *testing.T) {
	a := newTierSeries(2)
	b := newTierSeries(2)
	a.CPU[trace.TierFree][0] = 0.2
	b.CPU[trace.TierFree][0] = 0.4
	avg := AverageSeries([]TierSeries{a, b})
	if math.Abs(avg.CPU[trace.TierFree][0]-0.3) > 1e-12 {
		t.Fatalf("average %v", avg.CPU[trace.TierFree][0])
	}
}

// TestAverageOfSeriesNegativeWarmup: a negative warm-up, down to the
// most negative sim.Time (what a NaN flag converts to), averages like a
// warm-up of 0 instead of indexing before the series.
func TestAverageOfSeriesNegativeWarmup(t *testing.T) {
	s := newTierSeries(4)
	for i := range s.Hours {
		s.CPU[trace.TierProduction][i] = float64(i + 1)
		s.Mem[trace.TierBestEffortBatch][i] = 0.5 * float64(i)
	}
	want := averageOfSeries(s, "x", 0)
	if want.CPU[trace.TierProduction] != 2.5 {
		t.Fatalf("average with no warm-up %v, want 2.5", want.CPU[trace.TierProduction])
	}
	for _, warmup := range []sim.Time{-3 * sim.Hour, -sim.Microsecond, math.MinInt64} {
		if got := averageOfSeries(s, "x", warmup); !reflect.DeepEqual(got, want) {
			t.Errorf("warm-up %d: %+v, want %+v", warmup, got, want)
		}
	}
}

func TestUsageCCDFAndLogGrid(t *testing.T) {
	grid := LogGrid(0.001, 1000, 3)
	if len(grid) < 18 {
		t.Fatalf("grid size %d", len(grid))
	}
	for i := 1; i < len(grid); i++ {
		if grid[i] <= grid[i-1] {
			t.Fatal("grid not increasing")
		}
	}
	ccdf := stats.CCDFSampled([]float64{0.001, 0.01, 1, 10, 100}, grid)
	prev := 1.1
	for _, p := range ccdf {
		if p.P > prev {
			t.Fatal("ccdf not non-increasing")
		}
		prev = p.P
	}
	for _, p := range stats.CCDFSampled(nil, grid) {
		if !math.IsNaN(p.P) {
			t.Fatal("empty ccdf")
		}
	}
}

func TestCPUMemCorrelationSynthetic(t *testing.T) {
	// mem ≈ 0.7 × cpu: correlation of bucket medians should be ~1.
	var ints UsageIntegrals
	for i := 0; i < 5000; i++ {
		c := float64(i%50) + 0.5
		ints.CPUHours = append(ints.CPUHours, c)
		ints.MemHours = append(ints.MemHours, 0.7*c+0.1*float64(i%7))
	}
	points, r := CPUMemCorrelation(ints, 50)
	if len(points) != 50 {
		t.Fatalf("buckets %d", len(points))
	}
	if r < 0.99 {
		t.Fatalf("pearson %v", r)
	}
}

// TestMergeSamplesByPresized checks that the cell-order merge produces
// the append-order concatenation, cell by cell, and sizes every merged
// slice exactly, so Figure 11 reads the same samples with no spare
// capacity left from doubling.
func TestMergeSamplesByPresized(t *testing.T) {
	cells := []map[string][]float64{
		{"a": {1, 2}, "b": {10}},
		{},
		{"b": {11, 12, 13}, "c": {}},
		{"a": {3}, "b": {14}, "d": {20, 21}},
	}
	want := make(map[string][]float64)
	for _, c := range cells {
		for k, xs := range c {
			want[k] = append(want[k], xs...)
		}
	}
	got := make(map[string][]float64)
	for k := range want {
		got[k] = Concat(cells, func(c map[string][]float64) []float64 { return c[k] })
	}
	for k, w := range want {
		g := got[k]
		if len(g) != len(w) || cap(g) != len(g) {
			t.Fatalf("key %q: len %d cap %d, want len %d and cap == len", k, len(g), cap(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("key %q: %v, want %v", k, g, w)
			}
		}
	}
	// The output must not alias any cell's slice: its caller may reorder it.
	got["a"][0] = -1
	if cells[0]["a"][0] != 1 {
		t.Fatal("merged slice aliases a cell's samples")
	}
}
