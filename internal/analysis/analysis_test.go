package analysis

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// Tests of the shared pieces on synthetic data. The per-cell analyses are
// tested through the streaming reducer that computes them, in
// reducer_test.go.

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
	ccdf := UsageCCDF([]float64{0.001, 0.01, 1, 10, 100})
	prev := 1.1
	for _, p := range ccdf {
		if p.P > prev {
			t.Fatal("ccdf not non-increasing")
		}
		prev = p.P
	}
	if UsageCCDF(nil) != nil {
		t.Fatal("empty ccdf")
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
