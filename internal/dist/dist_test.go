package dist

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

func TestLogNormalMedianAndMean(t *testing.T) {
	var _ Sampler = LogNormal{}
	l := LogNormalFromMedian(0.25, 0.6)
	src := rng.New(11)
	n := 200000
	xs := make([]float64, n)
	sum := 0.0
	for i := range xs {
		xs[i] = l.Sample(src)
		sum += xs[i]
	}
	// Median of the samples should sit near the requested median.
	below := 0
	for _, x := range xs {
		if x < 0.25 {
			below++
		}
	}
	if frac := float64(below) / float64(n); frac < 0.48 || frac > 0.52 {
		t.Fatalf("median off: %.3f below", frac)
	}
	want := math.Exp(l.Mu + l.Sigma*l.Sigma/2)
	if mean := sum / float64(n); math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("mean %.4f want %.4f", mean, want)
	}
}

func TestExponentialMean(t *testing.T) {
	e := Exponential{Rate: 4}
	src := rng.New(7)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += e.Sample(src)
	}
	if mean := sum / float64(n); math.Abs(mean-0.25) > 0.01 {
		t.Fatalf("mean %v", mean)
	}
}

func TestBoundedParetoQuantileAndMean(t *testing.T) {
	b := BoundedPareto{L: 1, H: 1000, Alpha: 0.75}
	if q := b.Quantile(0); q != 1 {
		t.Fatalf("Quantile(0) = %v", q)
	}
	if q := b.Quantile(1); q != 1000 {
		t.Fatalf("Quantile(1) = %v", q)
	}
	if q := b.Quantile(0.5); q < 1 || q > 1000 {
		t.Fatalf("Quantile(0.5) = %v", q)
	}
	// Monte-Carlo mean vs analytic mean.
	src := rng.New(5)
	sum := 0.0
	n := 400000
	for i := 0; i < n; i++ {
		sum += b.Sample(src)
	}
	mean := sum / float64(n)
	if math.Abs(mean-b.Mean())/b.Mean() > 0.05 {
		t.Fatalf("mean %.3f analytic %.3f", mean, b.Mean())
	}
	// Alpha == 1 uses the log form and must stay finite.
	one := BoundedPareto{L: 1, H: 100, Alpha: 1}
	if m := one.Mean(); math.IsNaN(m) || math.IsInf(m, 0) || m <= 1 {
		t.Fatalf("alpha=1 mean %v", m)
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	c := NewCategorical([]float64{1, 0, 3})
	src := rng.New(9)
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[c.Draw(src)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight bucket drawn %d times", counts[1])
	}
	if f := float64(counts[2]) / float64(n); math.Abs(f-0.75) > 0.02 {
		t.Fatalf("bucket 2 freq %v", f)
	}
}

func TestCategoricalDegenerateWeights(t *testing.T) {
	c := NewCategorical([]float64{0, 0})
	src := rng.New(2)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		k := c.Draw(src)
		if k < 0 || k > 1 {
			t.Fatalf("draw %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) != 2 {
		t.Fatalf("uniform fallback drew %v", seen)
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(50, 1.2)
	src := rng.New(13)
	counts := make([]int, 50)
	for i := 0; i < 100000; i++ {
		counts[z.Draw(src)]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[5] {
		t.Fatalf("not skewed: %v", counts[:6])
	}
}

func TestPoissonCount(t *testing.T) {
	src := rng.New(21)
	if n := PoissonCount(src, 0); n != 0 {
		t.Fatalf("mean 0 gave %d", n)
	}
	if n := PoissonCount(src, -3); n != 0 {
		t.Fatalf("negative mean gave %d", n)
	}
	sum := 0
	n := 20000
	for i := 0; i < n; i++ {
		sum += PoissonCount(src, 6.5)
	}
	if mean := float64(sum) / float64(n); math.Abs(mean-6.5) > 0.15 {
		t.Fatalf("mean %v", mean)
	}
	// Large means go through the splitting path without underflow.
	big := PoissonCount(rng.New(4), 2000)
	if big < 1500 || big > 2500 {
		t.Fatalf("large-mean draw %d", big)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	draw := func() []float64 {
		src := rng.New(42)
		l := LogNormalFromMedian(0.1, 0.9)
		b := BoundedPareto{L: 1, H: 100, Alpha: 1.2}
		c := NewCategorical([]float64{2, 1, 1})
		z := NewZipf(10, 1.1)
		out := make([]float64, 0, 40)
		for i := 0; i < 10; i++ {
			out = append(out, l.Sample(src), b.Sample(src),
				float64(c.Draw(src)), float64(z.Draw(src)))
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestLogNormalQuantile: the samples' median and 90th percentile sit at
// the analytic quantiles exp(Mu + Sigma·z).
func TestLogNormalQuantile(t *testing.T) {
	l := LogNormalFromMedian(2.0, 0.5)
	src := rng.New(5)
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = l.Sample(src)
	}
	sort.Float64s(xs)
	for _, c := range []struct{ p, z float64 }{{0.5, 0}, {0.9, 1.2815515655446004}} {
		want := 2.0 * math.Exp(0.5*c.z)
		if got := xs[int(c.p*float64(len(xs)))]; math.Abs(got-want)/want > 0.01 {
			t.Errorf("p%g sample %v, want %v", 100*c.p, got, want)
		}
	}
}
