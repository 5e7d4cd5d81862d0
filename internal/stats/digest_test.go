package stats

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// digestVsExact feeds xs to a digest and compares its quantiles against
// the exact sample quantiles, requiring |rank error| <= rankTol (i.e. the
// digest's q-quantile must sit between the exact (q-rankTol)- and
// (q+rankTol)-quantiles of the sample).
func digestVsExact(t *testing.T, name string, xs []float64, rankTol float64) {
	t.Helper()
	d := NewDigest(DefaultCompression)
	for _, x := range xs {
		d.Add(x)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		got := d.Quantile(q)
		lo := quantileSorted(s, math.Max(0, q-rankTol))
		hi := quantileSorted(s, math.Min(1, q+rankTol))
		if got < lo || got > hi {
			t.Errorf("%s: q=%g digest %g outside exact rank band [%g, %g]", name, q, got, lo, hi)
		}
	}
	if d.Min() != s[0] || d.Max() != s[len(s)-1] {
		t.Errorf("%s: min/max %g/%g, want exact %g/%g", name, d.Min(), d.Max(), s[0], s[len(s)-1])
	}
	if d.Count() != int64(len(xs)) {
		t.Errorf("%s: count %d, want %d", name, d.Count(), len(xs))
	}
}

func TestDigestKnownDistributions(t *testing.T) {
	src := rng.New(42)
	const n = 200000
	uniform := make([]float64, n)
	normal := make([]float64, n)
	lognormal := make([]float64, n)
	exponential := make([]float64, n)
	for i := 0; i < n; i++ {
		uniform[i] = src.Float64()
		normal[i] = src.NormFloat64()
		lognormal[i] = math.Exp(0.5 * src.NormFloat64())
		exponential[i] = -math.Log(src.Float64Open())
	}
	digestVsExact(t, "uniform", uniform, 0.01)
	digestVsExact(t, "normal", normal, 0.01)
	digestVsExact(t, "lognormal", lognormal, 0.01)
	digestVsExact(t, "exponential", exponential, 0.01)
}

func TestDigestSmallSamplesNearExact(t *testing.T) {
	// Below the compression limit every point is its own centroid, so
	// quantiles interpolate the raw sample: tiny fleets get honest
	// percentiles, not sketch noise.
	xs := []float64{5, 1, 4, 2, 3}
	d := NewDigest(DefaultCompression)
	for _, x := range xs {
		d.Add(x)
	}
	if got := d.Quantile(0.5); got != 3 {
		t.Errorf("median of 1..5 = %g, want 3", got)
	}
	if got := d.Quantile(0); got != 1 {
		t.Errorf("q0 = %g, want 1", got)
	}
	if got := d.Quantile(1); got != 5 {
		t.Errorf("q1 = %g, want 5", got)
	}
}

func TestDigestMergeMatchesWhole(t *testing.T) {
	src := rng.New(7)
	const n = 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Exp(0.4 * src.NormFloat64())
	}
	shards := make([]*Digest, 8)
	for i := range shards {
		shards[i] = NewDigest(DefaultCompression)
	}
	for i, x := range xs {
		shards[i%len(shards)].Add(x)
	}
	merged := NewDigest(DefaultCompression)
	for _, sh := range shards {
		merged.Merge(sh)
	}
	if merged.Count() != n {
		t.Fatalf("merged count %d, want %d", merged.Count(), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		got := merged.Quantile(q)
		lo := quantileSorted(s, math.Max(0, q-0.02))
		hi := quantileSorted(s, math.Min(1, q+0.02))
		if got < lo || got > hi {
			t.Errorf("merged q=%g: %g outside [%g, %g]", q, got, lo, hi)
		}
	}
}

func TestDigestDeterministic(t *testing.T) {
	build := func() *Digest {
		src := rng.New(3)
		d := NewDigest(50)
		for i := 0; i < 50000; i++ {
			d.Add(src.NormFloat64())
		}
		return d
	}
	a, b := build(), build()
	for _, q := range []float64{0, 0.1, 0.5, 0.77, 0.99, 1} {
		if qa, qb := a.Quantile(q), b.Quantile(q); qa != qb {
			t.Fatalf("q=%g: %v != %v — digest is not deterministic", q, qa, qb)
		}
	}
}

func TestDigestBoundedSize(t *testing.T) {
	src := rng.New(11)
	d := NewDigest(DefaultCompression)
	for i := 0; i < 1_000_000; i++ {
		d.Add(src.Float64())
	}
	// The k1 scale function retains ~2δ centroids in the worst case.
	if got, limit := centroids(d), 2*int(DefaultCompression); got > limit {
		t.Fatalf("digest retained %d centroids over %d-point stream, want <= %d", got, 1_000_000, limit)
	}
}

func TestDigestEmptyAndEdge(t *testing.T) {
	d := NewDigest(DefaultCompression)
	if !math.IsNaN(d.Quantile(0.5)) || !math.IsNaN(d.Min()) || !math.IsNaN(d.Max()) {
		t.Error("empty digest must report NaN quantiles and extremes")
	}
	if d.Count() != 0 {
		t.Error("empty digest count != 0")
	}
	d.Merge(NewDigest(DefaultCompression)) // merging empty is a no-op
	if d.Count() != 0 {
		t.Error("merge of empty digests changed count")
	}
	d.Add(2.5)
	for _, q := range []float64{0, 0.5, 1} {
		if got := d.Quantile(q); got != 2.5 {
			t.Errorf("single-point digest q=%g = %g, want 2.5", q, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Add(NaN) must panic")
		}
	}()
	d.Add(math.NaN())
}

// centroids returns the number of centroids d retains after
// compression: the digest's memory footprint in O(1) units.
func centroids(d *Digest) int {
	d.compress()
	return len(d.centroids)
}
