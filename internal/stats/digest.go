package stats

import (
	"fmt"
	"math"
	"sort"
)

// Digest is a mergeable streaming quantile sketch in the style of
// Dunning's merging t-digest: observations accumulate in a small buffer
// and are periodically compressed into weighted centroids whose maximum
// weight shrinks toward the distribution's tails, so extreme quantiles
// (p99 and beyond) stay sharp while the sketch holds O(compression)
// state regardless of how many points stream through. The fleet rollup
// uses one Digest per scalar metric to compute cross-cell percentiles
// online, and reducers can adopt it later for the per-row sample vectors
// (delay, slack, tasks-per-job) that still grow with the horizon.
//
// Determinism: Add, Merge and Quantile are pure sequential code with no
// randomness and no map iteration, so the same sequence of operations
// yields bit-identical state and quantiles — the property the fleet's
// parallelism-independent rollup relies on (the engine delivers results
// in spec order at any parallelism).
//
// The zero value is not usable; construct with NewDigest.
type Digest struct {
	compression float64
	// centroids are the compressed summary, sorted by mean ascending.
	centroids []centroid
	// buffer holds points not yet compressed.
	buffer []float64
	// count is the total weight across centroids and buffer.
	count    float64
	min, max float64
}

// centroid is one weighted cluster of nearby observations.
type centroid struct {
	mean   float64
	weight float64
}

// DefaultCompression balances accuracy and size: ~1% worst-case rank
// error at the median, far better in the tails, with a few hundred
// centroids retained.
const DefaultCompression = 100

// NewDigest returns an empty digest. Larger compression means more
// retained centroids and tighter quantile error; values below 20 are
// clamped to 20.
func NewDigest(compression float64) *Digest {
	if compression < 20 {
		compression = 20
	}
	return &Digest{
		compression: compression,
		buffer:      make([]float64, 0, 8*int(compression)),
		min:         math.Inf(1),
		max:         math.Inf(-1),
	}
}

// Add folds one observation into the digest. NaN is rejected with a
// panic: a silent NaN would poison every downstream quantile.
func (d *Digest) Add(x float64) {
	if math.IsNaN(x) {
		panic("stats: NaN added to Digest")
	}
	if x < d.min {
		d.min = x
	}
	if x > d.max {
		d.max = x
	}
	d.count++
	d.buffer = append(d.buffer, x)
	if len(d.buffer) == cap(d.buffer) {
		d.compress()
	}
}

// Merge folds another digest into this one; other is unchanged. Merging
// shard digests produces the same accuracy class as a single digest over
// the concatenated stream.
func (d *Digest) Merge(other *Digest) {
	if other == nil || other.count == 0 {
		return
	}
	if other.min < d.min {
		d.min = other.min
	}
	if other.max > d.max {
		d.max = other.max
	}
	d.compress()
	// Append the other digest's centroids and buffered points as weighted
	// inputs, then recompress the union in one pass.
	for _, c := range other.centroids {
		d.centroids = append(d.centroids, c)
	}
	for _, x := range other.buffer {
		d.centroids = append(d.centroids, centroid{mean: x, weight: 1})
	}
	d.count += other.count
	d.recompress()
}

// Count returns how many observations the digest has absorbed.
func (d *Digest) Count() int64 { return int64(d.count) }

// Min returns the smallest observation (exact), or NaN when empty.
func (d *Digest) Min() float64 {
	if d.count == 0 {
		return math.NaN()
	}
	return d.min
}

// Max returns the largest observation (exact), or NaN when empty.
func (d *Digest) Max() float64 {
	if d.count == 0 {
		return math.NaN()
	}
	return d.max
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1),
// interpolating between centroid means. Empty digests return NaN; the
// extremes return the exact observed min/max.
func (d *Digest) Quantile(q float64) float64 {
	if d.count == 0 {
		return math.NaN()
	}
	d.compress()
	if q <= 0 {
		return d.min
	}
	if q >= 1 {
		return d.max
	}
	cs := d.centroids
	if len(cs) == 1 {
		return cs[0].mean
	}
	target := q * d.count
	// Walk centroids treating each as centered mass: centroid i spans
	// cumulative weight (sum - w_i/2, sum + w_i/2].
	cum := 0.0
	for i, c := range cs {
		if target < cum+c.weight/2 {
			if i == 0 {
				// Interpolate between the exact min and the first mean.
				t := target / (cum + c.weight/2)
				return d.min + t*(c.mean-d.min)
			}
			prev := cs[i-1]
			lo := cum - prev.weight/2
			hi := cum + c.weight/2
			t := (target - lo) / (hi - lo)
			return prev.mean + t*(c.mean-prev.mean)
		}
		cum += c.weight
	}
	// Interpolate between the last mean and the exact max.
	last := cs[len(cs)-1]
	lo := d.count - last.weight/2
	if d.count == lo {
		return d.max
	}
	t := (target - lo) / (d.count - lo)
	if t > 1 {
		t = 1
	}
	return last.mean + t*(d.max-last.mean)
}

// compress drains the buffer into the centroid summary.
func (d *Digest) compress() {
	if len(d.buffer) == 0 {
		return
	}
	sort.Float64s(d.buffer)
	for _, x := range d.buffer {
		d.centroids = append(d.centroids, centroid{mean: x, weight: 1})
	}
	d.buffer = d.buffer[:0]
	d.recompress()
}

// recompress sorts the centroid list and re-clusters it against the
// t-digest scale function, merging adjacent centroids while the merged
// cluster stays within its size bound.
func (d *Digest) recompress() {
	cs := d.centroids
	if len(cs) == 0 {
		return
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].mean != cs[j].mean {
			return cs[i].mean < cs[j].mean
		}
		return cs[i].weight < cs[j].weight
	})
	total := 0.0
	for _, c := range cs {
		total += c.weight
	}
	out := cs[:1]
	cumBefore := 0.0 // weight strictly before the current output centroid
	for _, c := range cs[1:] {
		cur := &out[len(out)-1]
		qLo := cumBefore / total
		qHi := (cumBefore + cur.weight + c.weight) / total
		if d.sizeBoundOK(qLo, qHi) {
			// Weighted mean keeps the cluster's first moment exact.
			w := cur.weight + c.weight
			cur.mean += (c.mean - cur.mean) * c.weight / w
			cur.weight = w
		} else {
			cumBefore += cur.weight
			out = append(out, c)
		}
	}
	d.centroids = out
}

// sizeBoundOK reports whether a cluster spanning quantiles [qLo, qHi]
// respects the k1 scale function k(q) = (δ/2π)·asin(2q−1): clusters may
// span at most one unit of k, which squeezes cluster size toward both
// tails.
func (d *Digest) sizeBoundOK(qLo, qHi float64) bool {
	return d.k(qHi)-d.k(qLo) <= 1
}

func (d *Digest) k(q float64) float64 {
	if q <= 0 {
		return -d.compression / 4
	}
	if q >= 1 {
		return d.compression / 4
	}
	return d.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

// String summarizes the digest for debugging.
func (d *Digest) String() string {
	return fmt.Sprintf("Digest{n=%d, centroids=%d, min=%g, max=%g}",
		d.Count(), len(d.centroids), d.min, d.max)
}
