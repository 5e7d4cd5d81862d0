package main

import (
	"math"
	"slices"
)

// quartiles returns the first quartile, the median and the third quartile
// of xs, as Python's statistics.quantiles(xs, n=4) gives them (its default
// "exclusive" method), so spreads read the same here and in scripts that
// check the benchmark. One value is its own quartiles; none gives NaNs.
func quartiles(xs []float64) (q1, median, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Summary is one metric's samples and their quartiles.
type Summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, xs []float64) Summary {
	q1, med, q3 := quartiles(xs)
	return Summary{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(xs), Samples: xs}
}

// Verdicts of a comparison between a parent's runs and a change's.
const (
	improved   = "improved"
	noWorse    = "no-worse"
	worse      = "worse"
	unresolved = "unresolved"
)

// minPairs is the fewest parent/change pairs a gain may be claimed on, and
// so the fewest timed pairs -compare makes.
const minPairs = 10

// bound is how far a metric's median may worsen in a -compare: a share of
// the parent's median, or an absolute amount where that is larger.
type bound struct{ rel, abs float64 }

// allowed is how much a metric whose parent median is m may worsen.
func (b bound) allowed(m float64) float64 { return max(b.rel*math.Abs(m), b.abs) }

// pairedBounds are -compare's bounds. They hold pairs of runs on one input
// made back to back, whose noise is much smaller than the spread between
// seeds that BENCHMARK.json's bounds must hold (see doc.go, Comparing).
var pairedBounds = map[string]bound{
	"wall_s":              {rel: 0.10},
	"cpu_s":               {rel: 0.10},
	"machine_hours_per_s": {rel: 0.10},
	"setup_s":             {rel: 0.25, abs: 0.05},
	"peak_live_heap_mb":   {rel: 0.05, abs: 5},
	"alloc_mb":            {rel: 0.02},
}

// verdict compares a change's runs of one metric with its parent's. The
// i-th runs of each side form a pair: same input, made back to back.
//
//   - improved: at least minPairs pairs, the change better in at least
//     nine tenths of them (ties count for neither), and the medians apart
//     by more than the parent's interquartile range;
//   - unresolved: the interquartile range of the pairs' ratios (change ÷
//     parent, in the direction where lower is better) is wider than the
//     bound, and not every change run is better than every parent run;
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - no-worse: otherwise.
func verdict(parent, change []float64, b bound, higherBetter bool) string {
	n := min(len(parent), len(change))
	if n == 0 {
		return unresolved
	}
	p, c := parent[:n], change[:n]
	pq1, pm, pq3 := quartiles(p)
	_, cm, _ := quartiles(c)
	ratios, wins := pairRatios(p, c, higherBetter)
	// gain is how much better the change's median is than the parent's.
	gain := pm - cm
	if higherBetter {
		gain = -gain
	}
	if n >= minPairs && 10*wins >= 9*n && gain > pq3-pq1 {
		return improved
	}
	allowed := b.allowed(pm)
	rq1, _, rq3 := quartiles(ratios)
	allBetter := slices.Max(c) < slices.Min(p)
	if higherBetter {
		allBetter = slices.Min(c) > slices.Max(p)
	}
	if rq3-rq1 > relative(allowed, pm) && !allBetter {
		return unresolved
	}
	if -gain > allowed {
		return worse
	}
	return noWorse
}

// pairRatios returns each pair's change ÷ parent ratio, turned so that
// below 1 is better, and how many pairs the change won.
func pairRatios(parent, change []float64, higherBetter bool) ([]float64, int) {
	n := min(len(parent), len(change))
	ratios := make([]float64, n)
	wins := 0
	for i := range n {
		ratios[i] = change[i] / parent[i]
		if higherBetter {
			ratios[i] = parent[i] / change[i]
		}
		if ratios[i] < 1 {
			wins++
		}
	}
	return ratios, wins
}

// relative returns d as a share of the magnitude of base.
func relative(d, base float64) float64 {
	if base == 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return d / math.Abs(base)
}
