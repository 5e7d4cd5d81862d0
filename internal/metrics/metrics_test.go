package metrics

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := r.Counter("c").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("second Counter lookup returned a different instrument")
	}

	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := r.Gauge("g").Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}

	h := r.Histogram("h")
	for _, v := range []float64{1, 2, 3, 4} {
		h.Observe(v)
	}
	hv := h.snapshot()
	if hv.Count != 4 || hv.Sum != 10 || hv.Min != 1 || hv.Max != 4 {
		t.Fatalf("histogram snapshot = %+v", hv)
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	for name, f := range map[string]func(){
		"gauge":     func() { r.Gauge("x") },
		"histogram": func() { r.Histogram("x") },
		"empty":     func() { r.Counter("") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// fill populates a registry with a deterministic instrument mix derived
// from seed, exercising all three kinds. The histogram samples are not
// exact binary fractions, so a sum taken in merge order would differ
// between groupings in its last bits.
func fill(r *Registry, seed int) {
	r.Counter("placed").Add(int64(10 + seed))
	r.Counter("attempts").Add(int64(100 * (seed + 1)))
	r.Gauge("queue").Set(float64(seed))
	h := r.Histogram("depth")
	for i := 0; i < 50; i++ {
		h.Observe(float64((i*seed+7)%23) + 0.1*float64(seed))
	}
}

// TestMergeAssociative is the rollup-order independence gate: merging
// cell registries in any grouping must yield the identical snapshot —
// counters, gauges and every histogram field, quantiles and sum
// included — the property that makes cell→fleet rollups safe to reason
// about.
func TestMergeAssociative(t *testing.T) {
	mk := func() []*Registry {
		rs := make([]*Registry, 4)
		for i := range rs {
			rs[i] = NewRegistry()
			fill(rs[i], i+1)
		}
		return rs
	}

	// Left fold: ((r0+r1)+r2)+r3 into a fresh root.
	left := NewRegistry()
	for _, r := range mk() {
		left.Merge(r)
	}
	// Right-ish fold: r3+r2+r1+r0, and pairwise: (r0+r1) + (r2+r3).
	rev := NewRegistry()
	rs := mk()
	for i := len(rs) - 1; i >= 0; i-- {
		rev.Merge(rs[i])
	}
	rs = mk()
	a, b := NewRegistry(), NewRegistry()
	a.Merge(rs[0])
	a.Merge(rs[1])
	b.Merge(rs[2])
	b.Merge(rs[3])
	a.Merge(b)

	ls := left.Snapshot()
	for name, other := range map[string]Snapshot{"reversed": rev.Snapshot(), "pairwise": a.Snapshot()} {
		if !reflect.DeepEqual(ls, other) {
			t.Errorf("%s: snapshot differs from the left fold:\n%+v\n%+v", name, ls, other)
		}
	}
}

func TestMergeNilAndEmpty(t *testing.T) {
	r := NewRegistry()
	fill(r, 1)
	before := r.Snapshot()
	r.Merge(nil)
	r.Merge(NewRegistry())
	if !reflect.DeepEqual(before, r.Snapshot()) {
		t.Fatal("merging nil/empty changed the registry")
	}
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz").Inc()
	r.Counter("aa").Inc()
	r.Gauge("m").Set(1)
	r.Gauge("b").Set(2)
	r.Histogram("y").Observe(1)
	r.Histogram("x").Observe(2)
	s := r.Snapshot()
	if s.Counters[0].Name != "aa" || s.Counters[1].Name != "zz" {
		t.Errorf("counters unsorted: %+v", s.Counters)
	}
	if s.Gauges[0].Name != "b" || s.Gauges[1].Name != "m" {
		t.Errorf("gauges unsorted: %+v", s.Gauges)
	}
	if s.Hists[0].Name != "x" || s.Hists[1].Name != "y" {
		t.Errorf("histograms unsorted: %+v", s.Hists)
	}
}

// TestHistogramQuantiles: a snapshot's quantiles are stats.Quantile of
// the observed samples, bit for bit.
func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	var xs []float64
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
		xs = append(xs, float64(i))
	}
	hv := h.snapshot()
	if hv.Count != 1000 || hv.Sum != 500500 || hv.Min != 1 || hv.Max != 1000 {
		t.Fatalf("exact stats wrong: %+v", hv)
	}
	for _, q := range []struct{ got, q float64 }{{hv.P50, 0.50}, {hv.P90, 0.90}, {hv.P99, 0.99}} {
		if want := stats.Quantile(xs, q.q); q.got != want {
			t.Errorf("p%g = %g, want %g", 100*q.q, q.got, want)
		}
	}
}

// TestHistogramObserveNaNPanics: a NaN sample has no place in an order,
// so observing one panics instead of poisoning the quantiles.
func TestHistogramObserveNaNPanics(t *testing.T) {
	h := NewRegistry().Histogram("h")
	defer func() {
		if recover() == nil {
			t.Fatal("Observe(NaN) did not panic")
		}
	}()
	h.Observe(math.NaN())
}
