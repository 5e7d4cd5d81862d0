package core

import (
	"math"
	"testing"

	"repro/internal/analysis/streaming"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestNoiseTableMoments(t *testing.T) {
	for _, sigma := range []float64{0.1, 0.25, 0.5} {
		tab := newNoiseTable(sigma)
		for name, tc := range map[string]struct {
			entries []float64
			sigma   float64
		}{
			"cpu": {tab.c[:], sigma},
			"mem": {tab.m[:], sigma * 0.3},
		} {
			sum := 0.0
			for i, v := range tc.entries {
				if v <= 0 {
					t.Fatalf("sigma=%g %s[%d] = %g, want positive", sigma, name, i, v)
				}
				if i > 0 && v <= tc.entries[i-1] {
					t.Fatalf("sigma=%g %s table not strictly increasing at %d", sigma, name, i)
				}
				sum += v
			}
			mean := sum / float64(len(tc.entries))
			want := math.Exp(tc.sigma * tc.sigma / 2)
			if rel := math.Abs(mean-want) / want; rel > 1e-12 {
				t.Errorf("sigma=%g %s table mean %g, want exact lognormal mean %g (rel err %g)",
					sigma, name, mean, want, rel)
			}
			// The normalization must be a small correction, not a rescue of
			// a badly built table: the raw stratified mean already sits
			// within a fraction of a percent of the analytic mean.
			med := tc.entries[len(tc.entries)/2]
			if med < 0.9 || med > 1.1 {
				t.Errorf("sigma=%g %s table median entry %g, want near lognormal median 1",
					sigma, name, med)
			}
		}
	}
}

func TestNoiseTableDrawMatchesLognormal(t *testing.T) {
	const sigma = 0.25
	tab := newNoiseTable(sigma)
	src := rng.New(99)
	const n = 200000
	var sumC, sumM, sumLogC, sumLogM float64
	for i := 0; i < n; i++ {
		c, m := tab.draw(src)
		sumC += c
		sumM += m
		sumLogC += math.Log(c)
		sumLogM += math.Log(m)
	}
	// Sample means within ~5 sigma of the analytic lognormal moments.
	checks := []struct {
		name string
		got  float64
		want float64
		tol  float64
	}{
		{"mean C", sumC / n, math.Exp(sigma * sigma / 2), 5 * sigma / math.Sqrt(n)},
		{"mean M", sumM / n, math.Exp(sigma * 0.3 * sigma * 0.3 / 2), 5 * sigma * 0.3 / math.Sqrt(n)},
		{"log-mean C", sumLogC / n, 0, 5 * sigma / math.Sqrt(n)},
		{"log-mean M", sumLogM / n, 0, 5 * sigma * 0.3 / math.Sqrt(n)},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > c.tol {
			t.Errorf("%s = %g, want %g ± %g", c.name, c.got, c.want, c.tol)
		}
	}
}

// noiseRun simulates a small 2019 cell in bounded memory and returns its
// streaming scalar metrics by name.
func noiseRun(t *testing.T, seed uint64, fast bool) map[string]float64 {
	t.Helper()
	p := workload.Profile2019("a", 120)
	horizon := 8 * sim.Hour
	red := streaming.NewCellReducer(streaming.Config{
		Meta: trace.Meta{
			Era: p.Era, Cell: p.Name, Duration: horizon,
			Machines: p.Machines, Seed: seed,
		},
		SnapshotAt: horizon / 2,
	})
	Run(p, Options{
		RunKnobs: RunKnobs{UsageNoiseFast: fast},
		Horizon:  horizon, Seed: seed, NoMemTrace: true,
		ExtraSinks: []trace.Sink{red},
	})
	out := make(map[string]float64)
	for _, s := range red.Scalars(horizon / 2) {
		out[s.Name] = s.Value
	}
	return out
}

// TestUsageNoiseFastOffIsByteIdentical pins the versioned-trace contract:
// with UsageNoiseFast left at its zero value the randomness sequence is
// untouched, so a run is byte-identical to an explicit fast=false run —
// the exact-path draws must not have moved even by one variate.
func TestUsageNoiseFastOffIsByteIdentical(t *testing.T) {
	p := workload.Profile2019("a", 120)
	opts := Options{Horizon: 8 * sim.Hour, Seed: 7}
	a := Run(p, opts)
	opts.UsageNoiseFast = false
	b := Run(workload.Profile2019("a", 120), opts)
	ta, tb := a.Trace, b.Trace
	if ta.UsageRecords.Len() != tb.UsageRecords.Len() {
		t.Fatalf("usage row counts differ: %d vs %d", ta.UsageRecords.Len(), tb.UsageRecords.Len())
	}
	for i := range ta.UsageRecords.Len() {
		if ta.UsageRecords.At(i) != tb.UsageRecords.At(i) {
			t.Fatalf("usage record %d differs with UsageNoiseFast unset vs false", i)
		}
	}
}

func TestUsageNoiseFastChangesTraceDeterministically(t *testing.T) {
	p := workload.Profile2019("a", 120)
	opts := Options{RunKnobs: RunKnobs{UsageNoiseFast: true}, Horizon: 4 * sim.Hour, Seed: 7}
	a := Run(p, opts)
	b := Run(workload.Profile2019("a", 120), opts)
	if a.Trace.UsageRecords.Len() != b.Trace.UsageRecords.Len() {
		t.Fatalf("fast-noise runs not deterministic: %d vs %d usage rows",
			a.Trace.UsageRecords.Len(), b.Trace.UsageRecords.Len())
	}
	for i := range a.Trace.UsageRecords.Len() {
		if a.Trace.UsageRecords.At(i) != b.Trace.UsageRecords.At(i) {
			t.Fatalf("fast-noise usage record %d differs between identical runs", i)
		}
	}
	exact := Run(workload.Profile2019("a", 120), Options{Horizon: 4 * sim.Hour, Seed: 7})
	same := exact.Trace.UsageRecords.Len() == a.Trace.UsageRecords.Len()
	if same {
		for i := range a.Trace.UsageRecords.Len() {
			if a.Trace.UsageRecords.At(i) != exact.Trace.UsageRecords.At(i) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("UsageNoiseFast=true produced a byte-identical trace to the exact path; the versioned bump is not taking effect")
	}
}

// TestUsageNoiseFastStatisticallyEquivalent checks that switching the
// noise implementation moves the figure-level scalars only within noise:
// across seeds, fast-vs-exact utilization and allocation metrics agree to
// a few percent, and the scheduling-side metrics (which share the run's
// randomness downstream of the sampler) stay in the same band.
func TestUsageNoiseFastStatisticallyEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed simulation pair per seed")
	}
	seeds := []uint64{3, 11, 27}
	bounds := map[string]float64{
		"cpu_util":  0.05,
		"mem_util":  0.05,
		"cpu_alloc": 0.05,
		"mem_alloc": 0.05,
	}
	diffs := make(map[string][]float64)
	for _, seed := range seeds {
		exact := noiseRun(t, seed, false)
		fast := noiseRun(t, seed, true)
		for name := range bounds {
			e, f := exact[name], fast[name]
			if e <= 0 {
				t.Fatalf("seed %d: exact %s = %g, want positive", seed, name, e)
			}
			diffs[name] = append(diffs[name], (f-e)/e)
		}
	}
	for name, ds := range diffs {
		mean := 0.0
		for _, d := range ds {
			mean += d
		}
		mean /= float64(len(ds))
		if math.Abs(mean) > bounds[name] {
			t.Errorf("%s: mean relative fast-vs-exact diff %.4f over seeds %v exceeds ±%.2f (per-seed %v)",
				name, mean, seeds, bounds[name], ds)
		}
	}
}
