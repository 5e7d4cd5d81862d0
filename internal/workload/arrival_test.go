package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

func constantRateProfile() *CellProfile {
	p := Profile2019("a", 600)
	p.DiurnalAmplitude = 0 // renewal rates rescale by Rate(now); keep it flat
	return p
}

func TestParseArrivalErrorsListValidSets(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"loglogistic", `unknown arrival process "loglogistic" (processes: cohorts, gamma, poisson, weibull)`},
		{"gamma:burst=2", `unknown arrival knob "burst" for process "gamma" (knobs: cv)`},
		{"poisson:cv=2", `arrival process "poisson" takes no knobs`},
		{"gamma:cv=abc", `bad value "abc" for arrival knob "cv"`},
		{"gamma:cv=-1", `arrival knob cv=-1 in "gamma:cv=-1" must be positive`},
		{"gamma:cv=NaN", `arrival knob cv=NaN in "gamma:cv=NaN" must be positive and finite`},
		{"cohorts:k=Inf", `arrival knob k=+Inf in "cohorts:k=Inf" must be positive and finite`},
		{"cohorts:k", `bad arrival knob "k" in "cohorts:k" (want knob=value)`},
	}
	for _, tc := range cases {
		_, err := ParseArrival(tc.spec)
		if err == nil {
			t.Fatalf("ParseArrival(%q): expected error", tc.spec)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseArrival(%q) error %q, want it to contain %q", tc.spec, err, tc.want)
		}
	}
}

func TestParseArrivalSpecs(t *testing.T) {
	// Empty and bare-name specs select the process with default knobs.
	for _, spec := range []string{"", "poisson"} {
		s, err := ParseArrival(spec)
		if err != nil {
			t.Fatalf("ParseArrival(%q): %v", spec, err)
		}
		if s.String() != "poisson" {
			t.Errorf("ParseArrival(%q).String() = %q, want poisson", spec, s.String())
		}
	}
	// Knobs parse under both separators, and String round-trips the input.
	for _, spec := range []string{"cohorts:k=40,skew=1.5,cv=2", "cohorts:k=40+skew=1.5+cv=2"} {
		s, err := ParseArrival(spec)
		if err != nil {
			t.Fatalf("ParseArrival(%q): %v", spec, err)
		}
		if s.Name != "cohorts" || s.Knobs["k"] != 40 || s.Knobs["skew"] != 1.5 || s.Knobs["cv"] != 2 {
			t.Errorf("ParseArrival(%q) = %+v", spec, s)
		}
		if s.String() != spec {
			t.Errorf("ParseArrival(%q).String() = %q", spec, s.String())
		}
	}
	if names := ArrivalNames(); strings.Join(names, ",") != "cohorts,gamma,poisson,weibull" {
		t.Errorf("ArrivalNames() = %v", names)
	}
}

// TestArrivalProcessesDeterministic pins the seed contract for every
// registered process: the same seed yields the same (interval, user)
// sequence, and a different seed a different one.
func TestArrivalProcessesDeterministic(t *testing.T) {
	specs := []string{"poisson", "gamma:cv=2.5", "weibull:cv=2.5", "cohorts:k=20,skew=1.4"}
	drive := func(spec string, seed uint64) []string {
		p := Profile2019("a", 600)
		a := newArrival(MustParseArrival(spec), p, 1000*sim.Hour, rng.New(seed))
		var out []string
		now := sim.Time(0)
		for i := 0; i < 500; i++ {
			d := a.NextInterArrival(now)
			now += d
			out = append(out, d.String()+"/"+a.User())
		}
		return out
	}
	for _, spec := range specs {
		a, b := drive(spec, 11), drive(spec, 11)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: step %d differs across identical seeds: %s vs %s", spec, i, a[i], b[i])
			}
		}
		c := drive(spec, 12)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: seeds 11 and 12 produced identical streams", spec)
		}
	}
}

// TestArrivalProcessesMatchProfileRate checks every process realizes the
// profile's calibrated arrival rate: over a long horizon the empirical
// jobs/hour lands within a few percent of TotalArrivalRate.
func TestArrivalProcessesMatchProfileRate(t *testing.T) {
	specs := []string{"poisson", "gamma:cv=2.5", "weibull:cv=0.6", "cohorts:k=20"}
	for _, spec := range specs {
		p := constantRateProfile()
		if spec == "poisson" {
			p = Profile2019("a", 600) // thinning handles the diurnal envelope exactly
		}
		horizon := sim.Time(10 * sim.Day)
		a := newArrival(MustParseArrival(spec), p, horizon, rng.New(5))
		now := sim.Time(0)
		n := 0
		for {
			now += a.NextInterArrival(now)
			if now >= horizon {
				break
			}
			n++
		}
		got := float64(n) / horizon.Hours()
		want := p.TotalArrivalRate()
		if rel := math.Abs(got-want) / want; rel > 0.05 {
			t.Errorf("%s: empirical rate %.1f jobs/hour, profile %.1f (rel err %.3f)", spec, got, want, rel)
		}
	}
}

// TestRenewalCVKnob checks the burstiness knob does what it says: at a
// constant envelope rate, the empirical coefficient of variation of the
// inter-arrival times tracks the requested cv for both renewal bodies.
func TestRenewalCVKnob(t *testing.T) {
	for _, tc := range []struct {
		spec string
		cv   float64
	}{
		{"gamma:cv=2.5", 2.5},
		{"gamma:cv=0.5", 0.5},
		{"weibull:cv=2", 2},
		{"weibull:cv=0.6", 0.6},
	} {
		p := constantRateProfile()
		a := newArrival(MustParseArrival(tc.spec), p, 1_000_000*sim.Hour, rng.New(17))
		const n = 40000
		var sum, sumSq float64
		now := sim.Time(0)
		for i := 0; i < n; i++ {
			iv := a.NextInterArrival(now)
			now += iv
			d := iv.Hours()
			sum += d
			sumSq += d * d
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		got := math.Sqrt(variance) / mean
		if rel := math.Abs(got-tc.cv) / tc.cv; rel > 0.15 {
			t.Errorf("%s: empirical CV %.3f, want %.2f (rel err %.3f)", tc.spec, got, tc.cv, rel)
		}
	}
}

// TestCohortUsers checks the cohorts process's user model: every
// submission names a cohort member, and the Zipf skew makes the head
// client the heaviest submitter.
func TestCohortUsers(t *testing.T) {
	p := constantRateProfile()
	a := newArrival(MustParseArrival("cohorts:k=10,skew=1.5"), p, 1_000_000*sim.Hour, rng.New(23))
	counts := make(map[string]int)
	now := sim.Time(0)
	for i := 0; i < 20000; i++ {
		now += a.NextInterArrival(now)
		counts[a.User()]++
	}
	for u := range counts {
		if !strings.HasPrefix(u, "user-0") || len(u) != 7 {
			t.Fatalf("unexpected cohort user %q", u)
		}
	}
	head := counts["user-00"]
	for u, c := range counts {
		if u != "user-00" && c >= head {
			t.Errorf("user %s fired %d times, head user-00 only %d — skew not applied", u, c, head)
		}
	}
}

// TestPoissonMatchesDefaultGenerator pins the compatibility contract:
// a profile with an explicit "poisson" arrival spec is draw-for-draw
// identical to the default generator at the same seed.
func TestPoissonMatchesDefaultGenerator(t *testing.T) {
	p1, p2 := Profile2019("a", 600), Profile2019("a", 600)
	p2.Arrival = "poisson"
	horizon := 100 * sim.Hour
	g1 := NewGeneratorArrival(p1, testCapacityCPU, horizon, rng.New(9), 1)
	g2 := NewGeneratorArrival(p2, testCapacityCPU, horizon, rng.New(9), 1)
	now := sim.Time(0)
	for i := 0; i < 2000; i++ {
		d1, d2 := g1.NextInterArrival(now), g2.NextInterArrival(now)
		if d1 != d2 {
			t.Fatalf("step %d: inter-arrival %v vs %v", i, d1, d2)
		}
		now += d1
		if u1, u2 := g1.user(), g2.user(); u1 != u2 {
			t.Fatalf("step %d: user %q vs %q", i, u1, u2)
		}
	}
}

// TestSineEnvelopeMaxRateBounds checks the thinning bound over a dense
// time sweep, for a positive and a negative amplitude.
func TestSineEnvelopeMaxRateBounds(t *testing.T) {
	for _, e := range []diurnalEnvelope{
		{base: 100, amplitude: 0.3, phase: 3 * sim.Hour},
		{base: 100, amplitude: -0.15},
	} {
		max := e.MaxRate()
		if want := 100 * (1 + math.Abs(e.amplitude)); math.Abs(max-want) > 1e-9 {
			t.Fatalf("%+v: MaxRate = %g, want %g", e, max, want)
		}
		modulated := false
		for ti := sim.Time(0); ti < 2*sim.Day; ti += sim.Minute {
			r := e.Rate(ti)
			if r > max+1e-9 {
				t.Fatalf("%+v: Rate(%v) = %g exceeds MaxRate %g", e, ti, r, max)
			}
			if math.Abs(r-100) > 90*math.Abs(e.amplitude) {
				modulated = true
			}
		}
		if !modulated {
			t.Errorf("%+v: envelope never moved the rate away from base", e)
		}
	}
}

// BenchmarkArrivalProcess measures one inter-arrival + user draw per
// iteration for each registered process (the benchgate tracks these).
func BenchmarkArrivalProcess(b *testing.B) {
	for _, spec := range []string{"poisson", "gamma:cv=2.5", "weibull:cv=2.5", "cohorts:k=40"} {
		b.Run(spec, func(b *testing.B) {
			p := Profile2019("a", 600)
			a := newArrival(MustParseArrival(spec), p, sim.FromHours(1e12), rng.New(1))
			now := sim.Time(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += a.NextInterArrival(now)
				_ = a.User()
			}
		})
	}
}
