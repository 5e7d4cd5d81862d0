package workload

import (
	"maps"
	"math"
	"testing"
)

// FuzzParseArrival: any spec must give an error or a value whose String
// parses back to an equal value — the same process, knobs and string —
// never a panic. Every accepted knob is positive and finite.
func FuzzParseArrival(f *testing.F) {
	for _, spec := range []string{
		"", "poisson", "gamma", "weibull", "cohorts",
		"gamma:cv=2", "weibull:cv=0.5", "cohorts:k=40,skew=1.5,cv=2", "cohorts:k=40+skew=1.5+cv=2",
		" gamma : cv = 2 ,", "gamma:cv=-1", "gamma:cv=NaN", "weibull:cv=Inf", "poisson:cv=2", "cohorts:k",
	} {
		f.Add(spec)
	}

	name := func(s ArrivalSpec) string {
		if s.Name == "" {
			return "poisson"
		}
		return s.Name
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseArrival(spec)
		if err != nil {
			return
		}
		if _, ok := arrivalRegistry[name(s)]; !ok {
			t.Fatalf("ParseArrival(%q) accepted unregistered process %q", spec, s.Name)
		}
		for knob, v := range s.Knobs {
			if !(v > 0) || math.IsInf(v, 1) {
				t.Fatalf("ParseArrival(%q) accepted %s=%g", spec, knob, v)
			}
		}
		back, err := ParseArrival(s.String())
		if err != nil {
			t.Fatalf("ParseArrival(%q).String() = %q does not parse: %v", spec, s.String(), err)
		}
		if name(back) != name(s) || back.String() != s.String() || !maps.Equal(back.Knobs, s.Knobs) {
			t.Fatalf("ParseArrival(%q) = %+v, but its String %q parses to %+v", spec, s, s.String(), back)
		}
	})
}
