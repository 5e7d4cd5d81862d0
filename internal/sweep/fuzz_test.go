package sweep

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

// FuzzParseVariants: any spec must give an error or at least one named
// variant, never a panic. No accepted variant carries a NaN or infinite
// value: neither in a numeric family's name nor in a profile knob after
// its overlay runs.
func FuzzParseVariants(f *testing.F) {
	for _, spec := range []string{
		"", "baseline", "bogus:1", "arrival:-1", "prodshift:0.5,2",
		// ParseVariants' doc-comment example and the CI sweep smoke.
		"baseline;arrival:0.5,weibull:cv=3;policy:best-fit;zoo-hot:policy=oversub,arrival=1.5",
		"baseline;arrival:2,gamma:cv=2.5;zoo-bestfit:policy=best-fit",
		// Non-finite values ParseFloat accepts.
		"arrival:NaN", "machines:Inf", "overcommit:+Inf", "allocceiling:NaN", "x:overcommit=NaN",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		vs, err := ParseVariants(spec)
		if err != nil {
			return
		}
		if len(vs) == 0 {
			t.Fatalf("ParseVariants(%q) returned no variants and no error", spec)
		}
		for _, v := range vs {
			if v.Name == "" {
				t.Fatalf("ParseVariants(%q) returned an unnamed variant", spec)
			}
			if family, value, ok := strings.Cut(v.Name, ":"); ok && families[family] != nil {
				if x, err := strconv.ParseFloat(value, 64); err == nil && (!(x > 0) || math.IsInf(x, 1)) {
					t.Fatalf("ParseVariants(%q) accepted %s", spec, v.Name)
				}
			}
			if v.Apply == nil {
				continue
			}
			p := workload.Profile2019("a", 60)
			v.Apply(p)
			knobs := []float64{p.JobsPerHour, p.Overcommit.CPUFactor, p.Overcommit.MemFactor, p.Sched.BatchAllocCeiling}
			for _, tier := range p.Tiers {
				knobs = append(knobs, tier.ArrivalShare)
			}
			for _, x := range knobs {
				if math.IsNaN(x) {
					t.Fatalf("variant %q of ParseVariants(%q) sets a profile knob to NaN", v.Name, spec)
				}
			}
		}
	})
}
