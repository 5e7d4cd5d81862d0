package workload

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestSampleFleetProfileReproducibleAndVaried(t *testing.T) {
	const median = 60
	a := SampleFleetProfile("f000", median, rng.New(7).Split("fleet-profile"))
	b := SampleFleetProfile("f000", median, rng.New(7).Split("fleet-profile"))
	if a.Machines != b.Machines || a.JobsPerHour != b.JobsPerHour {
		t.Fatalf("same source state produced different profiles: %d/%g vs %d/%g",
			a.Machines, a.JobsPerHour, b.Machines, b.JobsPerHour)
	}
	machines := map[int]bool{}
	rates := map[float64]bool{}
	for i := 0; i < 64; i++ {
		p := SampleFleetProfile("f", median, rng.New(uint64(i)).Split("fleet-profile"))
		if p.Era != a.Era {
			t.Fatalf("cell %d era %v", i, p.Era)
		}
		if p.Machines < (median+2)/3 || p.Machines > median*3 {
			t.Fatalf("cell %d machines %d outside clamp band", i, p.Machines)
		}
		total := 0.0
		for _, tier := range p.Tiers {
			if tier.ArrivalShare < 0 {
				t.Fatalf("cell %d negative arrival share", i)
			}
			total += tier.ArrivalShare
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("cell %d arrival shares sum to %g", i, total)
		}
		machines[p.Machines] = true
		rates[p.JobsPerHour] = true
	}
	if len(machines) < 10 || len(rates) < 32 {
		t.Fatalf("fleet sampling barely varies: %d machine counts, %d rates over 64 cells",
			len(machines), len(rates))
	}
}
