package workload

import (
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Fleet-profile sampling: the paper analyzes eight 2019 cells, but the
// Borg fleet it describes is hundreds. SampleFleetProfile synthesizes
// cell profiles beyond the published eight by treating the calibrated
// cells as the fleet's backbone and drawing per-cell variation around
// the 2019 medians — machine count, arrival rate and tier mix — from
// lognormal jitters whose spreads match the cell-to-cell dispersion
// visible across Table 1 and Figures 2/3.

// FleetMachineSigma is the lognormal sigma of fleet machine counts
// around the configured median (Table 1's 2019 cells span roughly a
// 2.5× range around their median size).
const FleetMachineSigma = 0.35

// fleetArrivalSigma jitters the cell's mean submission rate; §6.1
// reports per-cell rates spread around the 3360 jobs/h fleet mean.
const fleetArrivalSigma = 0.25

// fleetMixSigma perturbs each tier's arrival share before
// renormalization, reproducing the mix spread of Figure 3's bars.
const fleetMixSigma = 0.20

// SampleFleetProfile draws one synthetic 2019-era cell for a federation
// run: a base profile picked uniformly from the eight calibrated 2019
// cells, machine count lognormal around medianMachines (clamped to a
// 3× band so one tail draw cannot blow a bounded-memory fleet budget),
// arrival rate and tier arrival mix jittered lognormally, and a quarter
// of cells shifted to a random non-local timezone the way cell g runs
// on Singapore time. The profile is a pure function of (name,
// medianMachines, src state), so fleets seeded via engine.DeriveSeed
// are reproducible and CRN-comparable cell-by-cell.
func SampleFleetProfile(name string, medianMachines int, src *rng.Source) *CellProfile {
	cells := Cells2019()
	base := cells[src.Intn(len(cells))]
	machines := int(math.Round(float64(medianMachines) *
		math.Exp(FleetMachineSigma*src.NormFloat64())))
	if min := (medianMachines + 2) / 3; machines < min {
		machines = min
	}
	if max := medianMachines * 3; machines > max {
		machines = max
	}
	p := Profile2019(base, machines)
	p.Name = name
	p.JobsPerHour *= math.Exp(fleetArrivalSigma * src.NormFloat64())
	total := 0.0
	for i := range p.Tiers {
		p.Tiers[i].ArrivalShare *= math.Exp(fleetMixSigma * src.NormFloat64())
		total += p.Tiers[i].ArrivalShare
	}
	for i := range p.Tiers {
		p.Tiers[i].ArrivalShare /= total
	}
	if src.Bool(0.25) {
		p.DiurnalPhase = sim.Time(src.Intn(24)) * sim.Hour
	}
	return p
}
