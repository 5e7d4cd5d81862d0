package trace

import "repro/internal/sim"

// OpenWindows reports how many distinct 5-minute windows, and how many
// (machine, window) usage sums, the validator holds unchecked.
func (v *Validator) OpenWindows() (windows, sums int) {
	starts := make(map[sim.Time]bool)
	for k := range v.open {
		starts[k.start] = true
	}
	return len(starts), len(v.open)
}
