package scheduler

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// PlacementPolicy selects how the scheduler ranks feasible candidate
// machines and what it does with a task that found none. Profiles, CLI
// flags and sweep variants select policies by it (or by its canonical
// string name via ParsePolicy).
type PlacementPolicy int

// The placement policies. The 2011 profile uses RandomFit (wide machine
// utilization spread); the 2019 profile uses LeastAllocated load
// spreading, which reproduces Figure 6's tighter utilization
// distribution. The remaining policies exist for cross-policy sweeps:
// same clusters, same arrivals, different brains. Every policy but
// RandomFit scores candidates; every policy but OneShot parks a task
// that found no feasible machine for a backoff retry; all compare
// preemption plans by victim count.
const (
	RandomFit      PlacementPolicy = iota // first feasible candidate
	BestFit                               // pack: minimize leftover fractional headroom
	LeastAllocated                        // spread: pick the emptiest candidate by fraction
	WorstFit                              // spread: maximize absolute leftover headroom
	Oversub                               // oversubscription-aware: penalize usage-over-allocation risk
	OneShot                               // LeastAllocated scoring, but no placement retries
	numPolicies                           // name-table size sentinel — keep last
)

// oversubRiskWeight converts one unit of hot oversubscription exposure
// into score units comparable with the usage fractions.
const oversubRiskWeight = 4.0

// score ranks a feasible machine for a task requesting req; lower is
// better. usage is the machine's sampled usage total, read once by the
// caller and threaded through. RandomFit never scores: the first
// feasible candidate wins outright.
//
// score must be a pure function of inputs that are fully covered by the
// score cache key: the machine's generation counter (which advances on
// every allocation, limit and usage mutation) and the task's equivalence
// class (request shape). That is what makes Scheduler.cachedScore exact
// memoization; an arm that read anything else (time, RNG, queue state)
// would silently break the cache and the determinism contract with it.
func (p PlacementPolicy) score(m *cluster.Machine, req, usage trace.Resources) float64 {
	alloc := m.Allocated()
	capacity := m.Capacity
	switch p {
	case WorstFit:
		// Spread by absolute headroom: prefer the machine that would
		// retain the most unallocated NCU+NMU after placement. Unlike
		// LeastAllocated it ignores sampled usage and normalizes by
		// nothing, so on heterogeneous machine shapes it herds tasks
		// toward the physically largest machines rather than the
		// proportionally emptiest ones.
		free := (capacity.CPU - alloc.CPU - req.CPU) + (capacity.Mem - alloc.Mem - req.Mem)
		return -free
	case Oversub:
		// Usage-aware overcommit hygiene: score like a spreader on
		// sampled usage, but also charge each candidate its
		// oversubscription exposure — the fraction of post-placement
		// promises not covered by physical capacity (possible only
		// because overcommit lets allocation exceed capacity). The
		// exposure only hurts when usage materializes, so it is scaled up
		// on machines that are already hot: a cold overcommitted machine
		// is cheap, a hot one is a near-certain OOM-pressure eviction
		// next window.
		score := 0.0
		if capacity.CPU > 0 {
			u := usage.CPU / capacity.CPU
			a := (alloc.CPU + req.CPU) / capacity.CPU
			score += u
			if a > 1 {
				score += oversubRiskWeight * (a - 1) * (1 + 3*u)
			}
		}
		if capacity.Mem > 0 {
			u := usage.Mem / capacity.Mem
			a := (alloc.Mem + req.Mem) / capacity.Mem
			score += u
			if a > 1 {
				score += oversubRiskWeight * (a - 1) * (1 + 3*u)
			}
		}
		return score
	}
	// BestFit, LeastAllocated and OneShot share one load metric:
	// post-placement allocated fraction plus sampled usage fraction,
	// summed over CPU and memory, so load spreading considers actual
	// consumption as well as promises. The operation order is
	// load-bearing: same-seed traces are bit-for-bit reproductions only
	// because this computes the identical float sequence.
	frac := 0.0
	if capacity.CPU > 0 {
		frac += (alloc.CPU+req.CPU)/capacity.CPU + usage.CPU/capacity.CPU
	}
	if capacity.Mem > 0 {
		frac += (alloc.Mem+req.Mem)/capacity.Mem + usage.Mem/capacity.Mem
	}
	if p == BestFit {
		// Pack: prefer the fullest machine that still fits.
		return -frac
	}
	return frac
}

// policyNames is the single name table behind String, ParsePolicy and
// PolicyNames — there is no other switch to keep in sync.
var policyNames = [numPolicies]string{
	RandomFit:      "random-fit",
	BestFit:        "best-fit",
	LeastAllocated: "least-allocated",
	WorstFit:       "worst-fit",
	Oversub:        "oversub",
	OneShot:        "one-shot",
}

// String names the policy.
func (p PlacementPolicy) String() string {
	if p >= 0 && p < numPolicies && policyNames[p] != "" {
		return policyNames[p]
	}
	return fmt.Sprintf("PlacementPolicy(%d)", int(p))
}

// PolicyNames returns the canonical policy names, sorted — the valid set
// ParsePolicy accepts, for help text and error messages.
func PolicyNames() []string {
	out := make([]string, 0, numPolicies)
	for _, name := range policyNames {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ParsePolicy resolves a canonical policy name (as printed by String) to
// its tag. Unknown names error with the full valid set, so a typo'd
// configuration fails loudly instead of silently simulating the wrong
// brain.
func ParsePolicy(name string) (PlacementPolicy, error) {
	for p, n := range policyNames {
		if n == name {
			return PlacementPolicy(p), nil
		}
	}
	return 0, fmt.Errorf("scheduler: unknown placement policy %q (policies: %s)",
		name, strings.Join(PolicyNames(), ", "))
}

// MustParsePolicy is ParsePolicy for static configuration: it panics on
// an unknown name.
func MustParsePolicy(name string) PlacementPolicy {
	p, err := ParsePolicy(name)
	if err != nil {
		panic(err)
	}
	return p
}
