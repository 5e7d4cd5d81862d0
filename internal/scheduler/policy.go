package scheduler

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// PlacementPolicy names a registered placement brain. It is the stable
// configuration tag — profiles, CLI flags and sweep variants select
// policies by it (or by its canonical string name via ParsePolicy) — and
// indexes the policy registry that holds the actual implementation.
type PlacementPolicy int

// The placement-policy zoo. The 2011 profile uses RandomFit (wide machine
// utilization spread); the 2019 profile uses LeastAllocated load
// spreading, which reproduces Figure 6's tighter utilization
// distribution. The remaining policies exist for cross-policy sweeps:
// same clusters, same arrivals, different brains.
const (
	RandomFit      PlacementPolicy = iota // first feasible candidate
	BestFit                               // pack: minimize leftover fractional headroom
	LeastAllocated                        // spread: pick the emptiest candidate by fraction
	WorstFit                              // spread: maximize absolute leftover headroom
	Oversub                               // oversubscription-aware: penalize usage-over-allocation risk
	OneShot                               // LeastAllocated scoring, but no placement retries
	numPolicies                           // registry size sentinel — keep last
)

// Policy is a placement brain behind the scheduler's fast path: it ranks
// feasible candidate machines, arbitrates between preemption plans, and
// decides what happens to tasks that found no feasible machine.
//
// Implementations must be stateless values (the registry shares one
// instance across schedulers) and Score must be a pure function of
// inputs that are fully covered by the score cache key: the machine's
// generation counter (which advances on every allocation, limit and
// usage mutation) and the task's equivalence class (request shape). A
// policy honoring that contract gets exact memoization through
// Scheduler.cachedScore for free; one that reads anything else (time,
// RNG, queue state) would silently break the cache and the determinism
// contract with it.
type Policy interface {
	// Kind returns the policy's registry tag.
	Kind() PlacementPolicy
	// FirstFit reports whether the first feasible candidate wins outright.
	// First-fit policies skip equivalence-class interning and the score
	// cache entirely, preserving RandomFit's original draw-and-return path.
	FirstFit() bool
	// Score ranks a feasible machine for a task requesting req; lower is
	// better. usage is the machine's sampled usage total, read once by the
	// caller and threaded through.
	Score(m *cluster.Machine, req, usage trace.Resources) float64
	// PreferPlan arbitrates between two feasible preemption plans: it
	// reports whether evicting victimsA tasks freeing freedA beats
	// evicting victimsB freeing freedB.
	PreferPlan(victimsA int, freedA trace.Resources, victimsB int, freedB trace.Resources) bool
	// RetryOnFailure reports whether a task that found no feasible machine
	// (even after preemption) is parked for a backoff retry. A one-shot
	// policy returns false: the task is abandoned instead.
	RetryOnFailure() bool
}

// defaultPolicy supplies the shared behavior the pre-refactor switch
// hard-wired: scored selection, preemption plans compared by victim
// count, and backoff retries on placement failure.
type defaultPolicy struct{}

func (defaultPolicy) FirstFit() bool { return false }

func (defaultPolicy) PreferPlan(victimsA int, _ trace.Resources, victimsB int, _ trace.Resources) bool {
	return victimsA < victimsB
}

func (defaultPolicy) RetryOnFailure() bool { return true }

// allocFraction is the shared load metric of the original score():
// post-placement allocated fraction plus sampled usage fraction, summed
// over CPU and memory. Both the allocation position and the sampled
// usage contribute, so load spreading considers actual consumption as
// well as promises. The operation order is load-bearing: BestFit and
// LeastAllocated traces are bit-for-bit reproductions of the pre-policy
// switch only because this computes the identical float sequence.
func allocFraction(m *cluster.Machine, req, usage trace.Resources) float64 {
	alloc := m.Allocated()
	capacity := m.Capacity
	frac := 0.0
	if capacity.CPU > 0 {
		frac += (alloc.CPU+req.CPU)/capacity.CPU + usage.CPU/capacity.CPU
	}
	if capacity.Mem > 0 {
		frac += (alloc.Mem+req.Mem)/capacity.Mem + usage.Mem/capacity.Mem
	}
	return frac
}

// randomFitPolicy takes the first feasible candidate the sampler draws.
type randomFitPolicy struct{ defaultPolicy }

func (randomFitPolicy) Kind() PlacementPolicy { return RandomFit }
func (randomFitPolicy) FirstFit() bool        { return true }
func (randomFitPolicy) Score(*cluster.Machine, trace.Resources, trace.Resources) float64 {
	return 0 // never consulted: FirstFit short-circuits scoring
}

// bestFitPolicy packs: prefer the fullest machine that still fits, i.e.
// minimize remaining headroom by maximizing the post-placement fraction.
type bestFitPolicy struct{ defaultPolicy }

func (bestFitPolicy) Kind() PlacementPolicy { return BestFit }
func (bestFitPolicy) Score(m *cluster.Machine, req, usage trace.Resources) float64 {
	return -allocFraction(m, req, usage)
}

// leastAllocatedPolicy spreads: prefer the emptiest machine by combined
// allocated and used fraction.
type leastAllocatedPolicy struct{ defaultPolicy }

func (leastAllocatedPolicy) Kind() PlacementPolicy { return LeastAllocated }
func (leastAllocatedPolicy) Score(m *cluster.Machine, req, usage trace.Resources) float64 {
	return allocFraction(m, req, usage)
}

// worstFitPolicy spreads by absolute headroom: prefer the machine that
// would retain the most unallocated NCU+NMU after placement. Unlike
// LeastAllocated it ignores sampled usage and normalizes by nothing, so
// on heterogeneous machine shapes it herds tasks toward the physically
// largest machines rather than the proportionally emptiest ones.
type worstFitPolicy struct{ defaultPolicy }

func (worstFitPolicy) Kind() PlacementPolicy { return WorstFit }
func (worstFitPolicy) Score(m *cluster.Machine, req, _ trace.Resources) float64 {
	alloc := m.Allocated()
	capacity := m.Capacity
	free := (capacity.CPU - alloc.CPU - req.CPU) + (capacity.Mem - alloc.Mem - req.Mem)
	return -free
}

// oversubPolicy is usage-aware overcommit hygiene: it scores like a
// spreader on sampled usage but additionally charges each candidate its
// oversubscription exposure — the fraction of post-placement promises
// not covered by physical capacity (possible only because overcommit
// lets allocation exceed capacity). The exposure only hurts when usage
// materializes, so it is scaled up on machines that are already hot:
// a cold overcommitted machine is cheap, a hot one is a near-certain
// OOM-pressure eviction next window.
type oversubPolicy struct{ defaultPolicy }

// oversubRiskWeight converts one unit of hot oversubscription exposure
// into score units comparable with the usage fractions.
const oversubRiskWeight = 4.0

func (oversubPolicy) Kind() PlacementPolicy { return Oversub }
func (oversubPolicy) Score(m *cluster.Machine, req, usage trace.Resources) float64 {
	alloc := m.Allocated()
	capacity := m.Capacity
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

// oneShotPolicy schedules exactly like LeastAllocated but never retries:
// a task with no feasible machine (even after preemption) is abandoned
// rather than parked for backoff — the cluster either has room now or
// the work is dropped (the raz-bn k8s-cluster-simulator "oneshot"
// experiment arm). Against LeastAllocated under common random numbers,
// the paired difference isolates exactly what the retry loop buys.
type oneShotPolicy struct{ defaultPolicy }

func (oneShotPolicy) Kind() PlacementPolicy { return OneShot }
func (oneShotPolicy) RetryOnFailure() bool  { return false }
func (oneShotPolicy) Score(m *cluster.Machine, req, usage trace.Resources) float64 {
	return allocFraction(m, req, usage)
}

// policyRegistry maps each PlacementPolicy tag to its shared stateless
// implementation. Adding a policy means adding a const above, an entry
// here and a name in policyNames — the registration tests fail on any
// partial registration.
var policyRegistry = [numPolicies]Policy{
	RandomFit:      randomFitPolicy{},
	BestFit:        bestFitPolicy{},
	LeastAllocated: leastAllocatedPolicy{},
	WorstFit:       worstFitPolicy{},
	Oversub:        oversubPolicy{},
	OneShot:        oneShotPolicy{},
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

// PolicyFor resolves a policy tag to its implementation. It panics on an
// unregistered tag: a Config carrying one is a programming error, and
// every name-based path (ParsePolicy) cannot produce one.
func PolicyFor(p PlacementPolicy) Policy {
	if p < 0 || p >= numPolicies || policyRegistry[p] == nil {
		panic(fmt.Sprintf("scheduler: unregistered placement policy %d", int(p)))
	}
	return policyRegistry[p]
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
