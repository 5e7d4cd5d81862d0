package sweep

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/scheduler"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Baseline returns the identity variant: profiles simulate exactly as
// the experiments suite builds them.
func Baseline() Variant { return Variant{Name: "baseline"} }

// ArrivalScale returns a variant multiplying every cell's job arrival
// rate by f (load sensitivity).
func ArrivalScale(f float64) Variant {
	return Variant{
		Name:  "arrival:" + ftoa(f),
		Apply: func(p *workload.CellProfile) { p.JobsPerHour *= f },
	}
}

// MachineScale returns a variant multiplying every cell's machine count
// by f, rounded, never below one machine (capacity sensitivity).
func MachineScale(f float64) Variant {
	return Variant{
		Name: "machines:" + ftoa(f),
		Apply: func(p *workload.CellProfile) {
			m := int(math.Round(float64(p.Machines) * f))
			if m < 1 {
				m = 1
			}
			p.Machines = m
		},
	}
}

// OvercommitScale returns a variant multiplying both overcommit factors
// by f (§4's allocation-ceiling sensitivity).
func OvercommitScale(f float64) Variant {
	return Variant{
		Name: "overcommit:" + ftoa(f),
		Apply: func(p *workload.CellProfile) {
			p.Overcommit.CPUFactor *= f
			p.Overcommit.MemFactor *= f
		},
	}
}

// AllocCeiling returns a variant pinning the batch admission
// controller's best-effort-batch CPU ceiling to the absolute fraction v.
func AllocCeiling(v float64) Variant {
	return Variant{
		Name:  "allocceiling:" + ftoa(v),
		Apply: func(p *workload.CellProfile) { p.Sched.BatchAllocCeiling = v },
	}
}

// ProdShift returns a variant multiplying the production tier's arrival
// share by f and renormalizing the tier mix to sum to one (tier-mix
// sensitivity: cell a versus cell b is exactly such a shift).
func ProdShift(f float64) Variant {
	return Variant{
		Name: "prodshift:" + ftoa(f),
		Apply: func(p *workload.CellProfile) {
			total := 0.0
			for i := range p.Tiers {
				if p.Tiers[i].Tier == trace.TierProduction {
					p.Tiers[i].ArrivalShare *= f
				}
				total += p.Tiers[i].ArrivalShare
			}
			if total <= 0 {
				return
			}
			for i := range p.Tiers {
				p.Tiers[i].ArrivalShare /= total
			}
		},
	}
}

// ArrivalProcessVariant returns a variant pinning every cell's arrival
// process to the given spec (see workload.ParseArrival) — same clusters,
// same policies, different inter-arrival structure. Inside variant
// clauses a multi-knob spec separates its knobs with "+" rather than ","
// (e.g. "cohorts:k=40+skew=1.5"), because "," already separates clause
// values. It errors on an unknown process or knob rather than silently
// no-opping.
func ArrivalProcessVariant(spec string) (Variant, error) {
	parsed, err := workload.ParseArrival(spec)
	if err != nil {
		return Variant{}, fmt.Errorf("sweep: %w", err)
	}
	return Variant{
		Name:  "arrival:" + parsed.String(),
		Apply: func(p *workload.CellProfile) { p.Arrival = parsed },
	}, nil
}

// arrivalVariant builds one value of the polymorphic arrival family: a
// plain number keeps its historical meaning as a rate multiplier
// (ArrivalScale), anything else is an arrival-process spec
// (ArrivalProcessVariant).
func arrivalVariant(value, clause string) (Variant, error) {
	if f, err := strconv.ParseFloat(value, 64); err == nil {
		if err := checkValue(f, clause); err != nil {
			return Variant{}, err
		}
		return ArrivalScale(f), nil
	}
	v, err := ArrivalProcessVariant(value)
	if err != nil {
		return Variant{}, fmt.Errorf("%w (in clause %q)", err, clause)
	}
	return v, nil
}

// PolicyVariant returns a variant pinning every cell's placement policy
// to the named brain from the scheduler's policy zoo — same clusters,
// same arrivals, different scheduler. It errors (rather than silently
// no-opping) on a name outside the registered set.
func PolicyVariant(name string) (Variant, error) {
	policy, err := scheduler.ParsePolicy(name)
	if err != nil {
		return Variant{}, fmt.Errorf("sweep: %w", err)
	}
	return Variant{
		Name:  "policy:" + name,
		Apply: func(p *workload.CellProfile) { p.Sched.Policy = policy },
	}, nil
}

// families maps a ParseVariants family keyword to its constructor.
var families = map[string]func(float64) Variant{
	"arrival":      ArrivalScale,
	"machines":     MachineScale,
	"overcommit":   OvercommitScale,
	"allocceiling": AllocCeiling,
	"prodshift":    ProdShift,
}

// knobNames returns the valid composite-clause knobs, sorted, for error
// messages: the numeric families plus policy.
func knobNames() []string {
	out := make([]string, 0, len(families)+1)
	for name := range families {
		out = append(out, name)
	}
	out = append(out, "policy")
	sort.Strings(out)
	return out
}

// familyNames returns the valid clause keywords, sorted, for error
// messages: the knobs plus baseline.
func familyNames() []string {
	out := append(knobNames(), "baseline")
	sort.Strings(out)
	return out
}

// knobVariant builds the overlay for one value of a knob, in a
// "family:v1,v2" clause or a named composite's knob=value: the numeric
// families by parsed float, "policy" by policy name, and
// "arrival" polymorphically — a number scales the rate, anything else
// selects an arrival process (knobs "+"-separated, see ArrivalProcessVariant).
func knobVariant(knob, value, clause string) (Variant, error) {
	if knob == "policy" {
		v, err := PolicyVariant(value)
		if err != nil {
			return Variant{}, fmt.Errorf("%w (in clause %q)", err, clause)
		}
		return v, nil
	}
	if knob == "arrival" {
		return arrivalVariant(value, clause)
	}
	mk := families[knob]
	if mk == nil {
		return Variant{}, fmt.Errorf("sweep: unknown knob %q in clause %q (knobs: %s)",
			knob, clause, strings.Join(knobNames(), ", "))
	}
	f, err := strconv.ParseFloat(value, 64)
	if err != nil {
		return Variant{}, fmt.Errorf("sweep: bad value %q for knob %q in clause %q", value, knob, clause)
	}
	if err := checkValue(f, clause); err != nil {
		return Variant{}, err
	}
	return mk(f), nil
}

// checkValue requires a numeric variant value to be finite and above 0.
// ParseFloat accepts "NaN" and "Inf", and either would scale a profile
// into nonsense.
func checkValue(f float64, clause string) error {
	if f > 0 && !math.IsInf(f, 1) {
		return nil
	}
	return fmt.Errorf("sweep: value %g in clause %q must be finite and above 0", f, clause)
}

// parseNamedClause parses a "name:knob=value[,knob=value...]" composite
// clause into one variant carrying the clause's own name and applying
// every knob overlay in order.
func parseNamedClause(name, values, clause string) (Variant, error) {
	if name == "" {
		return Variant{}, fmt.Errorf("sweep: composite clause %q has no name (want name:knob=value)", clause)
	}
	var overlays []func(*workload.CellProfile)
	for _, kv := range strings.Split(values, ",") {
		knob, value, ok := strings.Cut(kv, "=")
		if !ok {
			return Variant{}, fmt.Errorf("sweep: bad knob assignment %q in clause %q (want knob=value)", kv, clause)
		}
		v, err := knobVariant(strings.TrimSpace(knob), strings.TrimSpace(value), clause)
		if err != nil {
			return Variant{}, err
		}
		overlays = append(overlays, v.Apply)
	}
	return Variant{
		Name: name,
		Apply: func(p *workload.CellProfile) {
			for _, apply := range overlays {
				apply(p)
			}
		},
	}, nil
}

// ParseVariants parses a CLI sweep specification: semicolon-separated
// clauses, each one of
//
//   - "baseline" — the identity variant;
//   - "family:v1,v2,..." — one variant per numeric value. Families:
//     arrival, machines, overcommit (multipliers), allocceiling
//     (absolute fraction), prodshift (production-share multiplier);
//   - "policy:name1,name2,..." — one variant per placement policy from
//     the scheduler zoo (scheduler.PolicyNames);
//   - "arrival:spec1,spec2,..." — the arrival family is polymorphic:
//     a numeric value keeps its rate-multiplier meaning, anything else
//     selects an arrival process by spec (workload.ParseArrival), e.g.
//     "arrival:gamma:cv=2.5,cohorts:k=40+skew=1.5" — multi-knob specs
//     join knobs with "+" because "," separates clause values;
//   - "name:knob=value[,knob=value...]" — a named composite variant
//     applying each knob overlay in order; knobs are the families above
//     plus policy.
//
// Example:
//
//	baseline;arrival:0.5,weibull:cv=3;policy:best-fit;zoo-hot:policy=oversub,arrival=1.5
//
// expands to five variants. Unknown clause, knob, policy and arrival
// names error with the valid set — a typo never silently no-ops. An
// empty spec yields just the baseline.
func ParseVariants(spec string) ([]Variant, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return []Variant{Baseline()}, nil
	}
	var out []Variant
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if clause == "baseline" {
			out = append(out, Baseline())
			continue
		}
		family, values, ok := strings.Cut(clause, ":")
		family = strings.TrimSpace(family)
		if !ok {
			return nil, fmt.Errorf("sweep: unknown variant clause %q (clauses: %s, or name:knob=value)",
				clause, strings.Join(familyNames(), ", "))
		}
		// The arrival family is checked before the "=" composite test:
		// arrival-process specs like "gamma:cv=2.5" carry their own "=".
		if family != "arrival" && strings.Contains(values, "=") {
			v, err := parseNamedClause(family, values, clause)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
			continue
		}
		if !slices.Contains(knobNames(), family) {
			return nil, fmt.Errorf("sweep: unknown variant family %q in clause %q (clauses: %s, or name:knob=value)",
				family, clause, strings.Join(familyNames(), ", "))
		}
		for _, value := range strings.Split(values, ",") {
			v, err := knobVariant(family, strings.TrimSpace(value), clause)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return []Variant{Baseline()}, nil
	}
	return out, nil
}

// ftoa formats a variant parameter so the name round-trips exactly.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
