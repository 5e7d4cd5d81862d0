package workload

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/sim"
)

// diurnalEnvelope is the deterministic arrival-rate modulation every
// arrival process runs under: the cell's base rate (jobs/hour) swung by
// one daily sinusoid, Rate(t) = base · (1 + amplitude·sin(2π(t+phase)/day)).
// phase shifts the cycle (cell g runs at Singapore local time), and
// MaxRate is the hard upper bound base · (1 + |amplitude|), the thinning
// bound for rejection sampling.
type diurnalEnvelope struct {
	base      float64
	amplitude float64
	phase     sim.Time
}

// Rate returns the modulated rate at time t. Its float operation order
// is load-bearing: it reproduces the original diurnal computation bit
// for bit, which keeps the default poisson process byte-identical at the
// same seed.
func (e diurnalEnvelope) Rate(t sim.Time) float64 {
	s := 1.0
	s += e.amplitude * math.Sin(2*math.Pi*float64(t+e.phase)/float64(sim.Day))
	return e.base * s
}

// MaxRate returns the envelope's hard upper bound over all t.
func (e diurnalEnvelope) MaxRate() float64 { return e.base * (1 + math.Abs(e.amplitude)) }

// envelopeFor builds the profile's calibrated envelope: the cell's total
// arrival rate under its diurnal modulation.
func envelopeFor(p *CellProfile) diurnalEnvelope {
	return diurnalEnvelope{base: p.TotalArrivalRate(), amplitude: p.DiurnalAmplitude, phase: p.DiurnalPhase}
}

// ArrivalProcess is the pluggable arrival seam of the workload
// generator: it decides when the next collection is submitted and by
// whom. Implementations draw exclusively from the generator's rng
// source, so a cell's randomness stays a pure function of its seed.
//
// The contract with the caller (core.Run's arrival loop):
//
//   - NextInterArrival(now) returns the delta to the next submission. A
//     result placing the arrival at or beyond the horizon stops the
//     loop; after that the process is never consulted again.
//   - User() names the submitting user for collections created at the
//     current arrival. It is called between one NextInterArrival return
//     and the next call, possibly more than once (a job preceded by an
//     alloc set).
type ArrivalProcess interface {
	// NextInterArrival returns the time from now to the next submission.
	NextInterArrival(now sim.Time) sim.Time
	// User returns the submitting user of the current arrival.
	User() string
}

// ArrivalSpec is a parsed arrival-process selection: a registered
// process name plus validated numeric knobs. The zero value selects the
// default poisson process.
type ArrivalSpec struct {
	// Name is the registered process name; empty means "poisson".
	Name string
	// Knobs are the per-process parameters (see ParseArrival).
	Knobs map[string]float64
	raw   string
}

// String returns the spec as ParseArrival accepted it (the canonical
// process name for the zero value).
func (s ArrivalSpec) String() string {
	if s.raw != "" {
		return s.raw
	}
	if s.Name != "" {
		return s.Name
	}
	return "poisson"
}

// knob returns a knob value or its default.
func (s ArrivalSpec) knob(name string, def float64) float64 {
	if v, ok := s.Knobs[name]; ok {
		return v
	}
	return def
}

// arrivalEntry is one registered process: its valid knob names and its
// constructor.
type arrivalEntry struct {
	knobs []string
	build func(spec ArrivalSpec, env diurnalEnvelope, horizon sim.Time, src *rng.Source) ArrivalProcess
}

// arrivalRegistry is the single name table behind ParseArrival,
// ArrivalNames and newArrival — there is no other switch to keep in
// sync.
var arrivalRegistry = map[string]arrivalEntry{
	"poisson": {knobs: nil, build: newPoissonArrival},
	"gamma":   {knobs: []string{"cv"}, build: newGammaArrival},
	"weibull": {knobs: []string{"cv"}, build: newWeibullArrival},
	"cohorts": {knobs: []string{"cv", "k", "skew"}, build: newCohortArrival},
}

// ArrivalNames returns the registered arrival-process names, sorted —
// the valid set ParseArrival accepts, for help text and error messages.
func ArrivalNames() []string {
	out := make([]string, 0, len(arrivalRegistry))
	for name := range arrivalRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ParseArrival parses an arrival-process spec string:
//
//	name[:knob=value[,knob=value...]]
//
// "+" also separates knobs ("cohorts:k=40+cv=2"), so a spec can embed in
// sweep variant clauses whose own grammar claims the comma. Registered
// processes and their knobs:
//
//   - "poisson" — the default diurnally-thinned Poisson stream (no
//     knobs); byte-identical at the same seed to the pre-API generator.
//   - "gamma:cv=C" — a renewal process with gamma inter-arrival times of
//     coefficient of variation C (default 1); C > 1 is bursty.
//   - "weibull:cv=C" — likewise with Weibull inter-arrivals.
//   - "cohorts:k=K,skew=S,cv=C" — K clients with Zipf(S)-skewed rates,
//     each an independent gamma renewal process with the given CV,
//     superposed; the firing client is the submitting user. Defaults
//     are the user model's 50 users at skew 1.2, and cv 1.
//
// An empty spec selects poisson. Unknown process and knob names error
// with the valid set, so a typo never silently simulates the wrong
// workload.
func ParseArrival(spec string) (ArrivalSpec, error) {
	raw := strings.TrimSpace(spec)
	if raw == "" {
		return ArrivalSpec{}, nil
	}
	name, rest, hasKnobs := strings.Cut(raw, ":")
	name = strings.TrimSpace(name)
	entry, ok := arrivalRegistry[name]
	if !ok {
		return ArrivalSpec{}, fmt.Errorf("workload: unknown arrival process %q (processes: %s)",
			name, strings.Join(ArrivalNames(), ", "))
	}
	out := ArrivalSpec{Name: name, raw: raw}
	if !hasKnobs {
		return out, nil
	}
	out.Knobs = make(map[string]float64)
	for _, kv := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == '+' }) {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		knob, value, ok := strings.Cut(kv, "=")
		if !ok {
			return ArrivalSpec{}, fmt.Errorf("workload: bad arrival knob %q in %q (want knob=value)", kv, raw)
		}
		knob = strings.TrimSpace(knob)
		valid := false
		for _, k := range entry.knobs {
			if k == knob {
				valid = true
				break
			}
		}
		if !valid {
			if len(entry.knobs) == 0 {
				return ArrivalSpec{}, fmt.Errorf("workload: arrival process %q takes no knobs (got %q)", name, knob)
			}
			return ArrivalSpec{}, fmt.Errorf("workload: unknown arrival knob %q for process %q (knobs: %s)",
				knob, name, strings.Join(entry.knobs, ", "))
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		if err != nil {
			return ArrivalSpec{}, fmt.Errorf("workload: bad value %q for arrival knob %q in %q", value, knob, raw)
		}
		if !(v > 0) || math.IsInf(v, 1) {
			return ArrivalSpec{}, fmt.Errorf("workload: arrival knob %s=%g in %q must be positive and finite", knob, v, raw)
		}
		out.Knobs[knob] = v
	}
	return out, nil
}

// MustParseArrival is ParseArrival for static configuration: it panics
// on a malformed spec, like scheduler.MustParsePolicy.
func MustParseArrival(spec string) ArrivalSpec {
	s, err := ParseArrival(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// newArrival instantiates the spec's process for one generator.
func newArrival(spec ArrivalSpec, p *CellProfile, horizon sim.Time, src *rng.Source) ArrivalProcess {
	name := spec.Name
	if name == "" {
		name = "poisson"
	}
	entry, ok := arrivalRegistry[name]
	if !ok {
		panic(fmt.Sprintf("workload: unknown arrival process %q (processes: %s)",
			name, strings.Join(ArrivalNames(), ", ")))
	}
	return entry.build(spec, envelopeFor(p), horizon, src)
}

// users and userSkew calibrate the Zipf user-popularity model (and the
// cohorts process's default client population): 50 users at skew 1.2.
const (
	users    = 50
	userSkew = 1.2
)

// zipfUsers is the shared user-popularity model of the single-stream
// processes: ranks drawn Zipf-skewed from the generator's source (one
// uniform per draw, exactly as before the API split).
type zipfUsers struct {
	zipf *dist.Zipf
	src  *rng.Source
}

func newZipfUsers(src *rng.Source) zipfUsers {
	return zipfUsers{zipf: dist.NewZipf(users, userSkew), src: src}
}

func (z zipfUsers) user() string {
	return fmt.Sprintf("user-%02d", z.zipf.Draw(z.src))
}

// minArrivalRate floors envelope rates before division so a zero-rate
// trough cannot produce an infinite interval mid-computation.
const minArrivalRate = 1e-9

// maxThinningSteps bounds the poisson process's rejection loop. The
// acceptance probability is at least (1−A)/(1+A) per step for a diurnal
// amplitude A, so with calibrated profiles (A ≤ 0.3) exhaustion is
// impossible; hitting the cap means the envelope bound is broken and the
// workload would be silently distorted, so it is a loud error.
const maxThinningSteps = 100000

// poissonArrival is the default process: a homogeneous Poisson stream at
// the envelope's MaxRate, thinned by Rate(t)/MaxRate — byte-identical at
// the same seed to the pre-API generator.
type poissonArrival struct {
	env     diurnalEnvelope
	src     *rng.Source
	horizon sim.Time
	users   zipfUsers
}

func newPoissonArrival(spec ArrivalSpec, env diurnalEnvelope, horizon sim.Time, src *rng.Source) ArrivalProcess {
	return &poissonArrival{env: env, src: src, horizon: horizon, users: newZipfUsers(src)}
}

func (a *poissonArrival) User() string { return a.users.user() }

func (a *poissonArrival) NextInterArrival(now sim.Time) sim.Time {
	max := a.env.MaxRate()
	if max <= 0 {
		return a.horizon
	}
	t := now
	for i := 0; i < maxThinningSteps; i++ {
		step := dist.Exponential{Rate: max}.Sample(a.src) // hours
		t += sim.FromHours(step)
		if a.src.Float64() <= a.env.Rate(t)/max {
			return t - now
		}
		if t >= a.horizon {
			// Every candidate past the horizon is discarded by the caller
			// and the process is never consulted again, so stop drawing.
			// (The pre-API loop kept thinning here; the trace is identical
			// because no later draw can be observed.)
			return t - now
		}
	}
	panic(fmt.Sprintf(
		"workload: poisson arrival thinning exhausted %d steps before %v (envelope max %g, rate at t %g) — envelope bound broken",
		maxThinningSteps, a.horizon, max, a.env.Rate(t)))
}

// renewalArrival generalizes the stream to i.i.d. mean-one inter-arrival
// draws rescaled by the envelope rate at the previous arrival: gamma or
// Weibull bodies put a CV knob on burstiness that a Poisson stream
// (CV = 1, memoryless) cannot express.
type renewalArrival struct {
	env     diurnalEnvelope
	src     *rng.Source
	horizon sim.Time
	sampler dist.Sampler // mean-one inter-arrival law
	users   zipfUsers
}

func newGammaArrival(spec ArrivalSpec, env diurnalEnvelope, horizon sim.Time, src *rng.Source) ArrivalProcess {
	cv := spec.knob("cv", 1)
	shape := 1 / (cv * cv)
	return &renewalArrival{
		env: env, src: src, horizon: horizon,
		sampler: dist.Gamma{Shape: shape, Scale: 1 / shape},
		users:   newZipfUsers(src),
	}
}

func newWeibullArrival(spec ArrivalSpec, env diurnalEnvelope, horizon sim.Time, src *rng.Source) ArrivalProcess {
	cv := spec.knob("cv", 1)
	shape := dist.WeibullShapeFromCV(cv)
	return &renewalArrival{
		env: env, src: src, horizon: horizon,
		sampler: dist.Weibull{Shape: shape, Scale: 1 / math.Gamma(1+1/shape)},
		users:   newZipfUsers(src),
	}
}

func (a *renewalArrival) User() string { return a.users.user() }

func (a *renewalArrival) NextInterArrival(now sim.Time) sim.Time {
	rate := a.env.Rate(now)
	if rate <= minArrivalRate {
		return a.horizon
	}
	d := sim.FromHours(a.sampler.Sample(a.src) / rate)
	if d < 1 {
		d = 1 // never collapse below clock resolution
	}
	return d
}

// cohortArrival superposes K per-client renewal streams: client ranks
// carry Zipf-skewed shares of the cell rate, each client draws gamma
// inter-arrivals with the given CV, and the earliest pending client
// fires — so heavy users are bursty in their own right and the firing
// client is the submitting user (replacing the independent Zipf user
// draw of the single-stream processes).
type cohortArrival struct {
	env     diurnalEnvelope
	src     *rng.Source
	horizon sim.Time
	shares  []float64 // normalized Zipf weights, rank order
	names   []string
	sampler dist.Sampler // mean-one gamma at the cohort CV
	next    []sim.Time
	started bool
	cur     int
}

func newCohortArrival(spec ArrivalSpec, env diurnalEnvelope, horizon sim.Time, src *rng.Source) ArrivalProcess {
	k := int(spec.knob("k", users))
	if k < 1 {
		k = 1
	}
	skew := spec.knob("skew", userSkew)
	cv := spec.knob("cv", 1)
	shape := 1 / (cv * cv)
	shares := make([]float64, k)
	total := 0.0
	for i := range shares {
		shares[i] = math.Pow(float64(i+1), -skew)
		total += shares[i]
	}
	names := make([]string, k)
	for i := range names {
		shares[i] /= total
		names[i] = fmt.Sprintf("user-%02d", i)
	}
	return &cohortArrival{
		env: env, src: src, horizon: horizon,
		shares: shares, names: names,
		sampler: dist.Gamma{Shape: shape, Scale: 1 / shape},
		next:    make([]sim.Time, k),
	}
}

func (a *cohortArrival) User() string { return a.names[a.cur] }

// interval draws client i's next inter-arrival at time now: a mean-one
// gamma over the client's share of the envelope rate.
func (a *cohortArrival) interval(i int, now sim.Time) sim.Time {
	rate := a.shares[i] * a.env.Rate(now)
	if rate <= minArrivalRate {
		return a.horizon + sim.Day // effectively never
	}
	d := sim.FromHours(a.sampler.Sample(a.src) / rate)
	if d < 1 {
		d = 1
	}
	return d
}

func (a *cohortArrival) NextInterArrival(now sim.Time) sim.Time {
	if !a.started {
		// Lazily seed every client's first arrival so construction
		// consumes no randomness (the generator's own contract).
		a.started = true
		for i := range a.next {
			a.next[i] = now + a.interval(i, now)
		}
	} else {
		a.next[a.cur] = now + a.interval(a.cur, now)
	}
	best := 0
	for i, t := range a.next {
		if t < a.next[best] {
			best = i
		}
	}
	a.cur = best
	d := a.next[best] - now
	if d < 1 {
		d = 1
	}
	return d
}
