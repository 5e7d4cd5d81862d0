package workload

import (
	"math"
	"slices"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tierGen is the precomputed sampling machinery for one tier.
type tierGen struct {
	params *TierParams
	prio   *dist.Categorical
	// The per-job NCU-hours integral is a two-part distribution, as in
	// Table 2: a body of mice (median ≈ 5e-5 NCU-hours) and a bounded
	// Pareto tail of hogs above 1 NCU-hour with the paper's α. hogWeight
	// is the hog fraction, solved so the tier consumes its usage budget.
	body      dist.BoundedPareto
	hogs      dist.BoundedPareto
	hogWeight float64
	taskTail  dist.BoundedPareto // tasks-per-job tail
	memRatio  dist.LogNormal
	ovCPU     dist.LogNormal
	ovMem     dist.LogNormal
	scaling   *dist.Categorical
	taskRate  dist.LogNormal // per-task mean CPU rate (NCU)
	restartsQ float64        // geometric continuation probability
}

// usageQuantile is the inverse CDF of the tier's NCU-hours mixture: the
// top hogWeight of ranks are hogs, the rest mice. Comonotone with the
// shared job-size rank.
func (tg *tierGen) usageQuantile(u float64) float64 {
	w := tg.hogWeight
	if u >= 1-w {
		return tg.hogs.Quantile(clampOpen((u - (1 - w)) / w))
	}
	return tg.body.Quantile(clampOpen(u / (1 - w)))
}

// liveRef tracks a recently submitted collection for parent / alloc-set
// selection: the generator's projection of when it will end.
type liveRef struct {
	id      trace.CollectionID
	projEnd sim.Time
	// free is the remaining per-instance reservation estimate (alloc
	// sets only).
	instRes trace.Resources
	freeCPU float64
}

// Generator synthesizes the arrival stream and job bodies for one cell.
type Generator struct {
	p       *CellProfile
	src     *rng.Source
	horizon sim.Time
	// capacityCPU is the cell's total NCU capacity, which anchors the
	// per-tier usage budgets.
	capacityCPU float64

	nextID   trace.CollectionID
	tierPick *dist.Categorical
	tiers    []tierGen
	// arr decides when collections arrive and who submits them.
	arr ArrivalProcess

	liveJobs   []liveRef
	liveAllocs []liveRef
	// out is Generate's result buffer, reused every arrival.
	out []*scheduler.Job
	// specs is the task-spec scratch Generate refills every arrival and
	// the generated jobs' Specs point into. Reuse lends it a released
	// generator's capacity, and Release hands it on.
	specs []scheduler.TaskSpec
}

// usageCompensation inflates per-job usage targets to offset early
// kills, parent-propagated kills and horizon truncation, which all
// remove planned usage.
const usageCompensation = 1.15

// NewGeneratorArrival builds a generator for the profile over the given
// horizon, with the arrival process the profile's parsed Arrival selects
// (default poisson). startID seeds collection IDs so multiple cells get
// disjoint ID spaces. It panics only on a hand-built ArrivalSpec naming
// an unregistered process; ParseArrival never returns one. Construction
// consumes no randomness, so building and discarding a generator never
// perturbs the cell's draw sequence.
func NewGeneratorArrival(p *CellProfile, capacityCPU float64, horizon sim.Time, src *rng.Source, startID trace.CollectionID) *Generator {
	g := &Generator{
		p:           p,
		src:         src,
		horizon:     horizon,
		capacityCPU: capacityCPU,
		nextID:      startID,
	}
	g.arr = newArrival(p.Arrival, p, horizon, src)
	shares := make([]float64, len(p.Tiers))
	rate := p.TotalArrivalRate()
	horizonHours := horizon.Hours()
	for i := range p.Tiers {
		tp := &p.Tiers[i]
		shares[i] = tp.ArrivalShare
		tierRate := rate * tp.ArrivalShare
		if tierRate <= 0 {
			tierRate = 1e-9
		}
		// Target mean NCU-hours per job so the tier consumes its budget
		// share of cell capacity.
		targetMean := tp.CPUBudget * capacityCPU / tierRate * usageCompensation
		// Cap single-hog consumption so one draw cannot eat the cell,
		// while leaving the hogs big enough to dominate the load (§7):
		// the largest job may consume up to ~6% of the cell-horizon,
		// stretched over most of the trace window.
		hMax := math.Min(0.75*tp.CPUBudget, 0.10) * capacityCPU * horizonHours
		if hMax < 4 {
			hMax = 4
		}
		body := dist.BoundedPareto{L: 2e-5, H: 1, Alpha: 0.75}
		hogs := dist.BoundedPareto{L: 1, H: hMax, Alpha: tp.UsageAlpha}
		// Solve the hog fraction for the tier's mean usage target.
		w := (targetMean - body.Mean()) / (hogs.Mean() - body.Mean())
		if w < 0.002 {
			w = 0.002
		}
		if w > 0.35 {
			w = 0.35
		}
		g.tiers = append(g.tiers, tierGen{
			params:    tp,
			prio:      dist.NewCategorical(tp.PriorityWeights),
			body:      body,
			hogs:      hogs,
			hogWeight: w,
			taskTail:  dist.BoundedPareto{L: 1, H: tp.TaskCap, Alpha: tp.TaskAlpha},
			memRatio:  dist.LogNormalFromMedian(tp.MemPerCPUMedian, tp.MemPerCPUSigma),
			ovCPU:     dist.LogNormalFromMedian(tp.OversizeCPU, tp.OversizeCPUSigma),
			ovMem:     dist.LogNormalFromMedian(tp.OversizeMem, tp.OversizeMemSigma),
			scaling:   dist.NewCategorical([]float64{tp.ScalingProbs[0], tp.ScalingProbs[1], tp.ScalingProbs[2]}),
			taskRate:  dist.LogNormalFromMedian(0.03, 0.8),
			restartsQ: tp.RestartMean / (1 + tp.RestartMean),
		})
	}
	g.tierPick = dist.NewCategorical(shares)
	return g
}

// NextInterArrival draws the time to the next job submission at simulation
// time now, delegating to the generator's arrival process (default: a
// homogeneous Poisson stream thinned by the diurnal envelope).
func (g *Generator) NextInterArrival(now sim.Time) sim.Time {
	return g.arr.NextInterArrival(now)
}

// Generate produces the collections submitted at time now: usually one
// job, occasionally preceded by a new alloc set (§5.1: 2% of collections
// are alloc sets). The jobs' Specs share the generator's scratch, which
// the next Generate overwrites (see JobSource).
func (g *Generator) Generate(now sim.Time) []*scheduler.Job {
	g.specs = g.specs[:0]
	out := g.out[:0]
	f := g.p.AllocSetFraction
	if f > 0 && g.src.Bool(f/(1-f)) {
		out = append(out, g.makeAllocSet(now))
	}
	out = append(out, g.makeJob(now))
	g.gc(now)
	g.out = out
	return out
}

// Reuse makes *spare the task-spec scratch's capacity and empties
// *spare. Call it before the first Generate.
func (g *Generator) Reuse(spare *[]scheduler.TaskSpec) {
	g.specs, *spare = (*spare)[:0], nil
}

// Release hands the generator's task-spec scratch to *spare, for
// another generator's Reuse. Call it once the jobs of the last Generate
// have been submitted; a later Generate grows a new scratch.
func (g *Generator) Release(spare *[]scheduler.TaskSpec) {
	*spare, g.specs = g.specs[:0], nil
}

// addSpecs extends the scratch by n specs and returns them, for the
// caller to overwrite whole and hand to one job. Their capacity ends at
// their length, so nothing appends into the next job's specs.
func (g *Generator) addSpecs(n int) []scheduler.TaskSpec {
	buf := slices.Grow(g.specs, n)
	start := len(buf)
	g.specs = buf[:start+n]
	return buf[start : start+n : start+n]
}

// gc trims the live lists so they do not grow without bound.
func (g *Generator) gc(now sim.Time) {
	trim := func(in []liveRef) []liveRef {
		out := in[:0]
		for _, r := range in {
			if r.projEnd > now {
				out = append(out, r)
			}
		}
		if len(out) > 400 {
			out = out[len(out)-400:]
		}
		return out
	}
	g.liveJobs = trim(g.liveJobs)
	g.liveAllocs = trim(g.liveAllocs)
}

func (g *Generator) newID() trace.CollectionID {
	id := g.nextID
	g.nextID++
	return id
}

func (g *Generator) user() string {
	return g.arr.User()
}

// makeAllocSet builds an alloc-set collection with a handful of sizeable
// reservations and a long lifetime.
func (g *Generator) makeAllocSet(now sim.Time) *scheduler.Job {
	j := scheduler.NewJob(g.newID())
	j.CollectionType = trace.CollectionAllocSet
	j.Priority = 200
	j.Tier = trace.TierProduction
	j.User = g.user()
	j.Outcome = scheduler.OutcomeFinish

	remaining := g.horizon - now
	durFrac := 0.6 + 0.5*g.src.Float64()
	duration := sim.Time(float64(remaining) * durFrac)
	if duration < sim.Hour {
		duration = sim.Hour
	}

	n := 2 + g.src.Intn(12)
	cpu := clamp(dist.LogNormalFromMedian(0.12, 0.5).Sample(g.src), 0.04, 0.40)
	mem := clamp(dist.LogNormalFromMedian(0.12, 0.5).Sample(g.src), 0.04, 0.40)
	res := trace.Resources{CPU: cpu, Mem: mem}
	j.Specs = g.addSpecs(n)
	for i := range j.Specs {
		j.Specs[i] = scheduler.TaskSpec{
			Request:  res,
			Duration: duration,
			// The reservation itself "uses" nothing; inner tasks do.
			MeanCPU: 0, MeanMem: 0, PeakFact: 1,
		}
	}
	g.liveAllocs = append(g.liveAllocs, liveRef{
		id:      j.ID,
		projEnd: now + duration,
		instRes: res,
		freeCPU: cpu * float64(n),
	})
	return j
}

// makeJob builds one job, coupling tasks-per-job and total consumption
// through a shared quantile so big jobs are big on both axes.
func (g *Generator) makeJob(now sim.Time) *scheduler.Job {
	ti := g.tierPick.Draw(g.src)
	tg := &g.tiers[ti]
	tp := tg.params

	j := scheduler.NewJob(g.newID())
	j.CollectionType = trace.CollectionJob
	j.Tier = tp.Tier
	j.Priority = tp.Priorities[tg.prio.Draw(g.src)]
	j.User = g.user()
	if tp.BatchScheduler && g.p.Sched.Batch {
		j.Scheduler = trace.SchedulerBatch
	}
	j.Scaling = trace.VerticalScaling(tg.scaling.Draw(g.src))

	// Shared size quantile with a rank-preserving copula: with high
	// probability the task count and the usage integral share the same
	// rank, so big jobs are big on both axes, while each marginal stays
	// exactly as calibrated.
	u := g.src.Float64()
	n := g.taskCount(tg, copulaJitter(u, 0.85, g.src))
	ncuHours := tg.usageQuantile(copulaJitter(u, 0.85, g.src))
	nmuHours := ncuHours * tg.memRatio.Sample(g.src)

	// Decompose the integral into (tasks × per-task rate × duration).
	// Ordinary jobs stay under ~1/3 of the horizon; hogs stretch over a
	// longer window first (they are long-running in reality), and only
	// grow extra tasks when even that is not enough — a physical
	// constraint that keeps their instantaneous footprint modest.
	maxDur := 0.35 * g.horizon.Hours()
	hogDur := math.Min(0.85*g.horizon.Hours(), 18)
	const maxRate = 0.25
	if ncuHours/(float64(n)*maxRate) > maxDur {
		maxDur = hogDur
	}
	if minTasks := int(math.Ceil(ncuHours / (hogDur * maxRate))); minTasks > n {
		n = minTasks
		if n > 5000 {
			n = 5000
		}
	}
	rate := clamp(tg.taskRate.Sample(g.src), 0.002, maxRate)
	durHours := clamp(ncuHours/(float64(n)*rate), 2.0/60, maxDur)

	// Dependencies (§5.2): children are attached to a live job and
	// stretched to outlast it, so the parent's exit kills them — this is
	// what drives the trace's 87%-vs-41% kill-rate gap.
	if tp.ParentProb > 0 && g.src.Bool(tp.ParentProb) {
		if ref := g.pickParent(now); ref != nil {
			j.Parent = ref.id
			parentRemaining := (ref.projEnd - now).Hours()
			stretched := parentRemaining * (1.05 + 0.6*g.src.Float64())
			if stretched > durHours {
				durHours = stretched
			}
		}
	}

	rate = clamp(ncuHours/(float64(n)*durHours), 0.0008, 0.30)
	memRate := clamp(nmuHours/(float64(n)*durHours), 0.0004, 0.30)
	// Jobs do not outlive the trace window: a late arrival keeps its
	// rate but is truncated at the horizon (an edge effect the real
	// trace's boundaries have too).
	remaining := (g.horizon - now).Hours() - 0.02
	if remaining < 2.0/60 {
		remaining = 2.0 / 60
	}
	if durHours > remaining {
		durHours = remaining
	}
	duration := sim.FromHours(durHours)

	// Alloc-set targeting (§5.1): mostly production jobs.
	allocProb := 0.0
	if tp.Tier == trace.TierProduction {
		allocProb = g.p.ProdAllocProb
	} else if g.p.ProdAllocProb > 0 {
		allocProb = 0.02
	}
	var hostRes trace.Resources
	if allocProb > 0 && g.src.Bool(allocProb) {
		if ref := g.pickAlloc(now, float64(n)*rate); ref != nil {
			j.AllocSet = ref.id
			hostRes = ref.instRes
			memRate = clamp(memRate*g.p.InAllocMemBoost, 0.0004, 0.35)
		}
	}

	// Requests: usage times an oversize factor; memory must normally
	// clear the peak, except for deliberately under-provisioned tasks
	// that become OOM-evictable (§5.2 overcommit evictions).
	peak := clamp(1.15+math.Abs(g.src.NormFloat64())*0.25, 1.05, 2.5)
	// Keep peak memory beneath the largest request we are willing to
	// issue, so reqMem can always cover it.
	memRate = clamp(memRate, 0.0004, 0.33/peak)
	reqCPU := clamp(rate*tg.ovCPU.Sample(g.src), rate*1.05, 0.35)
	var reqMem float64
	underProv := g.src.Bool(g.p.MemUnderProvisionProb)
	if underProv {
		reqMem = clamp(memRate*(0.9+0.15*g.src.Float64()), 0.0004, 0.35)
	} else {
		reqMem = clamp(memRate*tg.ovMem.Sample(g.src), memRate*peak*1.02, 0.35)
	}
	if j.AllocSet != 0 {
		// Must fit inside one alloc instance's reservation.
		reqCPU = math.Min(reqCPU, hostRes.CPU*0.85)
		reqMem = math.Min(reqMem, hostRes.Mem*0.85)
		rate = math.Min(rate, reqCPU*0.95)
		memRate = math.Min(memRate, reqMem*0.95)
	}

	// Outcomes for parentless jobs.
	if j.Parent == 0 {
		r := g.src.Float64()
		switch {
		case r < tp.KillProb:
			j.Outcome = scheduler.OutcomeKill
			j.KillAfter = sim.Time(float64(duration) * (0.08 + 0.84*g.src.Float64()))
		case r < tp.KillProb+tp.FailProb:
			j.Outcome = scheduler.OutcomeFail
		default:
			j.Outcome = scheduler.OutcomeFinish
		}
	}

	j.Specs = g.addSpecs(n)
	for i := range j.Specs {
		// Per-task wobble around the job mean, never above the CPU
		// limit (memory may exceed it only for the under-provisioned).
		taskRate := clamp(rate*lognormJitter(g.src, 0.15), 0.0005, reqCPU)
		memCeil := 0.35
		if !underProv {
			memCeil = reqMem / peak
		}
		taskMem := clamp(memRate*lognormJitter(g.src, 0.15), 0.0003, memCeil)
		j.Specs[i] = scheduler.TaskSpec{
			Request:  trace.Resources{CPU: reqCPU, Mem: reqMem},
			Duration: duration,
			Restarts: g.restarts(tg),
			MeanCPU:  taskRate,
			MeanMem:  taskMem,
			PeakFact: peak,
		}
	}

	g.liveJobs = append(g.liveJobs, liveRef{id: j.ID, projEnd: now + duration})
	return j
}

// taskCount draws the number of tasks for a job at quantile u
// (Figure 11's per-tier distributions).
func (g *Generator) taskCount(tg *tierGen, u float64) int {
	sp := tg.params.TaskSingleProb
	if u < sp {
		return 1
	}
	cond := (u - sp) / (1 - sp)
	n := 1 + int(tg.taskTail.Quantile(clampOpen(cond)))
	if n < 1 {
		n = 1
	}
	if n > int(tg.params.TaskCap) {
		n = int(tg.params.TaskCap)
	}
	return n
}

// restarts draws the scripted crash-restart count (geometric, capped).
func (g *Generator) restarts(tg *tierGen) int {
	k := 0
	for k < 14 && g.src.Bool(tg.restartsQ) {
		k++
	}
	return k
}

// pickParent returns a random live job to act as the parent — preferring
// one ending within a few hours so children need not be stretched to
// extremes.
func (g *Generator) pickParent(now sim.Time) *liveRef {
	if len(g.liveJobs) == 0 {
		return nil
	}
	var best *liveRef
	for attempt := 0; attempt < 6; attempt++ {
		ref := &g.liveJobs[g.src.Intn(len(g.liveJobs))]
		if ref.projEnd <= now {
			continue
		}
		if best == nil || ref.projEnd < best.projEnd {
			best = ref
		}
	}
	return best
}

// pickAlloc finds a live alloc set with spare estimated CPU for the job.
func (g *Generator) pickAlloc(now sim.Time, needCPU float64) *liveRef {
	for attempt := 0; attempt < 4 && len(g.liveAllocs) > 0; attempt++ {
		ref := &g.liveAllocs[g.src.Intn(len(g.liveAllocs))]
		if ref.projEnd > now && ref.freeCPU > needCPU*0.5 {
			ref.freeCPU -= needCPU
			return ref
		}
	}
	return nil
}

// copulaJitter keeps the shared rank u with probability keep, otherwise
// draws a fresh independent rank. Unlike additive noise, this leaves the
// marginal distribution exactly uniform.
func copulaJitter(u, keep float64, src *rng.Source) float64 {
	if src.Bool(keep) {
		return u
	}
	return src.Float64()
}

func clampOpen(u float64) float64 {
	if u < 1e-9 {
		return 1e-9
	}
	if u > 1-1e-9 {
		return 1 - 1e-9
	}
	return u
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// lognormJitter returns a multiplicative lognormal factor with median 1.
func lognormJitter(src *rng.Source, sigma float64) float64 {
	return math.Exp(sigma * src.NormFloat64())
}
