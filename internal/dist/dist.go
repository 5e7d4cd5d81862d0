// Package dist provides the parametric probability distributions the
// workload generator and scheduler are calibrated with: log-normals for
// service times and oversize factors, bounded Paretos for the
// heavy-tailed job-size and usage integrals of §7, exponentials for
// arrival thinning, and discrete Zipf/categorical pickers.
//
// Every distribution draws exclusively from an explicit *rng.Source, so a
// simulation's randomness remains a pure function of its root seed — the
// same determinism contract the engine relies on for parallel runs.
package dist

import (
	"math"
	"sort"

	"repro/internal/rng"
)

// Sampler is a distribution that can draw one float64 variate.
type Sampler interface {
	Sample(src *rng.Source) float64
}

// LogNormal is the distribution of exp(N(Mu, Sigma²)).
type LogNormal struct {
	Mu    float64 // mean of the underlying normal (log of the median)
	Sigma float64 // standard deviation of the underlying normal
}

// LogNormalFromMedian builds a log-normal from its median and log-space
// sigma — the parameterization the paper's fits are quoted in.
func LogNormalFromMedian(median, sigma float64) LogNormal {
	if median <= 0 {
		median = math.SmallestNonzeroFloat64
	}
	return LogNormal{Mu: math.Log(median), Sigma: sigma}
}

// Sample draws one variate.
func (l LogNormal) Sample(src *rng.Source) float64 {
	return math.Exp(l.Mu + l.Sigma*src.NormFloat64())
}

// Exponential is the exponential distribution with the given rate
// (events per unit time); its mean is 1/Rate.
type Exponential struct {
	Rate float64
}

// Sample draws one variate by inversion.
func (e Exponential) Sample(src *rng.Source) float64 {
	return -math.Log(src.Float64Open()) / e.Rate
}

// BoundedPareto is a Pareto truncated to [L, H]: the two-sided power law
// behind the paper's per-job resource-hours distributions (Table 2), where
// the unbounded tail would otherwise let one job eat the cell.
type BoundedPareto struct {
	L     float64 // lower bound (inclusive)
	H     float64 // upper bound
	Alpha float64 // tail index
}

// Quantile returns the inverse CDF at u in [0, 1).
func (b BoundedPareto) Quantile(u float64) float64 {
	if u <= 0 {
		return b.L
	}
	if u >= 1 {
		return b.H
	}
	ratio := 1 - math.Pow(b.L/b.H, b.Alpha)
	return b.L * math.Pow(1-u*ratio, -1/b.Alpha)
}

// Sample draws one variate by inversion.
func (b BoundedPareto) Sample(src *rng.Source) float64 {
	return b.Quantile(src.Float64Open())
}

// Mean returns the analytic mean; Alpha == 1 uses the logarithmic form.
func (b BoundedPareto) Mean() float64 {
	if b.H <= b.L {
		return b.L
	}
	if math.Abs(b.Alpha-1) < 1e-9 {
		return b.L * b.H * math.Log(b.H/b.L) / (b.H - b.L)
	}
	num := b.Alpha * math.Pow(b.L, b.Alpha) *
		(math.Pow(b.H, 1-b.Alpha) - math.Pow(b.L, 1-b.Alpha))
	den := (1 - b.Alpha) * (1 - math.Pow(b.L/b.H, b.Alpha))
	return num / den
}

// Categorical draws indices with probability proportional to the weights
// it was built from. It consumes exactly one uniform variate per draw.
type Categorical struct {
	cdf []float64
}

// NewCategorical builds a categorical picker over len(weights) outcomes.
// Negative weights are treated as zero; an all-zero weight vector draws
// uniformly.
func NewCategorical(weights []float64) *Categorical {
	cdf := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w > 0 {
			total += w
		}
		cdf[i] = total
	}
	if total <= 0 {
		for i := range cdf {
			cdf[i] = float64(i+1) / float64(len(cdf))
		}
		return &Categorical{cdf: cdf}
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Categorical{cdf: cdf}
}

// Draw returns one index in [0, len(weights)).
func (c *Categorical) Draw(src *rng.Source) int {
	u := src.Float64()
	i := sort.Search(len(c.cdf), func(i int) bool { return u < c.cdf[i] })
	if i >= len(c.cdf) {
		// Float rounding left cdf[last] a hair under 1.
		return len(c.cdf) - 1
	}
	return i
}

// Zipf draws 0-based ranks k in [0, n) with P(k) ∝ 1/(k+1)^s — the user
// popularity model (a few users own most jobs, §5.1).
type Zipf struct {
	cat *Categorical
}

// NewZipf builds a Zipf picker over n ranks with exponent s.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		n = 1
	}
	w := make([]float64, n)
	for k := range w {
		w[k] = math.Pow(float64(k+1), -s)
	}
	return &Zipf{cat: NewCategorical(w)}
}

// Draw returns one rank in [0, n).
func (z *Zipf) Draw(src *rng.Source) int { return z.cat.Draw(src) }

// PoissonCount draws a Poisson-distributed count with the given mean via
// Knuth's product method, splitting large means so the running product
// never underflows. Non-positive means yield zero.
func PoissonCount(src *rng.Source, mean float64) int {
	n := 0
	for mean > 500 {
		// Poisson(a+b) = Poisson(a) + Poisson(b) for independent draws.
		n += poissonKnuth(src, 500)
		mean -= 500
	}
	return n + poissonKnuth(src, mean)
}

func poissonKnuth(src *rng.Source, mean float64) int {
	if mean <= 0 {
		return 0
	}
	limit := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= src.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// Gamma is the gamma distribution with the given Shape (k) and Scale (θ);
// its mean is Shape·Scale and its squared coefficient of variation is
// 1/Shape. Renewal arrival processes use it as the inter-arrival law: a
// mean-one gamma with Shape = 1/CV² dials burstiness without moving the
// rate.
type Gamma struct {
	Shape float64
	Scale float64
}

// Sample draws one variate via Marsaglia–Tsang squeeze rejection (shapes
// below one use the standard boost: Gamma(k) = Gamma(k+1)·U^(1/k)).
func (g Gamma) Sample(src *rng.Source) float64 {
	shape := g.Shape
	if shape <= 0 || g.Scale <= 0 {
		return 0
	}
	boost := 1.0
	if shape < 1 {
		boost = math.Pow(src.Float64Open(), 1/shape)
		shape++
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := src.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := src.Float64Open()
		x2 := x * x
		if u < 1-0.0331*x2*x2 {
			return g.Scale * boost * d * v
		}
		if math.Log(u) < 0.5*x2+d*(1-v+math.Log(v)) {
			return g.Scale * boost * d * v
		}
	}
}

// Weibull is the Weibull distribution with the given Shape (k) and Scale
// (λ); shapes below one give heavy, bursty tails, shape one is the
// exponential, larger shapes approach regular spacing.
type Weibull struct {
	Shape float64
	Scale float64
}

// Sample draws one variate by inversion.
func (w Weibull) Sample(src *rng.Source) float64 {
	if w.Shape <= 0 || w.Scale <= 0 {
		return 0
	}
	return w.Scale * math.Pow(-math.Log(src.Float64Open()), 1/w.Shape)
}

// weibullCV2 is the squared coefficient of variation of a Weibull with
// shape k: Γ(1+2/k)/Γ(1+1/k)² − 1, monotone decreasing in k.
func weibullCV2(k float64) float64 {
	g1 := math.Gamma(1 + 1/k)
	return math.Gamma(1+2/k)/(g1*g1) - 1
}

// WeibullShapeFromCV solves the Weibull shape k whose coefficient of
// variation equals cv, by bisection (the CV is monotone decreasing in the
// shape). cv must be positive; extreme values clamp to the bracket
// [0.08, 64] — CV ≈ 0.016 at k = 64 and ≈ 2.7e5 at k = 0.08, far beyond
// any workload calibration.
func WeibullShapeFromCV(cv float64) float64 {
	target := cv * cv
	lo, hi := 0.08, 64.0
	if weibullCV2(lo) <= target {
		return lo
	}
	if weibullCV2(hi) >= target {
		return hi
	}
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi)
		if weibullCV2(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}
