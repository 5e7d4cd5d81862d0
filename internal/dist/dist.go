// Package dist provides the parametric probability distributions the
// workload generator and scheduler are calibrated with: log-normals for
// service times and oversize factors, (bounded) Paretos for the
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

// Deterministic always returns Value; it stands in for a distribution in
// tests and ablations.
type Deterministic struct {
	Value float64
}

// Sample returns the constant.
func (d Deterministic) Sample(*rng.Source) float64 { return d.Value }

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

// Mean returns the analytic mean exp(Mu + Sigma²/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Quantile returns the p-quantile exp(Mu + Sigma·Φ⁻¹(p)).
func (l LogNormal) Quantile(p float64) float64 {
	return math.Exp(l.Mu + l.Sigma*InvNormCDF(p))
}

// InvNormCDF returns Φ⁻¹(p), the standard normal quantile function, via
// Acklam's rational approximation (relative error < 1.15e-9 across the
// open unit interval) — accurate enough for lognormal quantiles and to
// convert confidence levels to z-scores. p outside (0, 1) returns ±Inf
// at the endpoints and NaN beyond them.
func InvNormCDF(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}
	// Coefficients for the central and tail rational approximations.
	var (
		a = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
			1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
		b = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
			6.680131188771972e+01, -1.328068155288572e+01}
		c = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
			-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
		d = [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
			3.754408661907416e+00}
	)
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow: // lower tail
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow: // central region
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default: // upper tail, by symmetry
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step against math.Erfc pushes the result to
	// near machine precision.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
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

// Pareto is the unbounded Pareto distribution with scale Xm (minimum
// value) and tail index Alpha.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample draws one variate by inversion.
func (p Pareto) Sample(src *rng.Source) float64 {
	return p.Xm * math.Pow(src.Float64Open(), -1/p.Alpha)
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

// Mean returns the analytic mean Shape·Scale.
func (g Gamma) Mean() float64 { return g.Shape * g.Scale }

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

// Mean returns the analytic mean λ·Γ(1+1/k).
func (w Weibull) Mean() float64 { return w.Scale * math.Gamma(1+1/w.Shape) }

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
