// Package stats implements the descriptive statistics the paper's analyses
// are built from: complementary CDFs, percentiles, the squared coefficient
// of variation C² (§7), Pareto tail fitting with R² goodness of fit
// (Table 2), Pearson correlation (Figure 13) and top-k load shares.
package stats

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Summary holds the moments and percentiles reported in Table 2 of the
// paper for a sample of non-negative values.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // population variance
	C2       float64 // squared coefficient of variation: variance / mean²
	Min      float64
	Max      float64
	Median   float64
	P90      float64
	P99      float64
	P999     float64
	Total    float64
}

// Summarize computes a Summary over xs. It sorts a copy; xs is unmodified.
// An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)

	var sum, sumsq float64
	for _, x := range s {
		sum += x
		sumsq += x * x
	}
	n := float64(len(s))
	mean := sum / n
	variance := sumsq/n - mean*mean
	if variance < 0 {
		variance = 0 // numeric noise for near-constant samples
	}
	c2 := math.Inf(1)
	if mean != 0 {
		c2 = variance / (mean * mean)
	}
	return Summary{
		N:        len(s),
		Mean:     mean,
		Variance: variance,
		C2:       c2,
		Min:      s[0],
		Max:      s[len(s)-1],
		Median:   quantileSorted(s, 0.5),
		P90:      quantileSorted(s, 0.90),
		P99:      quantileSorted(s, 0.99),
		P999:     quantileSorted(s, 0.999),
		Total:    sum,
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It selects on a copy; xs is
// unmodified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	return QuantileInPlace(s, q)
}

// QuantileInPlace returns the q-quantile of xs: bit for bit the value
// QuantileSorted gives on a sorted copy, NaNs ordered first as
// sort.Float64s orders them. It finds the one or two order statistics the
// quantile interpolates between by selection, in expected linear time,
// instead of sorting. xs is reordered (it stays a permutation of itself),
// so repeated calls on one slice are fine.
func QuantileInPlace(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	lo, hi, frac := quantileRank(len(xs), q)
	// sort.Float64s puts NaNs first; gather them there so the selection
	// below compares numbers only.
	nans := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[nans] = xs[nans], x
			nans++
		}
	}
	if lo >= nans {
		selectNth(xs[nans:], lo-nans)
	}
	if lo == hi {
		return xs[lo]
	}
	// xs[lo+1:] holds exactly the values ordered after xs[lo]; the next
	// order statistic is their least, or a NaN while NaNs remain.
	next := xs[hi]
	if hi >= nans {
		for _, x := range xs[hi+1:] {
			if x < next {
				next = x
			}
		}
	}
	return lerp(xs[lo], next, frac)
}

// bucketBits is the width of QuantilesOfParts' histogram index: the sign,
// the 11 exponent bits and the top 4 mantissa bits of a float64, so a
// bucket spans a sixteenth of an octave.
const bucketBits = 16

// bucketOf maps x, which is not NaN, to its histogram bucket: the top
// bits of a key that orders like x (a negative value's bits are flipped
// whole, a positive value's sign bit is set).
func bucketOf(x float64) int {
	b := math.Float64bits(x)
	return int((b ^ (uint64(int64(b)>>63) | 1<<63)) >> (64 - bucketBits))
}

// QuantilesOfParts returns the qs-quantiles of the concatenation of
// parts without building it. For each q it returns bit for bit what
// QuantileInPlace returns on that concatenation, except that a zero may
// carry the other sign: +0 and −0 tie there, so either may be selected.
// It only reads the parts.
//
// A counting pass histograms the values by bucketOf, which locates the
// bucket holding each order statistic the quantiles need. A gather pass
// copies only those buckets' members into a scratch slice, where
// selectNth finishes. NaNs are counted apart and ordered first, in input
// order, as QuantileInPlace orders them.
func QuantilesOfParts(parts [][]float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	// The order statistics the quantiles interpolate between, ascending.
	ranks := make([]int, 0, 2*len(qs))
	for _, q := range qs {
		lo, hi, _ := quantileRank(n, q)
		ranks = append(ranks, lo, hi)
	}
	slices.Sort(ranks)
	ranks = slices.Compact(ranks)

	hist := make([]int, 1<<bucketBits)
	nans := 0
	for _, p := range parts {
		for _, x := range p {
			if x != x {
				nans++
				continue
			}
			hist[bucketOf(x)]++
		}
	}

	// Ranks below nans name NaNs; each later one names the k-th least
	// member of some bucket. Lay the distinct buckets out in scratch in
	// ascending order, then turn hist into gather cursors: a wanted
	// bucket's is where its members start, every other bucket's is -1.
	firstNum, _ := slices.BinarySearch(ranks, nans)
	type member struct{ bucket, start, end, k int }
	at := make([]member, len(ranks))
	size, below, b := 0, 0, 0
	for i := firstNum; i < len(ranks); i++ {
		r := ranks[i] - nans
		for below+hist[b] <= r {
			below += hist[b]
			b++
		}
		if i == firstNum || at[i-1].bucket != b {
			size += hist[b]
		}
		at[i] = member{bucket: b, start: size - hist[b], end: size, k: r - below}
	}
	for b := range hist {
		hist[b] = -1
	}
	for _, m := range at[firstNum:] {
		hist[m.bucket] = m.start
	}

	vals := make([]float64, len(ranks))
	scratch := make([]float64, size)
	seen, j := 0, 0
	for _, p := range parts {
		for _, x := range p {
			if x != x {
				if j < firstNum && ranks[j] == seen {
					vals[j] = x
					j++
				}
				seen++
				continue
			}
			b := bucketOf(x)
			if c := hist[b]; c >= 0 {
				scratch[c] = x
				hist[b] = c + 1
			}
		}
	}
	for i := firstNum; i < len(ranks); i++ {
		m := at[i]
		seg := scratch[m.start:m.end]
		selectNth(seg, m.k)
		vals[i] = seg[m.k]
	}

	for i, q := range qs {
		lo, hi, frac := quantileRank(n, q)
		a, _ := slices.BinarySearch(ranks, lo)
		if lo == hi {
			out[i] = vals[a]
			continue
		}
		c, _ := slices.BinarySearch(ranks, hi)
		out[i] = lerp(vals[a], vals[c], frac)
	}
	return out
}

// selectNth reorders s, which holds no NaN, so that s[k] is the value a
// full sort puts there, s[:k] holds nothing greater and s[k+1:] nothing
// less. It is quickselect over a branch-free two-way partition. A round
// whose pivot is the least value left makes no progress that way, so it
// splits off the run equal to the pivot instead, which keeps heavy ties
// linear. After a logarithmic number of rounds it sorts what is left,
// bounding the worst case at O(n log n).
func selectNth(s []float64, k int) {
	lo, hi := 0, len(s)
	for rounds := 2 * bits.Len(uint(len(s))); hi-lo > 12; rounds-- {
		if rounds == 0 {
			sort.Float64s(s[lo:hi])
			return
		}
		p := median3(s[lo], s[lo+(hi-lo)/2], s[hi-1])
		lt := lo + partition(s[lo:hi], func(x float64) bool { return x < p })
		if k < lt {
			hi = lt
			continue
		}
		if lt == lo {
			lt += partition(s[lo:hi], func(x float64) bool { return x <= p })
			if k < lt {
				return // s[lo:lt] all equal p
			}
		}
		lo = lt
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// partition moves the elements of s that satisfy in to its front, and
// returns how many there are. Every element is written unconditionally so
// the loop has no data-dependent branch to mispredict.
func partition(s []float64, in func(float64) bool) int {
	n := 0
	for i, x := range s {
		s[i] = s[n]
		s[n] = x
		d := 0 // a conditional move; "if in(x) { n++ }" compiles to a branch
		if in(x) {
			d = 1
		}
		n += d
	}
	return n
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}

// QuantileSorted returns the q-quantile of an already-sorted sample.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return quantileSorted(sorted, q)
}

func quantileSorted(s []float64, q float64) float64 {
	lo, hi, frac := quantileRank(len(s), q)
	if lo == hi {
		return s[lo]
	}
	return lerp(s[lo], s[hi], frac)
}

// lerp interpolates frac of the way from order statistic a to b. Every
// quantile function calls it, so they all round alike. It stays out of
// line so that every caller runs one instruction sequence, operand order
// included: the payload of a NaN result then does not depend on the
// caller either.
//
//go:noinline
func lerp(a, b, frac float64) float64 {
	return a*(1-frac) + b*frac
}

// quantileRank locates the q-quantile of n sorted values: it lies frac of
// the way from order statistic lo to order statistic hi.
func quantileRank(n int, q float64) (lo, hi int, frac float64) {
	if q <= 0 {
		return 0, 0, 0
	}
	if q >= 1 {
		return n - 1, n - 1, 0
	}
	pos := q * float64(n-1)
	lo = int(math.Floor(pos))
	hi = int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
}

// CCDFPoint is one (x, P(X > x)) sample of a complementary CDF.
type CCDFPoint struct {
	X float64
	P float64
}

// CCDF computes the complementary cumulative distribution function of xs:
// for each distinct value x, the fraction of samples strictly greater
// than x. The result is sorted by X ascending; P is non-increasing.
func CCDF(xs []float64) []CCDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	n := float64(len(s))
	var out []CCDFPoint
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j] == s[i] {
			j++
		}
		// P(X > s[i]) = (number of samples after the run) / n.
		out = append(out, CCDFPoint{X: s[i], P: float64(len(s)-j) / n})
		i = j
	}
	return out
}

// CCDFAt evaluates an already-computed CCDF at x (step interpolation).
// For x below the smallest sample it returns 1.
func CCDFAt(ccdf []CCDFPoint, x float64) float64 {
	if len(ccdf) == 0 {
		return math.NaN()
	}
	if x < ccdf[0].X {
		return 1
	}
	i := sort.Search(len(ccdf), func(i int) bool { return ccdf[i].X > x })
	return ccdf[i-1].P
}

// CCDFSampled returns the CCDF evaluated on a fixed grid of xs values —
// convenient for rendering figure series with a bounded number of points.
func CCDFSampled(xs []float64, grid []float64) []CCDFPoint {
	c := CCDF(xs)
	out := make([]CCDFPoint, 0, len(grid))
	for _, g := range grid {
		out = append(out, CCDFPoint{X: g, P: CCDFAt(c, g)})
	}
	return out
}

// TopShare returns the fraction of the total mass of xs contributed by the
// largest frac portion of samples (e.g. frac = 0.01 gives the paper's
// "top 1% of jobs consume X% of resources"). Returns NaN for empty input.
func TopShare(xs []float64, frac float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	total := 0.0
	for _, x := range s {
		total += x
	}
	if total == 0 {
		return 0
	}
	k := int(math.Ceil(frac * float64(len(s))))
	if k < 1 {
		k = 1
	}
	if k > len(s) {
		k = len(s)
	}
	top := 0.0
	for _, x := range s[len(s)-k:] {
		top += x
	}
	return top / total
}

// ParetoFit is the result of fitting a Pareto tail to a sample, mirroring
// the paper's Table 2 methodology: ordinary least squares on the log–log
// CCDF of the "large job" body (values > lower bound, excluding the
// extreme top quantile), with R² measuring the fit.
type ParetoFit struct {
	Alpha float64 // tail index: P(X > x) ≈ C · x^(-Alpha)
	R2    float64 // goodness of fit of the log-log regression
	N     int     // samples used in the fit
}

// FitParetoTail fits a Pareto tail to xs restricted to values in
// (lower, upper-quantile(trim)] — the paper uses lower = 1 resource-hour
// and trim = 0.9999 (drop the top 0.01%). Returns a zero fit if fewer than
// 10 points remain.
func FitParetoTail(xs []float64, lower, trimQuantile float64) ParetoFit {
	if len(xs) == 0 {
		return ParetoFit{}
	}
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x > lower {
			s = append(s, x)
		}
	}
	if len(s) < 10 {
		return ParetoFit{}
	}
	sort.Float64s(s)
	if trimQuantile > 0 && trimQuantile < 1 {
		cut := quantileSorted(s, trimQuantile)
		i := sort.SearchFloat64s(s, cut)
		if i < 10 {
			i = len(s)
		}
		s = s[:i]
	}
	if len(s) < 10 {
		return ParetoFit{}
	}

	// Build the empirical log-log CCDF on distinct values; regress
	// log P(X > x) = log C - alpha * log x.
	n := float64(len(s))
	var logx, logp []float64
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j] == s[i] {
			j++
		}
		p := float64(len(s)-j) / n
		if p > 0 && s[i] > 0 {
			logx = append(logx, math.Log(s[i]))
			logp = append(logp, math.Log(p))
		}
		i = j
	}
	if len(logx) < 5 {
		return ParetoFit{}
	}
	slope, _, r2 := linregress(logx, logp)
	return ParetoFit{Alpha: -slope, R2: r2, N: len(s)}
}

// linregress fits y = intercept + slope*x by ordinary least squares and
// returns (slope, intercept, R²).
func linregress(x, y []float64) (slope, intercept, r2 float64) {
	n := float64(len(x))
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n, 0
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	// R² = 1 - SS_res/SS_tot.
	meanY := sy / n
	var ssRes, ssTot float64
	for i := range x {
		pred := intercept + slope*x[i]
		ssRes += (y[i] - pred) * (y[i] - pred)
		ssTot += (y[i] - meanY) * (y[i] - meanY)
	}
	if ssTot == 0 {
		return slope, intercept, 1
	}
	return slope, intercept, 1 - ssRes/ssTot
}

// Pearson returns the Pearson correlation coefficient of paired samples.
// Any two distinct points lie on a line, so r is ±1 for two pairs
// whatever the data; fewer than three pairs give NaN instead.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 3 {
		return math.NaN()
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}
