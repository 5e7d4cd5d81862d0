package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestSummarizeBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	s := Summarize(xs)
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Variance-2) > 1e-12 {
		t.Fatalf("variance %v, want 2", s.Variance)
	}
	if math.Abs(s.C2-2.0/9.0) > 1e-12 {
		t.Fatalf("C2 %v, want 2/9", s.C2)
	}
	if s.Total != 15 {
		t.Fatalf("total %v", s.Total)
	}
	// Input must be unmodified.
	if !sort.Float64sAreSorted(xs) {
		t.Fatal("input was reordered")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestSummarizeConstant(t *testing.T) {
	s := Summarize([]float64{7, 7, 7, 7})
	if s.Variance != 0 || s.C2 != 0 {
		t.Fatalf("constant sample variance %v C2 %v", s.Variance, s.C2)
	}
}

func TestSummarizeZeroMean(t *testing.T) {
	s := Summarize([]float64{0, 0, 0})
	if !math.IsInf(s.C2, 1) {
		t.Fatalf("C2 of zero-mean sample should be +inf, got %v", s.C2)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.5); got != 5 {
		t.Fatalf("median %v, want 5", got)
	}
	if got := Quantile(xs, 0); got != 0 {
		t.Fatalf("q0 %v", got)
	}
	if got := Quantile(xs, 1); got != 10 {
		t.Fatalf("q1 %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("quantile of empty should be NaN")
	}
}

// TestSelectionMatchesSortedQuantile pins QuantileInPlace to the value
// QuantileSorted reads from a sorted copy, bit for bit, on the shapes that
// break selection routines: tiny samples, all-equal input, heavy ties at
// 0 (peak slack clamps there), infinities and NaNs, and presorted runs.
// Each sample is queried repeatedly in place and must come back as a
// permutation of itself. QuantilesOfParts must give the same bits from
// the sample cut into parts of uneven size, as Figure 14 reads the
// reducers' chunks.
func TestSelectionMatchesSortedQuantile(t *testing.T) {
	src := rng.New(11)
	random := func(n int, gen func() float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = gen()
		}
		return xs
	}
	inf, nan := math.Inf(1), math.NaN()
	samples := map[string][]float64{
		"n=1":        {3.5},
		"n=2":        {10, -4},
		"all equal":  random(1000, func() float64 { return 7 }),
		"ties at 0":  random(5000, func() float64 { return math.Max(0, src.Float64()*200-150) }),
		"infinities": random(2001, func() float64 { return []float64{-inf, inf, src.NormFloat64()}[src.Intn(3)] }),
		"nan":        random(999, func() float64 { return []float64{nan, src.Float64(), 0}[src.Intn(3)] }),
		"mostly nan": random(40, func() float64 { return []float64{nan, nan, nan, src.Float64()}[src.Intn(4)] }),
		"all nan":    {nan, nan, nan},
		"few values": random(10007, func() float64 { return float64(src.Intn(5)) }),
		"normal":     random(100003, src.NormFloat64),
	}
	ramp := 0.0
	samples["ascending"] = random(4096, func() float64 { ramp++; return ramp })
	samples["descending"] = random(4096, func() float64 { ramp--; return ramp })
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	sortedBits := func(xs []float64) []uint64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		out := make([]uint64, len(s))
		for i, x := range s {
			out[i] = bits(x)
		}
		return out
	}
	qs := []float64{0.25, 0.5, 0.75, 0, 1, 0.001, 0.1, 0.9, 0.99, 0.999, 1.0 / 3, -0.5, 1.5}
	for name, xs := range samples {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		want := sortedBits(xs)
		work := append([]float64(nil), xs...)
		fromParts := QuantilesOfParts(cutParts(xs), qs...)
		for i, q := range qs {
			got, exp := QuantileInPlace(work, q), QuantileSorted(sorted, q)
			if bits(got) != bits(exp) {
				t.Errorf("%s: q=%v: selected %v, sorted copy gives %v", name, q, got, exp)
			}
			if g := Quantile(xs, q); bits(g) != bits(exp) {
				t.Errorf("%s: q=%v: Quantile %v, sorted copy gives %v", name, q, g, exp)
			}
			if g := fromParts[i]; bits(g) != bits(exp) {
				t.Errorf("%s: q=%v: QuantilesOfParts %v, sorted copy gives %v", name, q, g, exp)
			}
		}
		for i, b := range sortedBits(work) {
			if b != want[i] {
				t.Fatalf("%s: selection did not leave a permutation of the input", name)
			}
		}
	}
	if !math.IsNaN(QuantileInPlace(nil, 0.5)) {
		t.Fatal("QuantileInPlace of empty should be NaN")
	}
	if got := QuantilesOfParts([][]float64{nil, {}}, 0.5); len(got) != 1 || !math.IsNaN(got[0]) {
		t.Fatalf("QuantilesOfParts of empty parts: %v, want [NaN]", got)
	}
}

// cutParts splits xs into consecutive parts of growing, uneven sizes,
// with an empty part first and one between every two.
func cutParts(xs []float64) [][]float64 {
	parts := [][]float64{nil}
	for size := 1; len(xs) > 0; size = size*3 + 1 {
		k := min(size, len(xs))
		parts = append(parts, xs[:k], xs[k:k])
		xs = xs[k:]
	}
	return parts
}

func TestCCDFShape(t *testing.T) {
	xs := []float64{1, 1, 2, 3}
	c := CCDF(xs)
	want := []CCDFPoint{{1, 0.5}, {2, 0.25}, {3, 0}}
	if len(c) != len(want) {
		t.Fatalf("ccdf %v", c)
	}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("ccdf[%d] = %v, want %v", i, c[i], want[i])
		}
	}
	if got := CCDFAt(c, 0.5); got != 1 {
		t.Fatalf("CCDF below min should be 1, got %v", got)
	}
	if got := CCDFAt(c, 1.5); got != 0.5 {
		t.Fatalf("CCDF(1.5) = %v", got)
	}
	if got := CCDFAt(c, 99); got != 0 {
		t.Fatalf("CCDF above max should be 0, got %v", got)
	}
}

func TestCCDFMonotone(t *testing.T) {
	src := rng.New(1)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = src.Float64() * 100
	}
	c := CCDF(xs)
	for i := 1; i < len(c); i++ {
		if c[i].X <= c[i-1].X {
			t.Fatal("CCDF x not strictly increasing")
		}
		if c[i].P > c[i-1].P {
			t.Fatal("CCDF p increased")
		}
	}
	if c[len(c)-1].P != 0 {
		t.Fatal("CCDF must end at 0")
	}
}

func TestCCDFSampled(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	got := CCDFSampled(xs, []float64{0, 2.5, 10})
	if got[0].P != 1 || got[1].P != 0.5 || got[2].P != 0 {
		t.Fatalf("sampled ccdf %v", got)
	}
}

func TestTopShare(t *testing.T) {
	// 99 ones and a single 9901: the top 1% (1 sample) carries 99.01% of
	// mass.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	xs[99] = 9901
	got := TopShare(xs, 0.01)
	if math.Abs(got-0.9901) > 1e-9 {
		t.Fatalf("top share %v", got)
	}
	if !math.IsNaN(TopShare(nil, 0.01)) {
		t.Fatal("empty top share should be NaN")
	}
	if TopShare([]float64{0, 0}, 0.5) != 0 {
		t.Fatal("zero-mass top share should be 0")
	}
	if TopShare([]float64{5}, 0.0001) != 1 {
		t.Fatal("tiny frac should still take at least one sample")
	}
}

func TestFitParetoTailRecoversAlpha(t *testing.T) {
	src := rng.New(2)
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = math.Pow(src.Float64Open(), -1/0.7) // Pareto, Xm 1, alpha 0.7
	}
	fit := FitParetoTail(xs, 1, 0.9999)
	if math.Abs(fit.Alpha-0.7) > 0.06 {
		t.Fatalf("fitted alpha %v, want ~0.7", fit.Alpha)
	}
	if fit.R2 < 0.98 {
		t.Fatalf("R2 %v, want > 0.98", fit.R2)
	}
}

func TestFitParetoTailDegenerate(t *testing.T) {
	if fit := FitParetoTail(nil, 1, 0.9999); fit.N != 0 {
		t.Fatalf("empty fit: %+v", fit)
	}
	if fit := FitParetoTail([]float64{0.1, 0.2}, 1, 0.9999); fit.N != 0 {
		t.Fatalf("all-below-lower fit: %+v", fit)
	}
}

func TestLinRegressExact(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 1 + 2x
	slope, intercept, r2 := linregress(x, y)
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 || math.Abs(r2-1) > 1e-12 {
		t.Fatalf("fit %v %v %v", slope, intercept, r2)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if r := Pearson(x, y); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect correlation r=%v", r)
	}
	yneg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(x, yneg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation r=%v", r)
	}
	if !math.IsNaN(Pearson(x, []float64{1, 1, 1, 1, 1})) {
		t.Fatal("constant series should give NaN")
	}
	if !math.IsNaN(Pearson(x, x[:2])) {
		t.Fatal("mismatched lengths should give NaN")
	}
	// Two pairs are always collinear: NaN, not a meaningless ±1.
	if r := Pearson(x[:2], []float64{5, 1}); !math.IsNaN(r) {
		t.Fatalf("two pairs gave r=%v, want NaN", r)
	}
	if r := Pearson(x[:3], []float64{1, 3, 2}); math.Abs(r-0.5) > 1e-12 {
		t.Fatalf("three pairs r=%v, want 0.5", r)
	}
}

// Property: CCDF values are always within [0,1] and non-increasing.
func TestCCDFProperty(t *testing.T) {
	src := rng.New(7)
	f := func(n uint8) bool {
		xs := make([]float64, int(n)+1)
		for i := range xs {
			xs[i] = src.NormFloat64()
		}
		c := CCDF(xs)
		prev := 1.0
		for _, pt := range c {
			if pt.P < 0 || pt.P > prev {
				return false
			}
			prev = pt.P
		}
		return c[len(c)-1].P == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	src := rng.New(8)
	f := func(n uint8) bool {
		xs := make([]float64, int(n)+2)
		for i := range xs {
			xs[i] = src.Float64() * 100
		}
		s := make([]float64, len(xs))
		copy(s, xs)
		sort.Float64s(s)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := QuantileSorted(s, q)
			if v < prev || v < s[0] || v > s[len(s)-1] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: TopShare is within [0,1] and non-decreasing in frac.
func TestTopShareMonotoneProperty(t *testing.T) {
	src := rng.New(9)
	f := func(n uint8) bool {
		xs := make([]float64, int(n)+1)
		for i := range xs {
			xs[i] = math.Abs(src.NormFloat64())
		}
		prev := 0.0
		for _, frac := range []float64{0.01, 0.1, 0.5, 1.0} {
			s := TopShare(xs, frac)
			if s < prev-1e-12 || s < 0 || s > 1+1e-12 {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeRuns(t *testing.T) {
	if got := SummarizeRuns(nil); got != (CrossRun{}) {
		t.Fatalf("empty: %+v", got)
	}
	one := SummarizeRuns([]float64{3.5})
	if one.N != 1 || one.Mean != 3.5 || one.Stddev != 0 || one.CI95 != 0 || one.Min != 3.5 || one.Max != 3.5 {
		t.Fatalf("single run: %+v", one)
	}

	// Hand-checked: mean 4, sample variance ((−2)²+0²+2²)/2 = 4, stddev 2,
	// CI95 = t(df=2)=4.303 × 2/√3.
	cr := SummarizeRuns([]float64{2, 4, 6})
	if cr.N != 3 || cr.Mean != 4 || cr.Min != 2 || cr.Max != 6 {
		t.Fatalf("runs: %+v", cr)
	}
	if math.Abs(cr.Stddev-2) > 1e-12 {
		t.Fatalf("stddev %g, want 2", cr.Stddev)
	}
	want := 4.303 * 2 / math.Sqrt(3)
	if math.Abs(cr.CI95-want) > 1e-9 {
		t.Fatalf("CI95 %g, want %g", cr.CI95, want)
	}
}

func TestTCritical95(t *testing.T) {
	if !math.IsNaN(TCritical95(0)) {
		t.Fatal("df 0 must be NaN")
	}
	if TCritical95(1) != 12.706 || TCritical95(30) != 2.042 {
		t.Fatalf("table ends: %g %g", TCritical95(1), TCritical95(30))
	}
	if TCritical95(31) != 1.960 || TCritical95(10000) != 1.960 {
		t.Fatal("asymptote")
	}
	// Critical values decrease toward the normal limit (flat once the
	// asymptote takes over).
	for df := 2; df <= 40; df++ {
		if TCritical95(df) > TCritical95(df-1) {
			t.Fatalf("t-critical increases at df %d", df)
		}
	}
}
