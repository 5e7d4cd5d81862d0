package sweep

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tinyScale keeps sweep tests fast: full nine-cell suites, small cells,
// short horizon.
func tinyScale() experiments.Scale {
	return experiments.Scale{Name: "tiny", Machines2011: 40, Machines2019: 30,
		Horizon: 3 * sim.Hour, Warmup: 1 * sim.Hour, Seed: 5}
}

func tinyDef(par int) Def {
	d := Def{
		Scale:    tinyScale(),
		Seeds:    2,
		Variants: []Variant{Baseline(), ArrivalScale(1.5)},
	}
	d.Scale.Parallelism = par
	return d
}

// TestSweepDeterministicAcrossParallelism is the sweep's acceptance
// gate: parallelism 1 and 8 must produce deeply equal results and
// byte-identical report renderings.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	serial, err := Run(tinyDef(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(tinyDef(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Variants, parallel.Variants) {
		t.Fatal("sweep results differ between parallelism 1 and 8")
	}

	var a, b bytes.Buffer
	if err := serial.WriteReport(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("sweep report bytes differ between parallelism 1 and 8")
	}
	if a.Len() == 0 {
		t.Fatal("empty sweep report")
	}
	for _, name := range serial.Metrics {
		if !strings.Contains(a.String(), "== metric "+name+" ==") {
			t.Fatalf("report is missing the %s metric table", name)
		}
	}
}

// TestSweepVectorIsTheSuiteTable pins one definition per metric:
// replicate 0 of a sweep's first variant simulates exactly the suite
// rooted at engine.DeriveSeed(root, 0) (the same cell seeds, and flat
// index equals cell index, so the same ID spaces), and its metric vector
// is the metric table evaluated on that suite, bit for bit.
func TestSweepVectorIsTheSuiteTable(t *testing.T) {
	res, err := Run(Def{Scale: tinyScale(), Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc := tinyScale()
	sc.Seed = engine.DeriveSeed(sc.Seed, 0)
	suite, err := experiments.RunSuiteStreaming(sc, experiments.StreamingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := suite.Pool().Values()
	got := res.Variants[0].PerSeed[0]
	if len(got) != len(want) || len(res.Metrics) != len(want) {
		t.Fatalf("sweep vector has %d values and %d names, want %d", len(got), len(res.Metrics), len(want))
	}
	for m, name := range res.Metrics {
		if name != experiments.Metrics()[m].Name {
			t.Fatalf("metric %d is %q, want %q", m, name, experiments.Metrics()[m].Name)
		}
		if math.Float64bits(got[m]) != math.Float64bits(want[m]) {
			t.Errorf("%s: sweep %v, suite %v", name, got[m], want[m])
		}
	}
}

// TestSweepSeedsProduceVariance proves the replicate seeds actually
// perturb the simulation: per-seed metric vectors differ and at least
// the rate metrics show nonzero cross-seed spread.
func TestSweepSeedsProduceVariance(t *testing.T) {
	res, err := Run(Def{Scale: tinyScale(), Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Variants[0]
	if reflect.DeepEqual(v.PerSeed[0], v.PerSeed[1]) {
		t.Fatal("replicate seeds 0 and 1 produced identical metric vectors")
	}
	varying := 0
	for m, st := range v.Stats {
		if st.N != 3 {
			t.Fatalf("metric %s: n=%d, want 3", res.Metrics[m], st.N)
		}
		if st.Stddev > 0 {
			varying++
			if st.CI95 <= 0 {
				t.Fatalf("metric %s: stddev %g but CI95 %g", res.Metrics[m], st.Stddev, st.CI95)
			}
		}
		if st.Min > st.Mean || st.Mean > st.Max {
			t.Fatalf("metric %s: min/mean/max out of order: %+v", res.Metrics[m], st)
		}
	}
	if varying < len(res.Metrics)/2 {
		t.Fatalf("only %d/%d metrics vary across seeds", varying, len(res.Metrics))
	}
}

// TestVariantListDoesNotPerturbSharedVariants pins the common-random-
// numbers contract: a variant's per-seed numbers are identical whether
// it runs alone or alongside other variants, because grid seeds depend
// only on (root, run, cell).
func TestVariantListDoesNotPerturbSharedVariants(t *testing.T) {
	alone, err := Run(Def{Scale: tinyScale(), Seeds: 2,
		Variants: []Variant{Baseline()}})
	if err != nil {
		t.Fatal(err)
	}
	paired, err := Run(Def{Scale: tinyScale(), Seeds: 2,
		Variants: []Variant{ArrivalScale(2), Baseline()}})
	if err != nil {
		t.Fatal(err)
	}
	got := paired.Variants[1]
	if got.Name != "baseline" {
		t.Fatalf("variant order: got %q", got.Name)
	}
	if !reflect.DeepEqual(alone.Variants[0].PerSeed, got.PerSeed) {
		t.Fatal("baseline numbers changed when another variant joined the sweep")
	}

	// The contract extends to policy variants: joining the sweep with a
	// different scheduler brain must leave the baseline untouched too.
	worstFit, err := PolicyVariant("worst-fit")
	if err != nil {
		t.Fatal(err)
	}
	zoo, err := Run(Def{Scale: tinyScale(), Seeds: 2,
		Variants: []Variant{worstFit, Baseline()}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(alone.Variants[0].PerSeed, zoo.Variants[1].PerSeed) {
		t.Fatal("baseline numbers changed when a policy variant joined the sweep")
	}
	if reflect.DeepEqual(zoo.Variants[0].PerSeed, zoo.Variants[1].PerSeed) {
		t.Fatal("worst-fit produced numbers identical to baseline — policy overlay did not apply")
	}
}

// TestPairedDiffsTighterThanUnpaired pins the sweep's statistical payoff:
// under the grid's common-random-numbers seeding, the paired-t interval
// on a variant-minus-baseline difference comes out tighter than the
// Welch unpaired interval from the same replicates. The advantage is a
// correlation effect, not an identity — a metric whose noise correlates
// weakly across arms can tip the other way at tiny n, because the paired
// t table (df = n−1) is harsher than Welch's (df up to 2n−2) — so the
// test demands strict tightness on the headline utilization metrics
// (strongly seed-correlated by construction) and majority tightness
// overall, rather than a universal per-metric inequality.
func TestPairedDiffsTighterThanUnpaired(t *testing.T) {
	bestFit, err := PolicyVariant("best-fit")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Def{Scale: tinyScale(), Seeds: 3,
		Variants: []Variant{ArrivalScale(1.5), Baseline(), bestFit}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline != 1 {
		t.Fatalf("baseline anchor index %d, want 1", res.Baseline)
	}
	if res.Variants[1].Diffs != nil || res.Variants[1].UnpairedCI95 != nil {
		t.Fatal("baseline variant must carry no self-difference")
	}
	metric := func(name string) int {
		for m, n := range res.Metrics {
			if n == name {
				return m
			}
		}
		t.Fatalf("metric %q not in sweep vector", name)
		return -1
	}
	cpuUtil := metric("cpu_util")
	tighter, total := 0, 0
	for _, vi := range []int{0, 2} {
		v := res.Variants[vi]
		if len(v.Diffs) != len(res.Metrics) || len(v.UnpairedCI95) != len(res.Metrics) {
			t.Fatalf("variant %q: diff vectors sized %d/%d, want %d",
				v.Name, len(v.Diffs), len(v.UnpairedCI95), len(res.Metrics))
		}
		for m, d := range v.Diffs {
			if d.N != 3 {
				t.Fatalf("variant %q metric %s: diff n=%d, want 3", v.Name, res.Metrics[m], d.N)
			}
			if want := v.Stats[m].Mean - res.Variants[1].Stats[m].Mean; math.Abs(d.Mean-want) > 1e-9 {
				t.Fatalf("variant %q metric %s: diff mean %g, want %g", v.Name, res.Metrics[m], d.Mean, want)
			}
			total++
			if d.CI95 <= v.UnpairedCI95[m] {
				tighter++
			}
		}
		if d := v.Diffs[cpuUtil]; d.CI95 >= v.UnpairedCI95[cpuUtil] {
			t.Fatalf("variant %q: paired cpu_util CI95 %g not tighter than unpaired %g",
				v.Name, d.CI95, v.UnpairedCI95[cpuUtil])
		}
	}
	if 2*tighter < total {
		t.Fatalf("paired interval tighter for only %d/%d variant×metric pairs", tighter, total)
	}
}

func TestRunRejectsBadDefs(t *testing.T) {
	if _, err := Run(Def{Scale: tinyScale(), Seeds: 0}); err == nil {
		t.Fatal("Seeds 0 accepted")
	}
	if _, err := Run(Def{Scale: tinyScale(), Seeds: 1,
		Variants: []Variant{Baseline(), Baseline()}}); err == nil {
		t.Fatal("duplicate variant names accepted")
	}
	if _, err := Run(Def{Scale: tinyScale(), Seeds: 1,
		Variants: []Variant{{Name: ""}}}); err == nil {
		t.Fatal("unnamed variant accepted")
	}
}

func TestParseVariants(t *testing.T) {
	vs, err := ParseVariants("arrival:0.5,1.0,2.0;overcommit:1.25;baseline")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, v := range vs {
		names = append(names, v.Name)
	}
	want := []string{"arrival:0.5", "arrival:1", "arrival:2", "overcommit:1.25", "baseline"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("parsed %v, want %v", names, want)
	}
	if vs[0].Apply == nil || vs[4].Apply != nil {
		t.Fatal("arrival variant must have an overlay; baseline must not")
	}
	for _, bad := range []string{"bogus:1", "arrival:zero", "arrival:-1", "arrival", ":overcommit=1"} {
		if _, err := ParseVariants(bad); err == nil {
			t.Fatalf("ParseVariants(%q) accepted", bad)
		}
	}
	if vs, err := ParseVariants(""); err != nil || len(vs) != 1 || vs[0].Name != "baseline" {
		t.Fatalf("empty spec: %v, %v", vs, err)
	}
}

// TestParseVariantsPolicyAndComposite covers the policy family and the
// name:knob=value composite clause grammar, plus the promise that every
// rejection names the valid set — a typo never silently no-ops.
func TestParseVariantsPolicyAndComposite(t *testing.T) {
	vs, err := ParseVariants("policy:best-fit,worst-fit;zoo-hot:policy=oversub,arrival=1.5")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, v := range vs {
		names = append(names, v.Name)
	}
	want := []string{"policy:best-fit", "policy:worst-fit", "zoo-hot"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("parsed %v, want %v", names, want)
	}

	p := workload.Profile2019("a", 100)
	baseRate := p.JobsPerHour
	vs[2].Apply(p)
	if p.Sched.Policy != scheduler.Oversub || p.JobsPerHour != baseRate*1.5 {
		t.Fatalf("composite overlay: policy %v, rate %g (base %g)", p.Sched.Policy, p.JobsPerHour, baseRate)
	}
	p2 := workload.Profile2019("a", 100)
	vs[1].Apply(p2)
	if p2.Sched.Policy != scheduler.WorstFit {
		t.Fatalf("policy overlay: got %v", p2.Sched.Policy)
	}

	// Every rejection names the valid set it was checked against.
	errorLists := []struct {
		spec  string
		lists []string
	}{
		{"bogus:1", familyNames()},                      // unknown family
		{"zoo:bogus=1", knobNames()},                    // unknown composite knob
		{"policy:bestfit", scheduler.PolicyNames()},     // unknown policy in family clause
		{"zoo:policy=bestfit", scheduler.PolicyNames()}, // unknown policy in composite
	}
	for _, tc := range errorLists {
		_, err := ParseVariants(tc.spec)
		if err == nil {
			t.Fatalf("ParseVariants(%q) accepted", tc.spec)
		}
		for _, name := range tc.lists {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("ParseVariants(%q) error %q does not list %q", tc.spec, err, name)
			}
		}
	}
	for _, bad := range []string{"zoo:arrival", "zoo:arrival=x", "zoo:arrival=-1", "zoo:arrival=0"} {
		if _, err := ParseVariants(bad); err == nil {
			t.Fatalf("ParseVariants(%q) accepted", bad)
		}
	}
	if _, err := PolicyVariant("nope"); err == nil {
		t.Fatal("PolicyVariant accepted an unknown policy name")
	}
}

func TestVariantOverlaysMutateKnobs(t *testing.T) {
	p := workload.Profile2019("a", 100)
	baseRate, baseMachines := p.JobsPerHour, p.Machines
	baseOC := p.Overcommit.CPUFactor
	ArrivalScale(0.5).Apply(p)
	MachineScale(2).Apply(p)
	OvercommitScale(1.5).Apply(p)
	AllocCeiling(0.42).Apply(p)
	if p.JobsPerHour != baseRate*0.5 || p.Machines != baseMachines*2 {
		t.Fatalf("arrival/machines overlays: %g, %d", p.JobsPerHour, p.Machines)
	}
	if p.Overcommit.CPUFactor != baseOC*1.5 || p.Sched.BatchAllocCeiling != 0.42 {
		t.Fatalf("overcommit/ceiling overlays: %+v, %g", p.Overcommit, p.Sched.BatchAllocCeiling)
	}

	ProdShift(2).Apply(p)
	sum := 0.0
	for _, tier := range p.Tiers {
		sum += tier.ArrivalShare
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("prodshift left arrival shares summing to %g", sum)
	}
}

// TestSweepCSVs checks the per-metric and summary CSV exports exist,
// carry the long-form rows, and are byte-deterministic.
func TestSweepCSVs(t *testing.T) {
	res, err := Run(Def{Scale: tinyScale(), Seeds: 2,
		Variants: []Variant{Baseline(), ArrivalScale(1.5)}})
	if err != nil {
		t.Fatal(err)
	}
	read := func(dir string) map[string][]byte {
		t.Helper()
		if err := res.WriteCSVs(dir); err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte)
		for _, name := range append([]string{"summary", "paired_diffs"}, res.Metrics...) {
			b, err := os.ReadFile(filepath.Join(dir, name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			if len(b) == 0 {
				t.Fatalf("%s.csv is empty", name)
			}
			out[name] = b
		}
		return out
	}
	first := read(filepath.Join(t.TempDir(), "a"))
	second := read(filepath.Join(t.TempDir(), "b"))
	if !reflect.DeepEqual(first, second) {
		t.Fatal("CSV exports are not deterministic")
	}

	lines := strings.Split(strings.TrimSpace(string(first["cpu_util"])), "\n")
	if lines[0] != "variant,seed,cpu_util" {
		t.Fatalf("metric CSV header %q", lines[0])
	}
	// header + (variants × seeds) rows
	if want := 1 + 2*2; len(lines) != want {
		t.Fatalf("cpu_util.csv has %d lines, want %d", len(lines), want)
	}
	// Every row, in order: variant by variant, seed by seed, carrying
	// the per-seed value in the report's number format.
	m := slices.Index(res.Metrics, "cpu_util")
	want := []string{"variant,seed,cpu_util"}
	for _, v := range res.Variants {
		for run, vec := range v.PerSeed {
			want = append(want, fmt.Sprintf("%s,%d,%s", v.Name, run, report.F(vec[m])))
		}
	}
	if !slices.Equal(lines, want) {
		t.Fatalf("cpu_util.csv rows:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
	if !strings.HasPrefix(string(first["summary"]), "variant,metric,mean,stddev,min,max,ci95,n") {
		t.Fatalf("summary header: %q", strings.SplitN(string(first["summary"]), "\n", 2)[0])
	}

	diffLines := strings.Split(strings.TrimSpace(string(first["paired_diffs"])), "\n")
	if diffLines[0] != "variant,baseline,metric,diff_mean,diff_stddev,paired_ci95,unpaired_ci95,n" {
		t.Fatalf("paired_diffs header %q", diffLines[0])
	}
	// header + (non-baseline variants × metrics) rows
	if want := 1 + 1*len(res.Metrics); len(diffLines) != want {
		t.Fatalf("paired_diffs.csv has %d lines, want %d", len(diffLines), want)
	}

	var rep bytes.Buffer
	if err := res.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), `== paired differences vs "baseline"`) {
		t.Fatal("report is missing the paired-difference section")
	}
}

// TestParseVariantsArrivalProcesses covers the polymorphic arrival
// family: numeric values keep their rate-multiplier meaning, everything
// else selects an arrival process by spec — in family clauses and in
// named composites alike — and typos list the registered process set.
func TestParseVariantsArrivalProcesses(t *testing.T) {
	vs, err := ParseVariants(
		"arrival:2,gamma:cv=2.5,cohorts:k=40+skew=1.5;bursty:arrival=weibull:cv=3,policy=best-fit")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, v := range vs {
		names = append(names, v.Name)
	}
	want := []string{"arrival:2", "arrival:gamma:cv=2.5", "arrival:cohorts:k=40+skew=1.5", "bursty"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("parsed %v, want %v", names, want)
	}

	p := workload.Profile2019("a", 100)
	baseRate := p.JobsPerHour
	vs[0].Apply(p)
	if p.JobsPerHour != baseRate*2 || p.Arrival.Name != "" {
		t.Fatalf("numeric arrival value no longer scales the rate: %g (base %g), arrival %q",
			p.JobsPerHour, baseRate, p.Arrival)
	}
	vs[1].Apply(p)
	if p.Arrival.Name != "gamma" || p.Arrival.String() != "gamma:cv=2.5" {
		t.Fatalf("process variant set Arrival = %q", p.Arrival)
	}
	p2 := workload.Profile2019("a", 100)
	vs[3].Apply(p2)
	if p2.Arrival.String() != "weibull:cv=3" || p2.Sched.Policy != scheduler.BestFit {
		t.Fatalf("composite overlay: arrival %q, policy %v", p2.Arrival, p2.Sched.Policy)
	}

	for _, tc := range []struct {
		spec  string
		lists []string
	}{
		{"arrival:loglogistic", workload.ArrivalNames()},
		{"x:arrival=loglogistic", workload.ArrivalNames()},
	} {
		_, err := ParseVariants(tc.spec)
		if err == nil {
			t.Fatalf("ParseVariants(%q) accepted", tc.spec)
		}
		for _, name := range tc.lists {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("ParseVariants(%q) error %q does not list %q", tc.spec, err, name)
			}
		}
	}
	for _, bad := range []string{"arrival:gamma:burst=2", "x:arrival=gamma:cv=-1"} {
		if _, err := ParseVariants(bad); err == nil {
			t.Fatalf("ParseVariants(%q) accepted", bad)
		}
	}
}

// TestSweepReplayFixesWorkloadAcrossVariants pins the CRN-beyond-seeds
// contract of Scale.Replay: when every grid point replays the same
// recorded workloads, an arrival-process variant has nothing left to
// vary — its metrics equal the baseline's exactly — while the replayed
// numbers still match a plain generated run at the recording seed.
func TestSweepReplayFixesWorkloadAcrossVariants(t *testing.T) {
	rec := tinyScale()
	rec.RecordWorkload = true
	suite := experiments.RunSuite(rec)
	recs := make([]*workload.Recording, len(suite.Stats))
	for i := range suite.Stats {
		recs[i] = suite.Stats[i].Workload
	}

	d := Def{
		Scale:    tinyScale(),
		Seeds:    1,
		Variants: []Variant{Baseline(), mustVariant(t, "arrival:gamma:cv=2.5")},
	}
	d.Scale.Replay = recs
	res, err := Run(d)
	if err != nil {
		t.Fatal(err)
	}
	base, alt := res.Variants[0], res.Variants[1]
	if !reflect.DeepEqual(base.PerSeed, alt.PerSeed) {
		t.Fatalf("arrival variant moved metrics under replayed workloads:\nbase %v\nalt  %v",
			base.PerSeed[0], alt.PerSeed[0])
	}

	// Sanity check the control: without replay the same variant moves at
	// least one metric.
	d2 := d
	d2.Scale.Replay = nil
	res2, err := Run(d2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(res2.Variants[0].PerSeed, res2.Variants[1].PerSeed) {
		t.Fatal("gamma:cv=2.5 variant changed nothing even without replay — variant inert")
	}
}

func mustVariant(t *testing.T, spec string) Variant {
	t.Helper()
	vs, err := ParseVariants(spec)
	if err != nil || len(vs) != 1 {
		t.Fatalf("ParseVariants(%q): %v (%d variants)", spec, err, len(vs))
	}
	return vs[0]
}
