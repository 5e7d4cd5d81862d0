package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3.5, 1.25}, 0.6875, 2.375, 4.0625},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 4, 7},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(m-tc.m) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	seq := func(base, step float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = base + step*float64(i%5)
		}
		return xs
	}
	reversed := func(xs []float64) []float64 {
		r := slices.Clone(xs)
		slices.Reverse(r)
		return r
	}
	rel := func(r float64) bound { return bound{rel: r} }
	for _, tc := range []struct {
		name           string
		parent, change []float64
		b              bound
		higherBetter   bool
		want           string
	}{
		{"clear gain over ten pairs", seq(100, 1, 10), seq(80, 1, 10), rel(0.1), false, improved},
		{"gain on too few pairs", seq(100, 1, 5), seq(80, 1, 5), rel(0.1), false, noWorse},
		{"gain within the parent's spread", seq(100, 10, 10), seq(95, 10, 10), rel(0.5), false, noWorse},
		{"small loss within the bound", seq(100, 1, 10), seq(105, 1, 10), rel(0.1), false, noWorse},
		{"loss beyond the bound", seq(100, 1, 10), seq(120, 1, 10), rel(0.1), false, worse},
		{"pairs disagree by more than the bound", seq(100, 10, 10), reversed(seq(100, 10, 10)), rel(0.05), false, unresolved},
		{"wide pair spread on five pairs, every change run better", seq(100, 10, 5), []float64{50, 10, 30, 20, 40}, rel(0.05), false, noWorse},
		{"higher is better, and it fell", seq(100, 1, 10), seq(80, 1, 10), rel(0.1), true, worse},
		{"higher is better, and it rose", seq(100, 1, 10), seq(120, 1, 10), rel(0.1), true, improved},
		{"loss under the absolute floor", seq(10, 0.1, 10), seq(14, 0.1, 10), bound{rel: 0.05, abs: 5}, false, noWorse},
		{"loss over the absolute floor", seq(10, 0.1, 10), seq(16, 0.1, 10), bound{rel: 0.05, abs: 5}, false, worse},
	} {
		if got := verdict(tc.parent, tc.change, tc.b, tc.higherBetter); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestAlternatedPairsCancelDrift is the A/A case: one build on both sides,
// on a machine whose speed drifts by 75% over the session, as measured on
// a shared 2-core VM. Runs that alternate which side goes first give
// neither improved nor worse; the same runs made one side after the other
// read worse.
func TestAlternatedPairsCancelDrift(t *testing.T) {
	rnd := rand.New(rand.NewPCG(1, 2))
	const pairs = 2 * minPairs
	run := func(k int) float64 {
		slowdown := 1 + 0.75*float64(k)/float64(2*pairs-1)
		return 8 * slowdown * (1 + 0.03*(2*rnd.Float64()-1))
	}
	var sides [2][]float64
	k := 0
	for i := range pairs {
		for _, sd := range sideOrder(i, 2) {
			sides[sd] = append(sides[sd], run(k))
			k++
		}
	}
	if v := verdict(sides[0], sides[1], pairedBounds["wall_s"], false); v == improved || v == worse {
		t.Errorf("alternated A/A pairs: verdict %s", v)
	}
	var first, second []float64
	for k := range 2 * pairs {
		if k < pairs {
			first = append(first, run(k))
		} else {
			second = append(second, run(k))
		}
	}
	if v := verdict(first, second, pairedBounds["wall_s"], false); v != worse {
		t.Errorf("A/A runs one side after the other: verdict %s, want %s", v, worse)
	}
}

func TestSideOrderAlternates(t *testing.T) {
	for i, want := range [][]int{{0, 1}, {1, 0}, {0, 1}} {
		if got := sideOrder(i, 2); !slices.Equal(got, want) {
			t.Errorf("sideOrder(%d, 2) = %v, want %v", i, got, want)
		}
	}
	if got := sideOrder(3, 1); !slices.Equal(got, []int{0}) {
		t.Errorf("sideOrder(3, 1) = %v", got)
	}
}

// TestMoreTimedFillsTheBudget checks the timed-run count: a run starts
// while at least half of it fits in the budget, never fewer than minTimed
// run, and -compare makes at least minPairs pairs.
func TestMoreTimedFillsTheBudget(t *testing.T) {
	count := func(s *session, runS ...float64) int {
		rs := make([]*workloadRun, len(s.sides))
		for k := range rs {
			rs[k] = &workloadRun{}
		}
		i := 0
		for ; s.moreTimed(i, rs); i++ {
			for k, r := range rs {
				r.timed = append(r.timed, &childRun{})
				r.timedS += runS[k]
			}
		}
		return i
	}
	plain := &session{seconds: 55, sides: make([]side, 1)}
	for _, tc := range []struct {
		runS float64
		want int
	}{{10, 6}, {11, 5}, {13, 4}, {20, 3}, {25, minTimed}, {60, minTimed}} {
		if got := count(plain, tc.runS); got != tc.want {
			t.Errorf("%v s runs in 55 s: %d timed runs, want %d", tc.runS, got, tc.want)
		}
	}
	comparing := &session{seconds: 55, sides: make([]side, 2)}
	if got := count(comparing, 10, 20); got != minPairs {
		t.Errorf("-compare: %d pairs, want %d", got, minPairs)
	}
}

// TestCompareFlagsChangedOutputsAndCounts checks that -compare calls worse
// a change whose times match its parent's but whose outputs or counts
// differ.
func TestCompareFlagsChangedOutputsAndCounts(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	side := func(sum string, events float64) *Results {
		wr := WorkloadResult{Name: "suite-stream", Attempted: 12, Outputs: map[string]string{"7": sum},
			EndToEnd: make(map[string]Summary), PerLayer: map[string]float64{"sim.events": events}}
		for _, m := range spec.EndToEnd {
			xs := make([]float64, minPairs)
			for i := range xs {
				xs[i] = 1 + float64(i%3)/100
			}
			wr.EndToEnd[m.Name] = summarize(m.Unit, xs)
		}
		return &Results{Seed: 1, Workloads: []WorkloadResult{wr}}
	}
	for _, tc := range []struct {
		name      string
		change    *Results
		wantWorse string
	}{
		{"same outputs and counts", side("aaaa", 100), ""},
		{"output differs", side("bbbb", 100), "outputs"},
		{"count differs", side("aaaa", 99), "sim.events"},
	} {
		var out bytes.Buffer
		got := compare(&out, spec, side("aaaa", 100), tc.change)
		if got != (tc.wantWorse != "") {
			t.Errorf("%s: compare reported worse = %v\n%s", tc.name, got, out.String())
		}
		if tc.wantWorse != "" && !strings.Contains(out.String(), fmt.Sprintf("%-15s %-20s %-10s", "suite-stream", tc.wantWorse, worse)) {
			t.Errorf("%s: no worse row for %s\n%s", tc.name, tc.wantWorse, out.String())
		}
	}
}

func TestStepSplitter(t *testing.T) {
	var buf bytes.Buffer
	sw := &stepWriter{w: &buf}
	start := time.Now()
	for i, st := range reportSteps {
		fmt.Fprintf(sw, "%s synthetic step %d\n", st.header, i)
		fmt.Fprintf(sw, "row\nrow\n")
		fmt.Fprintln(sw)
	}
	values := make(map[string]float64)
	if err := recordSteps(values, start, sw.splits); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, st := range reportSteps {
		v, ok := values["render."+st.name+"_s"]
		if !ok || v < 0 {
			t.Fatalf("render.%s_s = %v, %v", st.name, v, ok)
		}
		sum += v
	}
	if math.Abs(sum-values["render.busy_s"]) > 1e-9 {
		t.Errorf("steps sum to %v, render.busy_s is %v", sum, values["render.busy_s"])
	}
	if err := recordSteps(values, start, sw.splits[1:]); err == nil {
		t.Error("recordSteps accepted 15 splits")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, reportFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkSuiteReport(dir); err != nil {
		t.Errorf("synthetic report: %v", err)
	}
	cut := strings.Replace(buf.String(), reportSteps[13].header, "== Fig 12", 1)
	if err := os.WriteFile(filepath.Join(dir, reportFile), []byte(cut), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkSuiteReport(dir); err == nil {
		t.Error("checkSuiteReport accepted a report without Figure 12")
	}
}

func TestHashStoreDetectsMismatch(t *testing.T) {
	h := hashStore{dir: t.TempDir()}
	if err := h.check("suite", 1, "aaaa"); err != nil {
		t.Fatal(err)
	}
	if err := h.check("suite", 1, "aaaa"); err != nil {
		t.Errorf("same hash: %v", err)
	}
	if err := h.check("suite", 1, "bbbb"); err == nil {
		t.Error("a different hash passed")
	}
	if err := h.check("suite", 2, "bbbb"); err != nil {
		t.Errorf("another seed: %v", err)
	}
}

//go:noinline
func spinForProfile(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

func TestParseProfileOfOwnRecording(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spinForProfile(200 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin int64
	for _, s := range samples {
		total += s.weight
		for _, fn := range s.funcs {
			if fn == "repro/bench.spinForProfile" || fn == "main.spinForProfile" {
				spin += s.weight
				break
			}
		}
	}
	if total == 0 || spin*2 < total {
		t.Errorf("%d of %d samples in spinForProfile, want most", spin, total)
	}
	if _, err := parseProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile parsed")
	}
}

func TestAttribution(t *testing.T) {
	samples := []stackSample{
		{1, []string{"slices.pdqsortOrdered[...]", "sort.Float64s", "repro/internal/stats.Quantile",
			"repro/internal/experiments.(*suiteAnalyses).WriteFigure14"}},
		{1, []string{"runtime.mallocgc", "repro/internal/rng.(*Source).Float64",
			"repro/internal/core.(*usageSampler).sample", "repro/internal/sim.(*Kernel).RunUntil"}},
		{1, []string{"runtime.mapaccess2_fast64", "repro/internal/analysis/streaming.(*CellReducer).UsageBatch"}},
		{1, []string{"container/heap.Pop", "repro/internal/sim.(*Kernel).Step[go.shape.int]"}},
		{2, []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{2, []string{"runtime.futex", "runtime.notesleep"}},
	}
	got := attribute(samples)
	want := map[string]float64{
		"cpu.render": 0.125, "cpu.core": 0.125, "cpu.streaming": 0.125, "cpu.sim": 0.125,
		"cpu.gc": 0.25, "cpu.other": 0.25, "cpu.scheduler": 0,
		"cpu.x.sort": 0.125, "cpu.x.malloc": 0.125, "cpu.x.mapaccess": 0.125, "cpu.x.container_heap": 0.125,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
}

// tinyScale is a nine-cell suite small enough for a unit test.
func tinyScale() experiments.Scale {
	return experiments.Scale{Name: "tiny", Machines2011: 12, Machines2019: 8,
		Horizon: 90 * sim.Minute, Warmup: 30 * sim.Minute, Seed: 5, Parallelism: 1}
}

// smoke makes one in-process run, untraced or traced, and returns what it
// measured and the hash of its outputs.
func smoke(t *testing.T, traced bool, check func(string) error, run func(dir string, p *probe) error) (*childRun, string) {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, outDir)
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	profile := ""
	if traced {
		profile = filepath.Join(dir, profileFile)
	}
	res, err := measure(func(p *probe) error { return run(out, p) }, profile)
	if err != nil {
		t.Fatal(err)
	}
	c := &childRun{res: res}
	if traced {
		data, err := os.ReadFile(profile)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := parseProfile(data)
		if err != nil {
			t.Fatal(err)
		}
		c.cpu = attribute(samples)
	}
	if check != nil {
		if err := check(out); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := hashDir(out)
	if err != nil {
		t.Fatal(err)
	}
	return c, sum
}

// smokeWorkload makes a timed and a traced run of one workload function,
// plus its stage runs, and returns the per-layer metrics and output hash.
func smokeWorkload(t *testing.T, w *workload, run func(dir string, p *probe) error) (map[string]float64, string) {
	t.Helper()
	timed, sum := smoke(t, false, w.check, run)
	traced, tracedSum := smoke(t, true, w.check, run)
	if tracedSum != sum {
		t.Errorf("%s: traced output hash differs from the untraced one", w.name)
	}
	r := &workloadRun{w: w, setups: []float64{0.002}, timed: []*childRun{timed}, base: timed, traced: traced,
		stages: make(map[string]*childRun)}
	for _, st := range w.stages {
		c, _ := smoke(t, false, nil, func(_ string, p *probe) error {
			runSuiteStage(tinyScale(), st == stageSim, p)
			return nil
		})
		r.stages[st] = c
	}
	r.checkJobStream()
	if len(r.failures) > 0 {
		t.Errorf("%s: %v", w.name, r.failures)
	}
	if timed.res.WallS <= 0 || timed.res.AllocMB <= 0 || timed.res.MachineHours <= 0 {
		t.Errorf("%s: timed run measured %+v", w.name, timed.res)
	}
	return r.perLayer(), sum
}

// TestWorkloadsSmoke runs every workload function at a tiny scale, timed
// and traced, and checks their outputs, their hashes and that together they
// produce every per-layer metric BENCHMARK.json names.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	measured := make(map[string]bool)
	add := func(m map[string]float64) {
		for k := range m {
			measured[k] = true
		}
	}
	must := func(name string) *workload {
		w, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	stream, streamSum := smokeWorkload(t, must("suite-stream"), func(dir string, p *probe) error {
		return runSuiteStream(tinyScale(), dir, p)
	})
	add(stream)
	retained, retainedSum := smokeWorkload(t, must("suite-retained"), func(dir string, p *probe) error {
		return runSuiteRetained(tinyScale(), dir, p)
	})
	add(retained)
	if streamSum != retainedSum {
		t.Error("suite-stream's report differs from suite-retained's")
	}
	if n := stream["render.busy_s"]; n <= 0 {
		t.Errorf("suite-stream render.busy_s = %v", n)
	}
	if n := stream["streaming.calls"]; n <= 0 {
		t.Errorf("suite-stream streaming.calls = %v", n)
	}
	// At parallelism 1 the one worker simulates for the whole simulation.
	if b := stream["engine.worker_busy_frac"]; b < 0.8 || b > 1.05 {
		t.Errorf("suite-stream engine.worker_busy_frac = %v, want about 1", b)
	}
	if stream["sim.events"] != retained["sim.events"] {
		t.Errorf("sim.events: stream %v, retained %v", stream["sim.events"], retained["sim.events"])
	}

	perLayer := make(map[string]bool)
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = true
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", m.Name)
		}
	}
	for _, name := range countMetrics {
		if !perLayer[name] {
			t.Errorf("count metric %s is not a per-layer metric of BENCHMARK.json", name)
		}
	}
}
