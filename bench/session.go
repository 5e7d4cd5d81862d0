package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
)

// This file is the parent side: it starts every run as a child process,
// one at a time, checks its outputs and turns what the children measured
// into the benchmark's metrics.

// setupProbes is how many set-up-only children a workload starts before
// each of its timed runs, or once before its traced runs when it makes no
// timed run. Spread over the whole run, they give setup_s a steady median,
// and the first ones load the binary's pages before any run is timed.
const setupProbes = 10

// minTimed is the fewest timed runs a workload gets under -seconds.
const minTimed = 2

// buildDir holds everything the benchmark writes, relative to the
// repository root it runs from.
const buildDir = ".bench_build"

// side is one build of the benchmark that a session starts children of.
type side struct {
	exe    string
	hashes hashStore
}

type session struct {
	seed uint64
	// seconds is each workload's budget of timed runs (see moreTimed).
	seconds float64
	warmup  int
	// timed is false when the session makes only traced runs.
	timed bool
	trace bool
	procs int
	// sides holds the benchmark's own build, or under -compare the parent's
	// build and then this one.
	sides  []side
	runDir string
}

// newSession starts a session whose children are the builds exes: one, or
// under -compare the parent's and the change's.
func newSession(seed uint64, seconds float64, warmup int, timed, trace bool, procs int, exes []string) (*session, error) {
	s := &session{seed: seed, seconds: seconds, warmup: warmup, timed: timed, trace: trace,
		procs: procs, runDir: filepath.Join(buildDir, "runs")}
	for _, exe := range exes {
		id, err := fileHash(exe)
		if err != nil {
			return nil, err
		}
		sd := side{exe: exe, hashes: hashStore{dir: filepath.Join(buildDir, "hashes", id[:16])}}
		if err := os.MkdirAll(sd.hashes.dir, 0o755); err != nil {
			return nil, err
		}
		s.sides = append(s.sides, sd)
	}
	if err := os.MkdirAll(s.runDir, 0o755); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *session) comparing() bool { return len(s.sides) > 1 }

// moreTimed reports whether a workload, whose runs on each side are rs,
// gets timed round i. It gets at least minTimed rounds, and under -compare
// at least minPairs. After that it gets another round while, on every side,
// the timed runs so far and half of one more of their mean length fit in
// -seconds, so that its timed runs take about -seconds however fast the
// machine is.
func (s *session) moreTimed(i int, rs []*workloadRun) bool {
	if i < minTimed || s.comparing() && i < minPairs {
		return true
	}
	for _, r := range rs {
		n := float64(len(r.timed))
		if n == 0 || r.timedS*(n+0.5)/n > s.seconds {
			return false
		}
	}
	return true
}

// sideOrder returns the order in which round i runs n sides: each round
// starts one side later than the one before, so that the machine's speed
// drifting over a session favours no side.
func sideOrder(i, n int) []int {
	order := make([]int, n)
	for j := range order {
		order[j] = (i + j) % n
	}
	return order
}

// childRun is one finished child: what it measured, plus what the parent
// measured around it.
type childRun struct {
	res    childResult
	input  uint64             // the input seed it simulated
	setupS float64            // from just before the exec to the child's entry call
	cpuS   float64            // the child's user + system CPU time
	cpu    map[string]float64 // traced runs: CPU shares by layer
	outSum string             // timed and traced runs: the SHA-256 of the outputs
	spentS float64            // from just before the exec until its outputs were checked
}

// workloadRun collects one workload's runs on one side of a session.
type workloadRun struct {
	w      *workload
	setups []float64
	// timed[i] simulated input i, or under -compare input 0; timedS is the
	// time they took, their outputs' checks included.
	timed  []*childRun
	timedS float64
	// base is an untraced run of input 0 made next to the traced and stage
	// runs, so that comparing them is not thrown off by the machine's speed
	// drifting between distant runs.
	base      *childRun
	traced    *childRun
	stages    map[string]*childRun
	attempted int
	failures  []string
}

// run makes every workload's runs: warm-up runs, timed runs round-robin
// across the workloads, each after a batch of set-up probes, then for each
// workload its stage runs, a base run and its traced run, back to back.
// Under -compare each of these is made once per side, the sides taking
// turns to go first, and runs[k] holds side k's runs. A workload stops at
// its first failed run on either side.
func (s *session) run(ws []*workload) [][]*workloadRun {
	runs := make([][]*workloadRun, len(s.sides))
	for k := range runs {
		for _, w := range ws {
			runs[k] = append(runs[k], &workloadRun{w: w, stages: make(map[string]*childRun)})
		}
	}
	failed := func(j int) bool {
		for k := range runs {
			if len(runs[k][j].failures) > 0 {
				return true
			}
		}
		return false
	}
	// each runs f(side k's run of workload j) for every side, in round i's
	// order.
	each := func(i, j int, f func(k int, r *workloadRun)) {
		for _, k := range sideOrder(i, len(s.sides)) {
			f(k, runs[k][j])
		}
	}

	// column returns every side's run of workload j.
	column := func(j int) []*workloadRun {
		rs := make([]*workloadRun, len(runs))
		for k := range runs {
			rs[k] = runs[k][j]
		}
		return rs
	}

	for i := 0; i < s.warmup; i++ {
		for j := range ws {
			each(i, j, func(k int, r *workloadRun) { s.spawn(k, r, modeTimed, 0) })
		}
	}
	for i, more := 0, s.timed; more; i++ {
		more = false
		for j := range ws {
			if failed(j) || !s.moreTimed(i, column(j)) {
				continue
			}
			more = true
			each(i, j, func(k int, r *workloadRun) {
				s.probe(k, r)
				if c := s.spawn(k, r, modeTimed, i); c != nil {
					r.timed = append(r.timed, c)
					r.timedS += c.spentS
					r.setups = append(r.setups, c.setupS)
				}
			})
		}
	}
	if !s.trace {
		return runs
	}
	for j := range ws {
		if failed(j) {
			continue
		}
		each(j, j, func(k int, r *workloadRun) {
			if len(r.setups) == 0 {
				s.probe(k, r)
			}
			for _, st := range r.w.stages {
				if c := s.spawn(k, r, st, 0); c != nil {
					r.stages[st] = c
				}
			}
			r.base = s.spawn(k, r, modeTimed, 0)
			r.traced = s.spawn(k, r, modeTraced, 0)
			r.checkJobStream()
		})
	}
	return runs
}

// probe makes setupProbes set-up probes of side k for r's workload.
func (s *session) probe(k int, r *workloadRun) {
	for range setupProbes {
		if c := s.spawn(k, r, modeProbe, 0); c != nil {
			r.setups = append(r.setups, c.setupS)
		}
	}
}

// spawn starts one child of side k for r's workload on input i and waits
// for it. A failed child is recorded in r and returns nil.
//
// Input i is the seed engine.DeriveSeed(seed, i). In a plain run timed run
// i simulates input i, so a workload's median is taken over several inputs
// and moves less from seed to seed. Under -compare every run simulates
// input 0: a pair's two runs then differ only by the build and by noise.
// The warm-up, base, traced and stage runs always use input 0.
func (s *session) spawn(k int, r *workloadRun, mode string, i int) *childRun {
	sd := s.sides[k]
	name := r.w.name
	if s.comparing() {
		name = []string{"parent", "change"}[k] + " " + name
		i = 0
	}
	r.attempted++
	c, err := s.child(sd, r.w, mode, engine.DeriveSeed(s.seed, i))
	if err != nil {
		r.failures = append(r.failures, fmt.Sprintf("%s run on input %d: %v", mode, i, err))
		log.Printf("%s %s run on input %d FAILED: %v", name, mode, i, err)
		return nil
	}
	if mode != modeProbe {
		log.Printf("%s %s run on input %d: wall %.3f s, cpu %.3f s, setup %.1f ms",
			name, mode, i, c.res.WallS, c.cpuS, 1e3*c.setupS)
	}
	return c
}

func (s *session) child(sd side, w *workload, mode string, seed uint64) (*childRun, error) {
	dir, err := os.MkdirTemp(s.runDir, w.name+"-"+mode+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	ctx, cancel := context.WithTimeout(context.Background(), w.deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, sd.exe, "-child", mode, "-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10), "-dir", dir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(s.procs))
	var output bytes.Buffer
	cmd.Stdout, cmd.Stderr = &output, &output
	start := time.Now()
	err = cmd.Run()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("missed its %v deadline", w.deadline)
	}
	if err != nil {
		return nil, fmt.Errorf("%v: %s", err, lastLine(output.String()))
	}

	b, err := os.ReadFile(filepath.Join(dir, resultFile))
	if err != nil {
		return nil, err
	}
	c := &childRun{input: seed}
	if err := json.Unmarshal(b, &c.res); err != nil {
		return nil, fmt.Errorf("decoding %s: %v", resultFile, err)
	}
	c.setupS = float64(c.res.EntryUnixNano-start.UnixNano()) / 1e9
	c.cpuS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()

	if mode == modeTimed || mode == modeTraced {
		out := filepath.Join(dir, outDir)
		if err := w.check(out); err != nil {
			return nil, err
		}
		if c.outSum, err = hashDir(out); err != nil {
			return nil, err
		}
		if err := sd.hashes.check(w.group, seed, c.outSum); err != nil {
			return nil, err
		}
	}
	if mode == modeTraced {
		data, err := os.ReadFile(filepath.Join(dir, profileFile))
		if err != nil {
			return nil, err
		}
		samples, err := parseProfile(data)
		if err != nil {
			return nil, err
		}
		c.cpu = attribute(samples)
	}
	c.spentS = time.Since(start).Seconds()
	return c, nil
}

// checkJobStream fails the workload when a stage run submitted a different
// number of jobs than the traced run: the job stream would then depend on
// scheduling, and the stages would not be comparable.
func (r *workloadRun) checkJobStream() {
	if r.traced == nil {
		return
	}
	want := r.traced.res.Values["scheduler.jobs_submitted"]
	for _, st := range r.w.stages {
		c := r.stages[st]
		if c == nil {
			continue
		}
		if got := c.res.Values["scheduler.jobs_submitted"]; got != want {
			r.failures = append(r.failures, fmt.Sprintf(
				"%s run submitted %v jobs, the traced run %v", st, got, want))
		}
	}
}

// endToEnd returns the samples of every end-to-end metric.
func (r *workloadRun) endToEnd() map[string][]float64 {
	m := map[string][]float64{
		"wall_s":              nil,
		"cpu_s":               nil,
		"machine_hours_per_s": nil,
		"setup_s":             r.setups,
		"peak_live_heap_mb":   nil,
		"alloc_mb":            nil,
	}
	for _, c := range r.timed {
		m["wall_s"] = append(m["wall_s"], c.res.WallS)
		m["cpu_s"] = append(m["cpu_s"], c.cpuS)
		m["machine_hours_per_s"] = append(m["machine_hours_per_s"], c.res.MachineHours/c.res.WallS)
		m["peak_live_heap_mb"] = append(m["peak_live_heap_mb"], c.res.PeakLiveMB)
		m["alloc_mb"] = append(m["alloc_mb"], c.res.AllocMB)
	}
	return m
}

// outputs returns the SHA-256 of the outputs of each input the runs
// simulated, keyed by the input seed in decimal.
func (r *workloadRun) outputs() map[string]string {
	sums := make(map[string]string)
	for _, c := range append(slices.Clone(r.timed), r.base, r.traced) {
		if c != nil && c.outSum != "" {
			sums[strconv.FormatUint(c.input, 10)] = c.outSum
		}
	}
	return sums
}

// perLayer returns the per-layer metrics: what the traced run measured,
// its CPU shares, and what follows from comparing it with the stage runs
// and the base run, which simulated the same input untraced. Metrics that
// do not apply to the workload are absent.
func (r *workloadRun) perLayer() map[string]float64 {
	t := r.traced
	if t == nil || r.base == nil {
		return nil
	}
	base := r.base.res
	v := maps.Clone(t.res.Values)
	maps.Copy(v, t.cpu)
	v["runtime.gc_cycles"] = base.GCCycles
	v["bench.tracing_overhead_frac"] = t.res.WallS/base.WallS - 1
	if ev := v["sim.events"]; ev > 0 {
		v["sim.host_ns_per_event"] = 1e9 * base.SimS / ev
	}

	sim, noAutopilot := r.stages[stageSim], r.stages[stageSimNoAutopilot]
	if sim != nil {
		v["stage.sim_s"] = sim.res.SimS
		v["stage.sim_tasks_placed"] = sim.res.Values["scheduler.tasks_placed"]
		if d := r.w.stageDiff; d != "" {
			v["stage."+d+"_s"] = base.SimS - sim.res.SimS
			v["stage."+d+"_alloc_mb"] = base.AllocSimMB - sim.res.AllocSimMB
		}
	}
	if sim != nil && noAutopilot != nil {
		v["stage.sim_noautopilot_s"] = noAutopilot.res.SimS
		v["stage.sim_noautopilot_tasks_placed"] = noAutopilot.res.Values["scheduler.tasks_placed"]
		v["stage.autopilot_s"] = sim.res.SimS - noAutopilot.res.SimS
		v["stage.autopilot_alloc_mb"] = sim.res.AllocSimMB - noAutopilot.res.AllocSimMB
	}
	// The layers must add up to the run a user sees: the untraced one. The
	// traced run's extra time is tracing overhead, no layer's cost.
	if busy, ok := t.res.Values["streaming.busy_s"]; ok && sim != nil {
		_, setup, _ := quartiles(r.setups)
		total := setup + base.WallS
		parts := setup + sim.res.SimS + busy + t.res.Values["render.busy_s"]
		v["bench.reconcile_residual_frac"] = math.Abs(total-parts) / total
	}
	return v
}

// hashStore remembers the first output hash of each group and seed for
// one build of the benchmark. Every later run, in this invocation or a
// later one in the same checkout, must reproduce it byte for byte; that
// includes the streaming suite reproducing the retained suite's report.
type hashStore struct{ dir string }

func (h hashStore) check(group string, seed uint64, sum string) error {
	path := filepath.Join(h.dir, fmt.Sprintf("%s-seed%d.sha256", group, seed))
	first, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return os.WriteFile(path, []byte(sum), 0o644)
	}
	if err != nil {
		return err
	}
	if string(first) != sum {
		return fmt.Errorf("output SHA-256 %.12s differs from the first %s run's %.12s at seed %d",
			sum, group, first, seed)
	}
	return nil
}

// hashDir hashes every file under dir, with its relative path, in lexical
// order.
func hashDir(dir string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}
