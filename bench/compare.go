package main

import (
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// Comparison is what -compare writes with -o: both sides' results, from
// one session that alternated their runs.
type Comparison struct {
	Parent *Results `json:"parent"`
	Change *Results `json:"change"`
}

// localReplace is the line of bench/go.mod that builds the benchmark
// against the program in its own checkout.
const localReplace = "replace repro => ../"

// buildParent builds this benchmark's code against the program in the
// checkout at dir and returns the binary. Both sides of a comparison so
// run the same benchmark code and speak the same child protocol; only the
// program under it differs. The parent checkout must still have the
// functions the benchmark calls.
func buildParent(dir string) (string, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("-compare %s: not a checkout of the repository: %w", dir, err)
	}
	out, err := filepath.Abs(filepath.Join(buildDir, "parent"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	mod, err := os.ReadFile(filepath.Join("bench", "go.mod"))
	if err != nil {
		return "", err
	}
	if !strings.Contains(string(mod), localReplace) {
		return "", fmt.Errorf("bench/go.mod lacks %q", localReplace)
	}
	modFile := filepath.Join(out, "go.mod")
	parentMod := strings.Replace(string(mod), localReplace, "replace repro => "+root, 1)
	if err := os.WriteFile(modFile, []byte(parentMod), 0o644); err != nil {
		return "", err
	}
	exe := filepath.Join(out, "borgbench")
	cmd := exec.Command("go", "build", "-modfile", modFile, "-o", exe, ".")
	cmd.Dir = "bench"
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building the benchmark against %s: %v\n%s", dir, err, b)
	}
	return exe, nil
}

// compare prints, for every workload and end-to-end metric, the verdict on
// the change against the parent with each side's median and quartiles;
// then any output or count that differs, and any rise in failed runs, each
// as worse; then every per-layer metric's change. It reports whether any
// verdict is worse.
func compare(w io.Writer, spec *Spec, parent, change *Results) bool {
	anyWorse := false
	fmt.Fprintf(w, "%-15s %-20s %-10s %11s %-23s %11s %-23s %8s %5s %7s\n", "workload", "metric", "verdict",
		"parent", "[q1, q3]", "change", "[q1, q3]", "delta", "wins", "spread")
	bad := func(wl, what string, p, c any) {
		anyWorse = true
		fmt.Fprintf(w, "%-15s %-20s %-10s %v → %v\n", wl, what, worse, p, c)
	}
	for _, cw := range change.Workloads {
		pw := findWorkload(parent, cw.Name)
		if pw == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			ps, pok := pw.EndToEnd[m.Name]
			cs, cok := cw.EndToEnd[m.Name]
			if !pok || !cok {
				continue
			}
			higher := m.Better == "higher"
			v := verdict(ps.Samples, cs.Samples, pairedBounds[m.Name], higher)
			anyWorse = anyWorse || v == worse
			ratios, wins := pairRatios(ps.Samples, cs.Samples, higher)
			rq1, _, rq3 := quartiles(ratios)
			fmt.Fprintf(w, "%-15s %-20s %-10s %11.5g [%9.5g, %9.5g] %11.5g [%9.5g, %9.5g] %+7.2f%% %2d/%-2d %6.2f%%\n",
				cw.Name, m.Name, v, ps.Median, ps.Q1, ps.Q3, cs.Median, cs.Q1, cs.Q3,
				100*relative(cs.Median-ps.Median, ps.Median), wins, len(ratios), 100*(rq3-rq1))
		}
		for _, in := range slices.Sorted(maps.Keys(cw.Outputs)) {
			if p, ok := pw.Outputs[in]; ok && p != cw.Outputs[in] {
				bad(cw.Name, "outputs", fmt.Sprintf("input %s: %.12s", in, p), fmt.Sprintf("%.12s", cw.Outputs[in]))
			}
		}
		if pw.PerLayer != nil && cw.PerLayer != nil {
			for _, name := range countMetrics {
				if p, c := pw.PerLayer[name], cw.PerLayer[name]; p != c {
					bad(cw.Name, name, p, c)
				}
			}
		}
		if cw.Failed > pw.Failed {
			bad(cw.Name, "failed runs", pw.Failed, cw.Failed)
		}
	}
	fmt.Fprintf(w, "\n%-15s %-36s %12s %12s %9s\n", "workload", "per-layer metric", "parent", "change", "delta")
	for _, cw := range change.Workloads {
		pw := findWorkload(parent, cw.Name)
		if pw == nil || pw.PerLayer == nil || cw.PerLayer == nil {
			continue
		}
		for _, m := range spec.PerLayer {
			p, c := pw.PerLayer[m.Name], cw.PerLayer[m.Name]
			if p == 0 && c == 0 {
				continue
			}
			delta := relative(c-p, p)
			if math.IsInf(delta, 0) {
				fmt.Fprintf(w, "%-15s %-36s %12.6g %12.6g %9s\n", cw.Name, m.Name, p, c, "new")
				continue
			}
			fmt.Fprintf(w, "%-15s %-36s %12.6g %12.6g %+8.2f%%\n", cw.Name, m.Name, p, c, 100*delta)
		}
	}
	return anyWorse
}

func findWorkload(r *Results, name string) *WorkloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}
