package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// Spec is the benchmark's definition, read from BENCHMARK.json: its
// workloads, and its metrics with their units, directions and bounds.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one metric of the spec. Bound is the share of the parent's
// median by which an end-to-end metric may worsen.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	for _, w := range s.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
	}
	measured := (&workloadRun{}).endToEnd()
	for _, m := range s.EndToEnd {
		if _, ok := measured[m.Name]; !ok {
			return nil, fmt.Errorf("%s: end-to-end metric %q is not measured", path, m.Name)
		}
	}
	for _, m := range append(slices.Clone(s.EndToEnd), s.PerLayer...) {
		if m.Better != "higher" && m.Better != "lower" {
			return nil, fmt.Errorf("%s: metric %q: better is %q, want higher or lower", path, m.Name, m.Better)
		}
	}
	return &s, nil
}

// Results is one invocation's outcome, or one side's under -compare, as -o
// writes it.
type Results struct {
	Seed       uint64           `json:"seed"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Workloads  []WorkloadResult `json:"workloads"`
}

// WorkloadResult is one workload's metrics. Per-layer metrics come from
// one traced run; a metric that does not apply to the workload reads 0.
// Outputs holds the SHA-256 of the outputs of each input simulated, keyed
// by the input seed.
type WorkloadResult struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Outputs   map[string]string  `json:"outputs,omitempty"`
	EndToEnd  map[string]Summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// results turns the session's runs into results, with every metric the
// spec names.
func results(spec *Spec, seed uint64, procs int, runs []*workloadRun) *Results {
	res := &Results{Seed: seed, GOMAXPROCS: procs}
	for _, r := range runs {
		wr := WorkloadResult{Name: r.w.name, Attempted: r.attempted,
			Failed: len(r.failures), Failures: r.failures, Outputs: r.outputs(),
			EndToEnd: make(map[string]Summary)}
		samples := r.endToEnd()
		for _, m := range spec.EndToEnd {
			if xs := samples[m.Name]; len(xs) > 0 {
				wr.EndToEnd[m.Name] = summarize(m.Unit, xs)
			}
		}
		if layer := r.perLayer(); layer != nil {
			wr.PerLayer = make(map[string]float64)
			for _, m := range spec.PerLayer {
				wr.PerLayer[m.Name] = layer[m.Name]
			}
		}
		res.Workloads = append(res.Workloads, wr)
	}
	return res
}

// failed sums the failed runs over all workloads.
func (r *Results) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

// writeText prints one line per workload and metric: name, unit, median,
// quartiles and sample count.
func (r *Results) writeText(w io.Writer, spec *Spec) {
	fmt.Fprintf(w, "seed %d, gomaxprocs %d\n", r.Seed, r.GOMAXPROCS)
	line := func(wl, name, unit string, med, q1, q3 float64, n int) {
		fmt.Fprintf(w, "%-15s %-36s %-12s median %-12.6g q1 %-12.6g q3 %-12.6g n %d\n",
			wl, name, unit, med, q1, q3, n)
	}
	for _, wr := range r.Workloads {
		for _, m := range spec.EndToEnd {
			if s, ok := wr.EndToEnd[m.Name]; ok {
				line(wr.Name, m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N)
			}
		}
		frac := float64(wr.Failed) / float64(max(wr.Attempted, 1))
		line(wr.Name, "failed_frac", "ratio", frac, frac, frac, wr.Attempted)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "%-15s FAILED %s\n", wr.Name, f)
		}
		if wr.PerLayer == nil {
			continue
		}
		for _, m := range spec.PerLayer {
			v := wr.PerLayer[m.Name]
			line(wr.Name, m.Name, m.Unit, v, v, v, 1)
		}
	}
}

// contractLine is the one-line JSON summary of a single-workload
// invocation: with traced runs it carries the per-layer metrics, without
// them the end-to-end medians.
func (r *Results) contractLine(spec *Spec, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: make(map[string]value)}
	for _, wr := range r.Workloads {
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		if traced {
			for _, m := range spec.PerLayer {
				if v, ok := wr.PerLayer[m.Name]; ok {
					line.Metrics[m.Name] = value{v, m.Unit}
				}
			}
			continue
		}
		for _, m := range spec.EndToEnd {
			if s, ok := wr.EndToEnd[m.Name]; ok {
				line.Metrics[m.Name] = value{s.Median, m.Unit}
			}
		}
	}
	line.Correct = line.Failed == 0
	return json.Marshal(line)
}
