package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
)

// specFile is the benchmark's definition, at the repository root: its
// workloads, and its metrics with their units, directions and bounds.
const specFile = "BENCHMARK.json"

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	name := flag.String("workload", "", "run only this workload; without -compare, end with a one-line JSON summary (default: every workload in the spec)")
	seed := flag.Uint64("seed", 1, "root seed of every workload: 1 for development, 2 as the holdout")
	seconds := flag.Float64("seconds", 0, "make timed runs of each workload for about this many seconds: at least 2, and under -compare at least 10 pairs; 0 means BENCHMARK.json's run_seconds")
	traced := flag.Int("trace", 1, "1 adds each workload's traced, stage and base runs, for the per-layer metrics, and with -workload makes only those; 0 leaves them out")
	out := flag.String("o", "", "also write the results as JSON to this file")
	parentDir := flag.String("compare", "", "compare with the parent checkout in this directory: build this benchmark against its program, alternate runs of the two builds and print a verdict per workload and metric")
	childMode := flag.String("child", "", "run as a child process in this mode (used by the benchmark itself)")
	dir := flag.String("dir", "", "a child's run directory (used by the benchmark itself)")
	flag.Parse()

	if *childMode != "" {
		if err := childMain(*childMode, *name, *seed, *dir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	spec, err := loadSpec(specFile)
	if err != nil {
		log.Fatal(err)
	}
	if *traced != 0 && *traced != 1 {
		log.Fatalf("-trace is %d, want 0 or 1", *traced)
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}

	var ws []*workload
	for _, w := range spec.Workloads {
		if *name == "" || w.Name == *name {
			wl, err := lookupWorkload(w.Name)
			if err != nil {
				log.Fatal(err)
			}
			ws = append(ws, wl)
		}
	}
	if len(ws) == 0 {
		log.Fatalf("workload %q is not in %s", *name, specFile)
	}
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	exes := []string{self}
	if *parentDir != "" {
		parent, err := buildParent(*parentDir)
		if err != nil {
			log.Fatal(err)
		}
		exes = []string{parent, self}
	}
	// One warm-up run per workload in a full invocation; a single-workload
	// invocation relies on the set-up probes to load the binary instead,
	// which keeps its length close to -seconds.
	warmup := 0
	if *name == "" {
		warmup = 1
	}
	// A single-workload invocation with -trace 1 reports only the per-layer
	// metrics, so it makes no timed runs.
	timed := *name == "" || *traced == 0 || *parentDir != ""
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	s, err := newSession(*seed, *seconds, warmup, timed, *traced == 1, procs, exes)
	if err != nil {
		log.Fatal(err)
	}
	var sides []*Results
	for _, runs := range s.run(ws) {
		sides = append(sides, results(spec, *seed, procs, runs))
	}

	if *parentDir != "" {
		anyWorse := compare(os.Stdout, spec, sides[0], sides[1])
		writeJSON(*out, Comparison{Parent: sides[0], Change: sides[1]})
		if n := sides[0].failed() + sides[1].failed(); n > 0 {
			log.Fatalf("%d failed runs", n)
		}
		if anyWorse {
			os.Exit(1)
		}
		return
	}
	res := sides[0]
	res.writeText(os.Stdout, spec)
	writeJSON(*out, res)
	if *name != "" {
		line, err := res.contractLine(spec, *traced == 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(line))
	}
	if n := res.failed(); n > 0 {
		log.Fatalf("%d failed runs", n)
	}
}

// writeJSON writes v as indented JSON to path, if path is set.
func writeJSON(path string, v any) {
	if path == "" {
		return
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
}
