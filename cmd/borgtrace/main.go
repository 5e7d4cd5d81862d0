// Command borgtrace simulates one Borg cell and writes its trace to disk
// as CSV tables (collection_events, instance_events, instance_usage,
// machine_events) plus meta.json — the reproduction's analogue of
// downloading one cell of the published trace.
//
// Large -machines counts are practical because placement cost does not
// grow with cell occupancy: the scheduler's fast path (incremental
// machine aggregates, see the package docs) keeps each placement attempt
// allocation-free and O(1) per candidate. For a given build, the trace for a given (era, cell,
// machines, hours, seed) tuple is byte-stable; traces are not promised
// stable across versions of the simulator.
//
// Rows are written to disk while the simulation runs, through a
// trace.DirSink, and nothing is retained, so memory stays bounded at any
// horizon, month-scale traces included. A trace.Validator checks the §9
// invariants on the same rows as they stream past and logs its verdict.
//
// Usage:
//
//	borgtrace -era 2019 -cell b -machines 300 -hours 24 -seed 7 -out ./trace-b
//	borgtrace -era 2019 -cell b -machines 300 -hours 720 -seed 7 -out ./trace-b
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("borgtrace: ")
	if err := run(os.Args[1:], os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run parses args, simulates the cell, writes its trace directory and
// logs progress and the validator's verdict to logw.
func run(args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("borgtrace", flag.ExitOnError)
	era := fs.String("era", "2019", "trace era: 2011 or 2019")
	cell := fs.String("cell", "a", "2019 cell name (a-h); ignored for 2011")
	machines := fs.Int("machines", 200, "machines in the simulated cell")
	hours := fs.Float64("hours", 24, "simulated duration in hours")
	seed := fs.Uint64("seed", 1, "root random seed")
	out := fs.String("out", "trace-out", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *machines < 1 {
		return fmt.Errorf("-machines %d: want at least 1 machine", *machines)
	}
	horizon := sim.FromHours(*hours)
	if !(*hours > 0) || horizon <= 0 {
		return fmt.Errorf("-hours %g: want a positive duration", *hours)
	}
	lg := log.New(logw, "borgtrace: ", 0)

	var profile *workload.CellProfile
	switch *era {
	case "2011":
		profile = workload.Profile2011(*machines)
	case "2019":
		if !slices.Contains(workload.Cells2019(), *cell) {
			return fmt.Errorf("-cell %q: want one of %s", *cell, strings.Join(workload.Cells2019(), ", "))
		}
		profile = workload.Profile2019(*cell, *machines)
	default:
		return fmt.Errorf("unknown era %q", *era)
	}
	opts := core.Options{Horizon: horizon, Seed: *seed}
	ds, err := trace.NewDirSink(*out, core.TraceMeta(profile, opts))
	if err != nil {
		return err
	}
	v := trace.NewValidator()
	opts.ExtraSinks = []trace.Sink{ds, v}
	res := core.Run(profile, opts)
	if err := ds.Close(); err != nil {
		return err
	}
	lg.Printf("simulated cell %s: collEvents=%d instEvents=%d usage=%d machineEvents=%d",
		profile.Name, res.Rows.Collections, res.Rows.Instances, res.Rows.Usage, res.Rows.Machines)
	lg.Printf("scheduler: %+v", res.Sched)
	if violations := v.Finish(); len(violations) > 0 {
		lg.Printf("WARNING: %d invariant violations (first: %v)", len(violations), violations[0])
	} else {
		lg.Printf("validator: all invariants hold")
	}
	lg.Printf("wrote trace to %s", *out)
	return nil
}
