// Package cliflags registers and validates the command-line flags the
// three CLIs (borgexperiments, borgsweep, borgfleet) share: -seed,
// -parallel, -progress, -policy, -arrival, -cpuprofile, -memprofile,
// and the observability set (-http, -metrics, -timeline). Before this
// package each binary re-declared the set by hand, and the copies
// drifted in help text and validation; now every CLI registers the
// shared flags through one Common value, validates name-registered
// knobs the same way, and converts them to core.RunKnobs with one call.
// StartObservability owns the shared observability lifecycle: the run
// registry, the -progress reporter that prints from it, the optional
// live HTTP server, the -cpuprofile/-memprofile pprof profiles, the
// snapshot/timeline file exports at Close, and the one-format run
// summary (elapsed wall time + peak HeapAlloc) every CLI used to
// hand-roll.
package cliflags

import (
	"flag"
	"strings"

	"repro/internal/core"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// Common holds the parsed shared flags. Per-CLI flags (scales, fleet
// sizes, output paths) stay in each main.
type Common struct {
	Seed       *uint64
	Parallel   *int
	Progress   *bool
	Policy     *string
	Arrival    *string
	CPUProfile *string
	MemProfile *string
	// Observability flags: -http serves the live endpoint while the run
	// executes; -metrics and -timeline export the final snapshot and the
	// Chrome trace_event run timeline. See StartObservability.
	HTTP        *string
	MetricsOut  *string
	TimelineOut *string
}

// Register installs the shared flag set on fs with identical names,
// defaults and help text across the CLIs. seedUsage words the -seed
// flag for the binary ("root random seed", "sweep root seed", …).
func Register(fs *flag.FlagSet, seedUsage string) *Common {
	return &Common{
		Seed:     fs.Uint64("seed", 1, seedUsage),
		Parallel: fs.Int("parallel", 0, "cells simulated concurrently (0 = all CPUs); does not change the output"),
		Progress: fs.Bool("progress", false, "print live progress (done / in flight / ETA) to stderr"),
		Policy: fs.String("policy", "", "override every cell's placement policy ("+
			strings.Join(scheduler.PolicyNames(), ", ")+"); empty keeps profile defaults"),
		Arrival: fs.String("arrival", "", "override every cell's arrival process ("+
			strings.Join(workload.ArrivalNames(), ", ")+
			"), e.g. gamma:cv=2.5 or cohorts:k=40,skew=1.5; empty keeps profile defaults"),
		CPUProfile: fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file"),
		MemProfile: fs.String("memprofile", "", "write a pprof heap profile at exit to this file"),
		HTTP: fs.String("http", "", "serve live observability on this address while the run executes "+
			"(e.g. :6060): / progress+ETA, /metrics Prometheus, /metrics.json, /metrics.csv, /timeline, /debug/pprof/, /debug/vars"),
		MetricsOut: fs.String("metrics", "", "write the final metrics snapshot to this file "+
			"(.json and .csv by extension; anything else is Prometheus text)"),
		TimelineOut: fs.String("timeline", "", "write the run's wall-clock timeline to this file as Chrome trace_event JSON "+
			"(load in chrome://tracing or Perfetto)"),
	}
}

// Validate checks the name-registered knobs after fs.Parse: an unknown
// policy or arrival spec returns the registry's error (which lists the
// valid set) instead of panicking mid-run.
func (c *Common) Validate() error {
	if *c.Policy != "" {
		if _, err := scheduler.ParsePolicy(*c.Policy); err != nil {
			return err
		}
	}
	if *c.Arrival != "" {
		if _, err := workload.ParseArrival(*c.Arrival); err != nil {
			return err
		}
	}
	return nil
}

// Knobs converts the parsed flags to the core.RunKnobs every runner
// config embeds.
func (c *Common) Knobs() core.RunKnobs {
	return core.RunKnobs{Policy: *c.Policy, Arrival: *c.Arrival}
}
