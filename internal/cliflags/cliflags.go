// Package cliflags registers and parses the command-line flags the
// three CLIs (borgexperiments, borgsweep, borgfleet) share: -seed,
// -parallel, -progress, -policy, -arrival, -cpuprofile, -memprofile,
// and the observability set (-http, -metrics, -timeline). Every CLI
// registers the shared flags through one Common value and makes one
// Common.Knobs call, which parses -policy and -arrival once, where they
// enter the program, into the typed core.RunKnobs the runners apply to
// each cell profile; a bad value comes back as an error before any cell
// runs, and nothing downstream re-reads the flag text.
// StartObservability owns the shared observability lifecycle: the run
// registry, the -progress reporter that prints from it, the optional
// live HTTP server, the -cpuprofile/-memprofile pprof profiles, the
// snapshot/timeline file exports at Close, and the one-format run
// summary (elapsed wall time + peak HeapAlloc) every CLI used to
// hand-roll. SetGCTarget raises the garbage collector's target for the
// CLIs whose wall time it was measured to shorten.
package cliflags

import (
	"flag"
	"os"
	"runtime"
	"runtime/debug"
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

// gcPercent is the garbage collector's target SetGCTarget sets, in GOGC
// units. A multi-cell run allocates fast against a small live heap
// (streaming reducers keep only the cells in flight), so the default of
// 100 collects every few megabytes. On a 2-core x86-64 VM, ten
// alternating pairs each, 100 → 400: `borgsweep -scale small -seeds 3
// -variants 'baseline;arrival:2;policy:best-fit'` (81 cells) 7.24 →
// 6.73 s median wall time, faster in 10/10 pairs, peak heap 45 → 104 MB;
// default borgfleet 1.96 → 1.75 s, 10/10, 7.5 → 18.5 MB. Default
// borgexperiments (2.96 → 2.77 s, 9/10, but inside the spread; 65 → 94
// MB) and the 27-cell sweep (6/10) did not clear the noise, so they keep
// the default.
const gcPercent = 400

// SetGCTarget sets the collector's target to gcPercent, unless GOGC or
// GOMEMLIMIT is set in the environment: the runtime has applied that
// choice already, and it wins. It is process-wide, so a CLI calls it
// once from main.
func SetGCTarget() {
	if os.Getenv("GOGC") != "" || os.Getenv("GOMEMLIMIT") != "" {
		return
	}
	debug.SetGCPercent(gcPercent)
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

// Workers returns how many cells run at once: -parallel, or GOMAXPROCS
// when -parallel is 0 or less.
func (c *Common) Workers() int {
	if *c.Parallel > 0 {
		return *c.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// Knobs parses -policy and -arrival, the one place either flag's text is
// read, into the core.RunKnobs every runner config embeds. An empty flag
// leaves its knob nil, keeping each profile's own choice; an unknown
// policy or a malformed arrival spec returns the registry's error, which
// lists the valid set.
func (c *Common) Knobs() (core.RunKnobs, error) {
	var k core.RunKnobs
	if *c.Policy != "" {
		p, err := scheduler.ParsePolicy(*c.Policy)
		if err != nil {
			return core.RunKnobs{}, err
		}
		k.Policy = &p
	}
	if *c.Arrival != "" {
		a, err := workload.ParseArrival(*c.Arrival)
		if err != nil {
			return core.RunKnobs{}, err
		}
		k.Arrival = &a
	}
	return k, nil
}
