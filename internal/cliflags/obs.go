package cliflags

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
)

// Obs is one CLI run's observability bundle: the run-level metrics
// registry (always created — the consolidated run summary records into
// it), the wall-clock timeline (created when anything will render it),
// the -progress reporter, the optional live HTTP server and the optional
// pprof profiles. Obtain one
// from Common.StartObservability, thread Reg/Timeline into the run via
// Knobs, wrap the run in MeasureRun, and defer Close.
type Obs struct {
	// Reg is the run-level registry every cell's instruments roll up
	// into (see engine.RunInstruments).
	Reg *metrics.Registry
	// Timeline collects wall-clock spans; nil unless -http or -timeline
	// asked for one.
	Timeline *metrics.Timeline

	srv         *metrics.Server
	metricsOut  string
	timelineOut string
	logf        func(format string, args ...any)

	// cpuProfile is the open -cpuprofile file while the CPU profile
	// runs; memProfile is the -memprofile path Close writes to.
	cpuProfile *os.File
	memProfile string

	// The -progress reporter: a goroutine prints label's
	// metrics.ProgressLine to progressOut every second while cells are
	// outstanding, and Close prints the final line. progressStop is nil
	// without -progress.
	label        string
	progressOut  io.Writer
	start        time.Time
	progressStop chan struct{}
	progressDone chan struct{}
}

// StartObservability builds the run's observability bundle from the
// parsed flags: it always creates the run registry, starts the
// -cpuprofile CPU profile, creates a timeline iff -http or -timeline
// will render it, starts the live HTTP server when -http is set
// (logging the listen address through logf), and with -progress prints
// progress lines to stderr. label names the run in those lines
// ("suite", "sweep", "fleet").
func (c *Common) StartObservability(label string, logf func(format string, args ...any)) (*Obs, error) {
	return c.startObservability(label, os.Stderr, logf)
}

// startObservability is StartObservability with the -progress output
// writer supplied.
func (c *Common) startObservability(label string, progressOut io.Writer, logf func(format string, args ...any)) (*Obs, error) {
	o := &Obs{
		Reg:         metrics.NewRegistry(),
		metricsOut:  *c.MetricsOut,
		timelineOut: *c.TimelineOut,
		logf:        logf,
		label:       label,
		progressOut: progressOut,
		start:       time.Now(),
	}
	if *c.CPUProfile != "" {
		f, err := os.Create(*c.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		o.cpuProfile = f
	}
	if *c.HTTP != "" || o.timelineOut != "" {
		o.Timeline = metrics.NewTimeline()
	}
	if *c.HTTP != "" {
		srv, err := metrics.StartServer(*c.HTTP, o.Reg, o.Timeline)
		if err != nil {
			o.stopProfiles()
			return nil, fmt.Errorf("-http: %w", err)
		}
		o.srv = srv
		logf("live observability on http://%s/", srv.Addr())
	}
	o.memProfile = *c.MemProfile
	if *c.Progress {
		o.progressStop, o.progressDone = make(chan struct{}), make(chan struct{})
		go o.reportProgress()
	}
	return o, nil
}

// reportProgress prints the progress line once a second until Close
// stops it. It skips the finished line, which Close prints exactly once.
func (o *Obs) reportProgress() {
	defer close(o.progressDone)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-o.progressStop:
			return
		case <-tick.C:
			if line, finished := metrics.ProgressLine(o.Reg, o.label, time.Since(o.start)); line != "" && !finished {
				fmt.Fprintln(o.progressOut, line)
			}
		}
	}
}

// Knobs returns k with the run registry and timeline attached, so CLIs
// write `cfg.RunKnobs = obs.Knobs(knobs)` with the knobs Common.Knobs
// parsed.
func (o *Obs) Knobs(k core.RunKnobs) core.RunKnobs {
	k.Metrics = o.Reg
	k.Timeline = o.Timeline
	return k
}

// MeasureRun times fn under the shared peak-HeapAlloc sampler and
// records the outcome into the run registry — the single implementation
// behind every CLI's "... in 1.6s (peak heap 6 MB)" line.
func (o *Obs) MeasureRun(fn func()) metrics.RunStats {
	return metrics.MeasureRun(o.Reg, fn)
}

// Close bounds the observability lifecycle to the run: it stops the
// -progress reporter and prints its final line, gracefully shuts the
// live server down (draining in-flight scrapes), writes the -metrics
// and -timeline files from final state, and ends the pprof profiles.
// Export errors are returned after the server is down; callers
// typically log.Fatal them (log.Fatal skips deferred calls, so a failed
// run writes no profile).
func (o *Obs) Close() error {
	if o.progressStop != nil {
		close(o.progressStop)
		<-o.progressDone
		o.progressStop = nil
		if line, _ := metrics.ProgressLine(o.Reg, o.label, time.Since(o.start)); line != "" {
			fmt.Fprintln(o.progressOut, line)
		}
	}
	var firstErr error
	if o.srv != nil {
		if err := o.srv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if o.metricsOut != "" {
		if err := report.WriteFile(o.metricsOut, func(w io.Writer) error {
			return o.Reg.Snapshot().WriteSnapshotFile(w, o.metricsOut)
		}); err == nil {
			o.logf("wrote metrics snapshot to %s", o.metricsOut)
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if o.timelineOut != "" {
		if err := report.WriteFile(o.timelineOut, o.Timeline.WriteChromeTrace); err == nil {
			o.logf("wrote run timeline to %s", o.timelineOut)
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if err := o.stopProfiles(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// stopProfiles ends the -cpuprofile profile and writes the -memprofile
// heap profile after a GC, so it shows the final live set. It returns
// the first error.
func (o *Obs) stopProfiles() error {
	var firstErr error
	if o.cpuProfile != nil {
		pprof.StopCPUProfile()
		firstErr = o.cpuProfile.Close()
		o.cpuProfile = nil
	}
	if o.memProfile != "" {
		runtime.GC()
		if err := report.WriteFile(o.memProfile, pprof.WriteHeapProfile); err != nil && firstErr == nil {
			firstErr = err
		}
		o.memProfile = ""
	}
	return firstErr
}
