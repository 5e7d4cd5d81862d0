// Package autopilot reproduces Borg's vertical autoscaling system (§8,
// and the companion Autopilot paper): a per-task moving-window peak
// recommender that continually adjusts resource limits to minimize slack —
// the gap between requested and used resources.
//
// Three strategies are modeled, matching the trace's annotations:
// ScalingNone (limits never touched), ScalingFull (limit tracks the
// windowed peak with a safety margin), and ScalingConstrained (as Full,
// but the limit may not drop below a floor fraction of the original
// user request).
package autopilot

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config tunes the recommender.
type Config struct {
	// WindowSamples is the number of recent 5-minute peak samples the
	// recommender considers (12 ≈ one hour of history).
	WindowSamples int
	// Percentile selects the windowed peak percentile the limit tracks;
	// Autopilot's recommenders are percentile-based rather than
	// max-based, so transient spikes do not ratchet limits up.
	Percentile float64
	// Margin is the safety factor applied to the windowed percentile.
	Margin float64
	// ConstrainedFloor is the minimum fraction of the original request a
	// constrained task's limit may shrink to.
	ConstrainedFloor float64
	// UpdateThreshold is the relative limit change required before an
	// update is issued (hysteresis; avoids trace spam).
	UpdateThreshold float64
	// MinCPU and MinMem floor the recommended limits.
	MinCPU, MinMem float64
	// Overcommit is the cell's policy, used to cap limit growth at the
	// machine's allocation ceiling.
	Overcommit cluster.OvercommitPolicy
}

// DefaultConfig mirrors the reproduction's 2019 profile.
func DefaultConfig(oc cluster.OvercommitPolicy) Config {
	return Config{
		WindowSamples:    12,
		Percentile:       0.85,
		Margin:           1.03,
		ConstrainedFloor: 0.75,
		UpdateThreshold:  0.05,
		MinCPU:           0.0005,
		MinMem:           0.0005,
		Overcommit:       oc,
	}
}

// window holds a task's recent peak-usage samples and its original request.
type window struct {
	peaks    []trace.Resources
	next     int
	filled   bool
	original trace.Resources
}

func (w *window) add(u trace.Resources) {
	if w.next == len(w.peaks) {
		w.next = 0
		w.filled = true
	}
	w.peaks[w.next] = u
	w.next++
}

// percentile returns the q-quantile of the windowed peaks, computed per
// resource dimension. buf must hold at least 2×len(w.peaks) values; each
// dimension is copied into its half and sorted there in place.
func (w *window) percentile(q float64, buf []float64) trace.Resources {
	n := w.next
	if w.filled {
		n = len(w.peaks)
	}
	if n == 0 {
		return trace.Resources{}
	}
	cpus, mems := buf[:n], buf[n:2*n]
	for i, p := range w.peaks[:n] {
		cpus[i] = p.CPU
		mems[i] = p.Mem
	}
	sort.Float64s(cpus)
	sort.Float64s(mems)
	return trace.Resources{
		CPU: stats.QuantileSorted(cpus, q),
		Mem: stats.QuantileSorted(mems, q),
	}
}

// Autopilot is the vertical autoscaler for one cell.
type Autopilot struct {
	cfg     Config
	cell    *cluster.Cell
	sink    trace.Sink
	windows map[trace.InstanceKey]*window
	// sortBuf is percentile's sort buffer, 2×WindowSamples long, shared by
	// every window so a steady-state Observe does not allocate.
	sortBuf []float64

	setRequest func(*scheduler.Task, trace.Resources)

	updates int
}

// New constructs an Autopilot bound to a cell and trace sink.
func New(cfg Config, cell *cluster.Cell, sink trace.Sink) *Autopilot {
	if cfg.WindowSamples <= 0 {
		cfg.WindowSamples = 12
	}
	if cfg.Margin <= 0 {
		cfg.Margin = 1.1
	}
	return &Autopilot{
		cfg:     cfg,
		cell:    cell,
		sink:    sink,
		windows: make(map[trace.InstanceKey]*window),
		sortBuf: make([]float64, 2*cfg.WindowSamples),
	}
}

// OnLimitChange registers fn as the writer of task request updates —
// typically the scheduler's accounting-aware setter, so admission sums
// maintained incrementally over task requests stay consistent with
// autoscaling. When unset, the autopilot writes t.Request directly.
func (a *Autopilot) OnLimitChange(fn func(*scheduler.Task, trace.Resources)) {
	a.setRequest = fn
}

// Updates returns how many limit updates have been issued.
func (a *Autopilot) Updates() int { return a.updates }

// Tracked returns how many instances currently have usage windows.
func (a *Autopilot) Tracked() int { return len(a.windows) }

// Observe feeds one 5-minute peak usage sample for a running task and, for
// autoscaled tasks, adjusts the task's limit toward the windowed peak.
// It returns the new limit (unchanged for non-autoscaled tasks).
func (a *Autopilot) Observe(now sim.Time, t *scheduler.Task, peakUsage trace.Resources) trace.Resources {
	if t.Job.Scaling == trace.ScalingNone {
		return t.Request
	}
	w := a.windows[t.Key]
	if w == nil {
		w = &window{peaks: make([]trace.Resources, a.cfg.WindowSamples), original: t.Request}
		a.windows[t.Key] = w
	}
	w.add(peakUsage)

	rec := w.percentile(a.cfg.Percentile, a.sortBuf).Scale(a.cfg.Margin)
	if rec.CPU < a.cfg.MinCPU {
		rec.CPU = a.cfg.MinCPU
	}
	if rec.Mem < a.cfg.MinMem {
		rec.Mem = a.cfg.MinMem
	}
	if t.Job.Scaling == trace.ScalingConstrained {
		floor := w.original.Scale(a.cfg.ConstrainedFloor)
		if rec.CPU < floor.CPU {
			rec.CPU = floor.CPU
		}
		if rec.Mem < floor.Mem {
			rec.Mem = floor.Mem
		}
	}

	cur := t.Request
	if !significant(cur.CPU, rec.CPU, a.cfg.UpdateThreshold) &&
		!significant(cur.Mem, rec.Mem, a.cfg.UpdateThreshold) {
		return cur
	}

	// Cap growth at the machine's remaining allocation headroom. Inner
	// (alloc-hosted) tasks have a zero machine-level limit, so only
	// direct placements need the check.
	if t.Machine != 0 && t.AllocInstance.Collection == 0 {
		m := a.cell.Machine(t.Machine)
		if m != nil {
			ceiling := m.Ceiling(a.cfg.Overcommit)
			head := ceiling.Sub(m.Allocated()).Add(cur)
			if rec.CPU > head.CPU {
				rec.CPU = head.CPU
			}
			if rec.Mem > head.Mem {
				rec.Mem = head.Mem
			}
			if rec.CPU < a.cfg.MinCPU || rec.Mem < a.cfg.MinMem {
				return cur // no headroom at all; keep the current limit
			}
			a.cell.UpdateLimit(t.Machine, t.Key, rec)
		}
	}
	if a.setRequest != nil {
		a.setRequest(t, rec)
	} else {
		t.Request = rec
	}
	a.updates++
	a.sink.InstanceEvent(trace.InstanceEvent{
		Time:          now,
		Key:           t.Key,
		Type:          trace.EventUpdateRunning,
		Machine:       t.Machine,
		Priority:      t.Job.Priority,
		Tier:          t.Job.Tier,
		Request:       rec,
		AllocInstance: t.AllocInstance,
	})
	return rec
}

// Forget drops a task's window when it stops running.
func (a *Autopilot) Forget(key trace.InstanceKey) {
	delete(a.windows, key)
}

// significant reports whether new differs from old by more than threshold
// relative to old.
func significant(old, new, threshold float64) bool {
	if old == 0 {
		return new != 0
	}
	diff := new - old
	if diff < 0 {
		diff = -diff
	}
	return diff/old > threshold
}
