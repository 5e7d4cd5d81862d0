// Package autopilot reproduces Borg's vertical autoscaling system (§8,
// and the companion Autopilot paper): a per-task moving-window peak
// recommender that continually adjusts resource limits to minimize slack —
// the gap between requested and used resources.
//
// Three strategies are modeled, matching the trace's annotations:
// ScalingNone (limits never touched), ScalingFull (limit tracks the
// windowed peak with a safety margin), and ScalingConstrained (as Full,
// but the limit may not drop below a floor fraction of the original
// user request). The recommender's window, percentile, margin, floor
// and hysteresis are constants calibrated once; New takes only the
// cell's overcommit policy.
package autopilot

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The recommender's settings, calibrated once for the reproduction's
// 2019 profile.
const (
	// windowSamples is the number of recent 5-minute peak samples the
	// recommender considers (12 ≈ one hour of history).
	windowSamples = 12
	// percentile selects the windowed peak percentile the limit tracks;
	// Autopilot's recommenders are percentile-based rather than
	// max-based, so transient spikes do not ratchet limits up.
	percentile = 0.85
	// margin is the safety factor applied to the windowed percentile.
	margin = 1.03
	// constrainedFloor is the minimum fraction of the original request a
	// constrained task's limit may shrink to.
	constrainedFloor = 0.75
	// updateThreshold is the relative limit change required before an
	// update is issued (hysteresis; avoids trace spam).
	updateThreshold = 0.05
	// minCPU and minMem floor the recommended limits.
	minCPU, minMem = 0.0005, 0.0005
)

// window holds a task's recent peak-usage samples and its original
// request. peaks is the ring of the last windowSamples peaks in arrival
// order; cpus and mems hold the same samples per dimension in ascending
// order, updated incrementally (the evicted sample out, the new one in),
// so a percentile is a read of a sorted slice and never sorts. Both live
// in the window's own arrays, so a window is one allocation.
type window struct {
	peaks      [windowSamples]trace.Resources
	next       int
	sorted     [2 * windowSamples]float64
	cpus, mems []float64 // views of sorted's halves
	original   trace.Resources
	// seen is the autopilot sweep generation that last observed the task.
	seen uint64
}

func newWindow(original trace.Resources) *window {
	w := &window{original: original}
	w.cpus = w.sorted[:0:windowSamples]
	w.mems = w.sorted[windowSamples:windowSamples]
	return w
}

// reset empties a recycled window for a new task.
func (w *window) reset(original trace.Resources) {
	w.next = 0
	w.cpus, w.mems = w.cpus[:0], w.mems[:0]
	w.original = original
}

func (w *window) add(u trace.Resources) {
	if w.next == len(w.peaks) {
		w.next = 0
	}
	if len(w.cpus) == len(w.peaks) {
		old := w.peaks[w.next]
		w.cpus = removeSorted(w.cpus, old.CPU)
		w.mems = removeSorted(w.mems, old.Mem)
	}
	w.peaks[w.next] = u
	w.next++
	w.cpus = insertSorted(w.cpus, u.CPU)
	w.mems = insertSorted(w.mems, u.Mem)
}

// insertSorted inserts v into ascending xs, which has spare capacity.
func insertSorted(xs []float64, v float64) []float64 {
	i := sort.SearchFloat64s(xs, v)
	xs = xs[:len(xs)+1]
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// removeSorted removes one occurrence of v from ascending xs. Which of
// several equal values goes does not matter: the multiset is the same.
func removeSorted(xs []float64, v float64) []float64 {
	i := sort.SearchFloat64s(xs, v)
	copy(xs[i:], xs[i+1:])
	return xs[:len(xs)-1]
}

// percentile returns the q-quantile of the windowed peaks, computed per
// resource dimension.
func (w *window) percentile(q float64) trace.Resources {
	if len(w.cpus) == 0 {
		return trace.Resources{}
	}
	return trace.Resources{
		CPU: stats.QuantileSorted(w.cpus, q),
		Mem: stats.QuantileSorted(w.mems, q),
	}
}

// Autopilot is the vertical autoscaler for one cell.
type Autopilot struct {
	// overcommit is the cell's policy, used to cap limit growth at the
	// machine's allocation ceiling.
	overcommit cluster.OvercommitPolicy
	cell       *cluster.Cell
	sink       trace.Sink
	// tracked lists the tasks holding a window (in their Autoscale
	// cookie); gen is the current sweep generation.
	tracked []*scheduler.Task
	gen     uint64
	// free recycles the windows of swept tasks, so window turnover does
	// not allocate once the pool covers the peak tracked count.
	free []*window

	setRequest func(*scheduler.Task, trace.Resources)

	updates int
}

// New constructs an Autopilot bound to a cell with overcommit policy oc
// and to a trace sink. setRequest writes each limit update into the task:
// the scheduler's UpdateTaskRequest, which keeps its admission sums and
// its cached scoring class consistent with the new request.
func New(oc cluster.OvercommitPolicy, cell *cluster.Cell, sink trace.Sink,
	setRequest func(*scheduler.Task, trace.Resources)) *Autopilot {
	return &Autopilot{overcommit: oc, cell: cell, sink: sink, setRequest: setRequest}
}

// Updates returns how many limit updates have been issued.
func (a *Autopilot) Updates() int { return a.updates }

// Observe feeds one 5-minute peak usage sample for a running task and, for
// autoscaled tasks, adjusts the task's limit toward the windowed peak.
// It returns the new limit (unchanged for non-autoscaled tasks).
func (a *Autopilot) Observe(now sim.Time, t *scheduler.Task, peakUsage trace.Resources) trace.Resources {
	if t.Job.Scaling == trace.ScalingNone {
		return t.Request
	}
	w, _ := t.Autoscale.(*window)
	if w == nil {
		if n := len(a.free); n > 0 {
			w = a.free[n-1]
			a.free = a.free[:n-1]
			w.reset(t.Request)
		} else {
			w = newWindow(t.Request)
		}
		t.Autoscale = w
		a.tracked = append(a.tracked, t)
	}
	w.seen = a.gen
	w.add(peakUsage)

	rec := w.percentile(percentile).Scale(margin)
	if rec.CPU < minCPU {
		rec.CPU = minCPU
	}
	if rec.Mem < minMem {
		rec.Mem = minMem
	}
	if t.Job.Scaling == trace.ScalingConstrained {
		floor := w.original.Scale(constrainedFloor)
		if rec.CPU < floor.CPU {
			rec.CPU = floor.CPU
		}
		if rec.Mem < floor.Mem {
			rec.Mem = floor.Mem
		}
	}

	cur := t.Request
	if !significant(cur.CPU, rec.CPU, updateThreshold) &&
		!significant(cur.Mem, rec.Mem, updateThreshold) {
		return cur
	}

	// Cap growth at the machine's remaining allocation headroom. Inner
	// (alloc-hosted) tasks have a zero machine-level limit, so only
	// direct placements need the check.
	if t.Machine != 0 && t.AllocInstance.Collection == 0 {
		m := a.cell.Machine(t.Machine)
		if m != nil {
			ceiling := m.Ceiling(a.overcommit)
			head := ceiling.Sub(m.Allocated()).Add(cur)
			if rec.CPU > head.CPU {
				rec.CPU = head.CPU
			}
			if rec.Mem > head.Mem {
				rec.Mem = head.Mem
			}
			if rec.CPU < minCPU || rec.Mem < minMem {
				return cur // no headroom at all; keep the current limit
			}
			a.cell.UpdateLimit(t.Machine, t.Key, rec)
		}
	}
	a.setRequest(t, rec)
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

// Sweep ends a sampling window: it drops the window of every tracked
// task that no Observe call reached since the previous Sweep — tasks that
// stopped running — and starts the next generation. Call it once per
// sampling window, after observing every running task.
func (a *Autopilot) Sweep() {
	kept := a.tracked[:0]
	for _, t := range a.tracked {
		if w := t.Autoscale.(*window); w.seen == a.gen {
			kept = append(kept, t)
		} else {
			t.Autoscale = nil
			a.free = append(a.free, w)
		}
	}
	clear(a.tracked[len(kept):])
	a.tracked = kept
	a.gen++
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
