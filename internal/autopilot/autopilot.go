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
// scheduler whose tasks it resizes.
package autopilot

import (
	"sort"

	"repro/internal/scheduler"
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
	sched *scheduler.Scheduler
	// windows is the window table a task's Autoscale handle indexes;
	// slot 0 stays nil, so handle 0 means none.
	windows []*window
	// tracked lists the tasks holding a handle; gen is the current sweep
	// generation.
	tracked []*scheduler.Task
	gen     uint64
	// free lists the handles Sweep released. Their windows stay in the
	// table and are reset for the next task, so window turnover does not
	// allocate once the table covers the peak tracked count.
	free []int32

	updates int
}

// New constructs an Autopilot for the tasks the scheduler s runs. Limit
// growth is capped at each machine's headroom under the cell's
// overcommit ceiling, read from the scheduler's allocation sums. Each
// limit update is one s.UpdateTaskRequest call, which moves the task's
// machine allocation and the scheduler's admission sums with the new
// request and emits the UPDATE_RUNNING instance event.
func New(s *scheduler.Scheduler) *Autopilot {
	return &Autopilot{sched: s, windows: []*window{nil}}
}

// Updates returns how many limit updates have been issued.
func (a *Autopilot) Updates() int { return a.updates }

// Observe feeds one 5-minute peak usage sample for a running task and, for
// autoscaled tasks, adjusts the task's limit toward the windowed peak.
func (a *Autopilot) Observe(t *scheduler.Task, peakUsage trace.Resources) {
	if t.Job.Scaling == trace.ScalingNone {
		return
	}
	if t.Autoscale == 0 {
		if n := len(a.free); n > 0 {
			t.Autoscale = a.free[n-1]
			a.free = a.free[:n-1]
			a.windows[t.Autoscale].reset(t.Request)
		} else {
			t.Autoscale = int32(len(a.windows))
			a.windows = append(a.windows, newWindow(t.Request))
		}
		a.tracked = append(a.tracked, t)
	}
	w := a.windows[t.Autoscale]
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
		return
	}

	// Cap growth at the machine's remaining allocation headroom. Inner
	// (alloc-hosted) tasks have a zero machine-level limit, so only
	// direct placements need the check.
	if t.Machine != 0 && t.AllocInstance == nil {
		head := a.sched.Headroom(t.Machine).Add(cur)
		if rec.CPU > head.CPU {
			rec.CPU = head.CPU
		}
		if rec.Mem > head.Mem {
			rec.Mem = head.Mem
		}
		if rec.CPU < minCPU || rec.Mem < minMem {
			return // no headroom at all; keep the current limit
		}
	}
	a.sched.UpdateTaskRequest(t, rec)
	a.updates++
}

// Sweep ends a sampling window: it releases the window handle of every
// tracked task that no Observe call reached since the previous Sweep —
// tasks that stopped running — for reuse, and starts the next
// generation. Call it once per sampling window, after observing every
// running task.
func (a *Autopilot) Sweep() {
	kept := a.tracked[:0]
	for _, t := range a.tracked {
		if a.windows[t.Autoscale].seen == a.gen {
			kept = append(kept, t)
		} else {
			a.free = append(a.free, t.Autoscale)
			t.Autoscale = 0
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
