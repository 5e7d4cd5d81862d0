package scheduler

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestReclaimWaitsForQueuedEntries: a job killed while its tasks sit in
// the pending queue keeps its task array, however many Reclaims pass,
// until the queue has popped the withdrawn entries, which still name
// those tasks. A batch job of the same size submitted meanwhile gets a
// new array: had it taken the killed job's, the withdrawn entries would
// serve its tasks while the job waits in the batch queue, and they would
// be served again once it is admitted. After the queue drains the array
// goes to the next job of that size, and every task of both jobs is
// placed exactly once.
func TestReclaimWaitsForQueuedEntries(t *testing.T) {
	cfg := fastConfig()
	cfg.ServiceTime = constService(1)
	cfg.Batch = true
	rig := newRig(t, cfg, 2, trace.Resources{CPU: 1, Mem: 1})
	s := rig.sched
	req := trace.Resources{CPU: 0.05, Mem: 0.05}
	batchJob := func(id trace.CollectionID) *Job {
		j := mkJob(id, 110, trace.TierBestEffortBatch, 4, req, sim.Hour)
		j.Scheduler = trace.SchedulerBatch
		return j
	}

	killed := mkJob(1, 200, trace.TierProduction, 4, req, sim.Hour)
	s.Submit(killed)
	array := &killed.Tasks[0]
	s.KillJob(killed, trace.EventKill)
	if killed.queued != 4 {
		t.Fatalf("killed job has %d queued entries, want 4", killed.queued)
	}
	for range 3 {
		s.Reclaim()
	}
	if killed.Tasks == nil {
		t.Fatal("a job's task array was reclaimed while the pending queue named its tasks")
	}
	waiting := batchJob(2)
	s.Submit(waiting)
	if &waiting.Tasks[0] == array {
		t.Fatal("a new job took the task array the pending queue still names")
	}

	// The server pops the withdrawn entries a second after Submit; the
	// batch job is admitted at the first check, 20 s in.
	rig.k.RunUntil(sim.Minute)
	if killed.queued != 0 || s.pending.Len() != 0 {
		t.Fatalf("%d withdrawn entries and %d entries queued after a minute", killed.queued, s.pending.Len())
	}
	s.Reclaim()
	s.Reclaim()
	if killed.Tasks != nil {
		t.Fatal("the killed job's task array was not reclaimed once its entries were popped")
	}
	reuser := batchJob(3)
	s.Submit(reuser)
	if &reuser.Tasks[0] != array {
		t.Fatal("the next job of the same size did not reuse the reclaimed task array")
	}
	rig.k.RunUntil(2 * sim.Minute)

	for _, id := range []trace.CollectionID{2, 3} {
		placed := make(map[int32]int)
		for ev := range rig.tr.InstanceEvents.All() {
			if ev.Key.Collection == id && ev.Type == trace.EventSchedule {
				placed[ev.Key.Index]++
			}
		}
		for i := range int32(4) {
			if placed[i] != 1 {
				t.Errorf("job %d task %d placed %d times, want once", id, i, placed[i])
			}
		}
	}
}
