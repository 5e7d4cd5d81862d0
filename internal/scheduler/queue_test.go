package scheduler

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/trace"
)

// pendingOp is one step of TestPendingQueueOrder's random script.
type pendingOp struct {
	Pop bool
	// Wide draws the priority from the whole int range; otherwise it is
	// folded into -6..6 so levels collide and FIFO order is exercised.
	Wide bool
	P    int
}

func (o pendingOp) priority() int {
	if o.Wide {
		return o.P
	}
	return o.P % 7
}

// TestPendingQueueOrder is the pending queue's ordering property: any
// interleaving of pushes and pops serves tasks in (priority desc, push
// order asc) order, which a reference scan of the queued tasks computes
// directly. Priorities include negative values and the int
// extremes, since a replayed workload may carry any int. It also pins
// QueueDepth's contract: a task killed while queued stays counted until
// the scheduling server pops and drops it.
func TestPendingQueueOrder(t *testing.T) {
	check := func(ops []pendingOp) bool {
		var q pendingQueue
		var ref []*Task
		seqOf := make(map[*Task]int) // push order
		for i, op := range ops {
			if op.Pop && len(ref) > 0 {
				best := 0
				for j, c := range ref {
					b := ref[best]
					if c.Job.Priority > b.Job.Priority ||
						c.Job.Priority == b.Job.Priority && seqOf[c] < seqOf[b] {
						best = j
					}
				}
				want := ref[best]
				ref = append(ref[:best], ref[best+1:]...)
				if got := q.pop(); got != want {
					t.Logf("op %d: popped priority %d seq %d, want priority %d seq %d",
						i, got.Job.Priority, seqOf[got], want.Job.Priority, seqOf[want])
					return false
				}
			} else if !op.Pop {
				tt := benchTask(trace.Resources{CPU: 0.1, Mem: 0.1}, op.priority(), trace.TierMid)
				seqOf[tt] = len(seqOf)
				q.push(tt)
				ref = append(ref, tt)
			}
			if q.Len() != len(ref) {
				t.Logf("op %d: Len %d, want %d", i, q.Len(), len(ref))
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	extremes := []pendingOp{
		{Wide: true, P: math.MinInt}, {Wide: true, P: math.MaxInt}, {P: -3},
		{Wide: true, P: math.MaxInt}, {P: 0}, {Wide: true, P: math.MinInt},
		{Pop: true}, {Pop: true}, {P: -3}, {Pop: true}, {Pop: true},
		{Pop: true}, {Pop: true}, {Pop: true}, {Pop: true},
	}
	if !check(extremes) {
		t.Fatal("extreme priorities served out of order")
	}

	rig := newRig(t, fastConfig(), 2, trace.Resources{CPU: 1, Mem: 1})
	j := mkJob(1, 100, trace.TierMid, 3, trace.Resources{CPU: 0.1, Mem: 0.1}, sim.Hour)
	rig.sched.Submit(j)
	rig.sched.KillJob(j, trace.EventKill)
	if got := rig.sched.QueueDepth(); got != 3 {
		t.Fatalf("QueueDepth after killing 3 queued tasks = %d, want 3", got)
	}
	rig.k.RunUntil(sim.Minute)
	if got := rig.sched.QueueDepth(); got != 0 {
		t.Fatalf("QueueDepth after serving = %d, want 0", got)
	}
	if got := rig.sched.Stats().TasksPlaced; got != 0 {
		t.Fatalf("%d withdrawn tasks placed", got)
	}
}

// fillPending queues depth tasks spread over a few priorities.
func fillPending(depth int) *pendingQueue {
	q := &pendingQueue{}
	prios := []int{360, 200, 110, 25, 0}
	for i := 0; i < depth; i++ {
		q.push(benchTask(trace.Resources{CPU: 0.1, Mem: 0.1}, prios[i%len(prios)], trace.TierMid))
	}
	return q
}

// TestPendingQueueSteadyStateZeroAllocs guards the pending queue like the
// placement fast path: once the levels are warm, a push/pop cycle at
// 1,024 queued tasks must not allocate. Each cycle requeues the popped
// task at the tail of its level, the scheduler's fail-and-retry pattern.
func TestPendingQueueSteadyStateZeroAllocs(t *testing.T) {
	q := fillPending(1024)
	for i := 0; i < 4096; i++ {
		q.push(q.pop())
	}
	if allocs := testing.AllocsPerRun(1000, func() { q.push(q.pop()) }); allocs != 0 {
		t.Fatalf("pending queue push/pop allocates %.1f times per cycle", allocs)
	}
	if q.Len() != 1024 {
		t.Fatalf("Len = %d after cycling, want 1024", q.Len())
	}
}

// BenchmarkPendingQueue measures one push/pop cycle at the default-scale
// suite's median (1,078) and p99 (6,672) sampled queue depths.
func BenchmarkPendingQueue(b *testing.B) {
	for _, depth := range []int{1078, 6672} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			q := fillPending(depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.push(q.pop())
			}
		})
	}
}
