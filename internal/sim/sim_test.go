package sim

import (
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("clock %v", k.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(30, Func(func(Time) { order = append(order, 3) }))
	k.At(10, Func(func(Time) { order = append(order, 1) }))
	k.At(20, Func(func(Time) { order = append(order, 2) }))
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
	if k.Now() != 30 {
		t.Fatalf("final clock %v", k.Now())
	}
	if k.Fired() != 3 {
		t.Fatalf("fired %d", k.Fired())
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, Func(func(Time) { order = append(order, i) }))
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(100, Func(func(Time) {}))
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for past event")
		}
	}()
	k.At(50, Func(func(Time) {}))
}

func TestAfterClampsNegativeDelay(t *testing.T) {
	k := NewKernel()
	fired := false
	k.After(-5, Func(func(now Time) {
		if now != 0 {
			t.Fatalf("fired at %v", now)
		}
		fired = true
	}))
	k.Run()
	if !fired {
		t.Fatal("never fired")
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.At(10, Func(func(Time) { fired = true }))
	if !k.Scheduled(e) {
		t.Fatal("event not scheduled")
	}
	k.Cancel(e)
	k.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if k.Scheduled(e) {
		t.Fatal("event still scheduled after cancel")
	}
	// Double-cancel and zero-ref cancel are no-ops.
	k.Cancel(e)
	k.Cancel(EventRef{})
}

func TestCancelDuringRun(t *testing.T) {
	k := NewKernel()
	fired := false
	var e2 EventRef
	k.At(1, Func(func(Time) { k.Cancel(e2) }))
	e2 = k.At(2, Func(func(Time) { fired = true }))
	k.Run()
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
}

func TestEventPoolReuse(t *testing.T) {
	k := NewKernel()
	// Sequential schedule/fire cycles must recycle the same slot instead
	// of growing the slab.
	for i := 0; i < 1000; i++ {
		k.After(1, Func(func(Time) {}))
		k.Step()
	}
	if k.PoolSize() > 2 {
		t.Fatalf("pool grew to %d slots for sequential events", k.PoolSize())
	}
}

func TestStaleRefCannotCancelRecycledSlot(t *testing.T) {
	k := NewKernel()
	stale := k.At(1, Func(func(Time) {}))
	k.Step() // fires and recycles the slot
	if k.Scheduled(stale) {
		t.Fatal("fired event still scheduled")
	}
	// The next event reuses the slot; the stale ref must not touch it.
	fired := false
	fresh := k.At(2, Func(func(Time) { fired = true }))
	k.Cancel(stale)
	if !k.Scheduled(fresh) {
		t.Fatal("stale cancel removed the slot's new occupant")
	}
	k.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

func TestSelfCancelInCallbackIsNoop(t *testing.T) {
	k := NewKernel()
	var self EventRef
	self = k.At(5, Func(func(Time) { k.Cancel(self) }))
	followUp := false
	k.At(6, Func(func(Time) { followUp = true }))
	k.Run()
	if !followUp {
		t.Fatal("self-cancel disturbed the queue")
	}
}

func TestZeroRef(t *testing.T) {
	var r EventRef
	if !r.IsZero() {
		t.Fatal("zero value not IsZero")
	}
	k := NewKernel()
	if k.Scheduled(r) {
		t.Fatal("zero ref scheduled")
	}
	if e := k.At(1, Func(func(Time) {})); e.IsZero() {
		t.Fatal("live ref reports IsZero")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, d := range []Time{5, 15, 25} {
		d := d
		k.At(d, Func(func(now Time) { fired = append(fired, now) }))
	}
	k.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %v", fired)
	}
	if k.Now() != 20 {
		t.Fatalf("clock %v, want 20", k.Now())
	}
	if pending(k) != 1 {
		t.Fatalf("pending %d", pending(k))
	}
	k.RunUntil(100)
	if len(fired) != 3 || k.Now() != 100 {
		t.Fatalf("fired %v, now %v", fired, k.Now())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	k := NewKernel()
	var hits int
	var chain func(now Time)
	chain = func(now Time) {
		hits++
		if hits < 5 {
			k.After(10, Func(chain))
		}
	}
	k.At(0, Func(chain))
	k.Run()
	if hits != 5 {
		t.Fatalf("chain hits %d", hits)
	}
	if k.Now() != 40 {
		t.Fatalf("clock %v", k.Now())
	}
}

func TestEvery(t *testing.T) {
	k := NewKernel()
	var ticks []Time
	k.Every(10, 10, 55, func(now Time) { ticks = append(ticks, now) })
	k.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(ticks) != len(want) {
		t.Fatalf("ticks %v", ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks %v", ticks)
		}
	}
}

func TestEveryStop(t *testing.T) {
	k := NewKernel()
	count := 0
	var stop func()
	stop = k.Every(0, 10, 0, func(now Time) {
		count++
		if count == 3 {
			stop()
		}
	})
	k.RunUntil(1000)
	if count != 3 {
		t.Fatalf("count %d", count)
	}
}

func TestEveryPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewKernel().Every(0, 0, 0, func(Time) {})
}

func TestTimeConversions(t *testing.T) {
	if (2 * Hour).Hours() != 2 {
		t.Fatal("Hours")
	}
	if (1500 * Millisecond).Seconds() != 1.5 {
		t.Fatal("Seconds")
	}
	if got := (Day + 2*Hour + 3*Minute + 4*Second + 5*Millisecond).String(); got != "1.02:03:04.005" {
		t.Fatalf("String() = %q", got)
	}
	if got := Time(-Second).String(); got != "-0.00:00:01.000" {
		t.Fatalf("negative String() = %q", got)
	}
}

// Property: any batch of events fires in non-decreasing time order.
func TestOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		var fired []Time
		for _, d := range delays {
			k.At(Time(d), Func(func(now Time) { fired = append(fired, now) }))
		}
		k.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved At, Cancel and Step fire exactly the uncanceled
// events, in (due, scheduling order), and every queued slot's pos index
// matches its place in the heap.
func TestCancelMidHeapProperty(t *testing.T) {
	type op struct {
		Delay  uint8
		Cancel uint8 // when odd, cancel an earlier ref (maybe already fired)
		Step   bool
	}
	f := func(ops []op) bool {
		k := NewKernel()
		type ev struct {
			due Time
			n   int
		}
		var refs []EventRef
		var fired []ev
		canceled := 0
		for n, o := range ops {
			e := ev{due: k.Now() + Time(o.Delay), n: n}
			refs = append(refs, k.At(e.due, Func(func(now Time) { fired = append(fired, e) })))
			if o.Cancel%2 == 1 {
				r := refs[int(o.Cancel/2)%len(refs)]
				if k.Scheduled(r) {
					canceled++
				}
				k.Cancel(r)
			}
			if o.Step {
				k.Step()
			}
			for i, id := range k.order {
				if k.slots[id].pos != int32(i) {
					return false
				}
			}
		}
		k.Run()
		// Everything scheduled and not canceled fired, in order.
		if len(fired) != len(ops)-canceled {
			return false
		}
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if a.due > b.due || (a.due == b.due && a.n > b.n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// queuedEvents keeps BenchmarkKernelThroughput and the zero-alloc guard
// above 256 slots, where boxing a slot id into an interface would allocate.
const queuedEvents = 1024

// steadyKernel returns a kernel holding queuedEvents self-rescheduling
// events with one pre-bound callback.
func steadyKernel() *Kernel {
	k := NewKernel()
	var reschedule func(now Time)
	reschedule = func(now Time) { k.After(queuedEvents, Func(reschedule)) }
	for i := 0; i < queuedEvents; i++ {
		k.At(Time(i), Func(reschedule))
	}
	return k
}

// TestKernelStepZeroAllocs pins the package doc's promise that the kernel
// does not allocate per event: with the slab warm and the callback bound
// once, firing an event and scheduling its successor allocates nothing.
func TestKernelStepZeroAllocs(t *testing.T) {
	k := steadyKernel()
	for i := 0; i < queuedEvents; i++ {
		k.Step()
	}
	if avg := testing.AllocsPerRun(10*queuedEvents, func() { k.Step() }); avg != 0 {
		t.Fatalf("Step with %d events queued: %.2f allocs/op, want 0", pending(k), avg)
	}
	if pending(k) != queuedEvents || k.PoolSize() != queuedEvents {
		t.Fatalf("pending %d, pool %d: want %d queued events throughout", pending(k), k.PoolSize(), queuedEvents)
	}
}

func BenchmarkKernelThroughput(b *testing.B) {
	k := steadyKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// pending returns the number of queued events.
func pending(k *Kernel) int { return len(k.order) }
