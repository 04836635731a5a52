package engine

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 30 {
		t.Errorf("final time = %v", s.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: position %d got %d", i, v)
		}
	}
}

func TestEventsScheduleEvents(t *testing.T) {
	s := New()
	depth := 0
	var recurse func()
	recurse = func() {
		if depth < 10 {
			depth++
			s.After(7, recurse)
		}
	}
	s.After(0, recurse)
	end := s.Run()
	if depth != 10 {
		t.Errorf("depth = %d", depth)
	}
	if end != 70 {
		t.Errorf("end = %v, want 70", end)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := New()
	s.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling into the past")
			}
		}()
		s.At(50, func() {})
	})
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().After(-1, func() {})
}

// TestFIFOTieBreakAcrossHeapChurn grows and shrinks the heap while a
// population of same-timestamp events is resident: each wave adds a batch
// of t=1000 events (heap growth, sift-ups) and then drains a batch of
// earlier filler events (heap shrink, sift-downs rearranging the array).
// The physical positions of the t=1000 events get shuffled thoroughly; the
// seq tie-break must still run them in exact schedule order.
func TestFIFOTieBreakAcrossHeapChurn(t *testing.T) {
	s := New()
	var order []int
	next := 0
	for wave := 0; wave < 8; wave++ {
		for i := 0; i < 25; i++ {
			id := next
			next++
			s.At(1000, func() { order = append(order, id) })
		}
		for i := 0; i < 40; i++ {
			s.At(units.Time(wave*100+i%13), func() {})
		}
		// The wave's fillers are the 40 earliest events queued.
		for i := 0; i < 40; i++ {
			s.step()
		}
		if len(order) != 0 {
			t.Fatal("a t=1000 event ran before the fillers drained")
		}
	}
	s.Run()
	if len(order) != next {
		t.Fatalf("ran %d tied events, want %d", len(order), next)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated after heap churn: position %d got event %d", i, v)
		}
	}
}

func TestPeek(t *testing.T) {
	s := New()
	if _, ok := s.events.peek(); ok {
		t.Error("peek on empty heap should report !ok")
	}
	s.At(30, func() {})
	s.At(10, func() {})
	s.At(20, func() {})
	head, ok := s.events.peek()
	if !ok || head.at != 10 {
		t.Errorf("peek = (%v, %v), want earliest event at 10", head.at, ok)
	}
	if s.events.len() != 3 {
		t.Errorf("peek must not consume: %d queued, want 3", s.events.len())
	}
	// peek tracks the minimum as the heap drains.
	s.step()
	if head, ok := s.events.peek(); !ok || head.at != 20 {
		t.Errorf("after one Step, peek at %v, want 20", head.at)
	}
}

// TestDeterminism runs the same randomized workload twice and demands
// identical execution traces — the property the whole simulator depends on.
func TestDeterminism(t *testing.T) {
	run := func() []int {
		s := New()
		var trace []int
		delays := []units.Time{5, 3, 3, 9, 1, 3, 7, 5, 5, 2}
		for i, d := range delays {
			i, d := i, d
			s.At(d, func() {
				trace = append(trace, i)
				if i%2 == 0 {
					s.After(d, func() { trace = append(trace, 100+i) })
				}
			})
		}
		s.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTimestampsNonDecreasingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var stamps []units.Time
		for _, d := range delays {
			s.At(units.Time(d), func() { stamps = append(stamps, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < stamps[i-1] {
				return false
			}
		}
		return len(stamps) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResourceSerializes(t *testing.T) {
	s := New()
	r := NewResource(s, units.GBps(1)) // 1 byte per ns
	var done []units.Time
	s.At(0, func() {
		// Three 64-byte transfers requested simultaneously must complete
		// back to back: 64ns, 128ns, 192ns.
		for i := 0; i < 3; i++ {
			at := r.Acquire(64)
			done = append(done, at)
		}
	})
	s.Run()
	want := []units.Time{64000, 128000, 192000}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("transfer %d completes at %v, want %v", i, done[i], want[i])
		}
	}
	if r.Bytes() != 192 {
		t.Errorf("bytes = %d, want 192", r.Bytes())
	}
}

func TestResourceIdleGap(t *testing.T) {
	s := New()
	r := NewResource(s, units.GBps(1))
	var second units.Time
	s.At(0, func() { r.Acquire(64) })
	s.At(1000000, func() { second = r.Acquire(64) }) // 1ms later: no queueing
	s.Run()
	if second != 1000000+64000 {
		t.Errorf("second completes at %v, want no queueing", second)
	}
}

func TestResourceAcquireAt(t *testing.T) {
	s := New()
	r := NewResource(s, units.GBps(1))
	var at units.Time
	s.At(0, func() {
		at = r.AcquireAt(5000, 64) // arrives after 5ns upstream latency
	})
	s.Run()
	if at != 5000+64000 {
		t.Errorf("AcquireAt completion = %v", at)
	}
}

func TestResourceUtilization(t *testing.T) {
	s := New()
	r := NewResource(s, units.GBps(1))
	s.At(0, func() { r.Acquire(100) })
	s.At(200000, func() {}) // extend sim time to 200ns
	s.Run()
	if u := r.Utilization(); u < 0.49 || u > 0.51 {
		t.Errorf("utilization = %v, want ~0.5", u)
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	// Raw scheduler throughput: the floor under every machine simulation.
	s := New()
	var fn Event
	n := 0
	fn = func() {
		if n < b.N {
			n++
			s.After(10, fn)
		}
	}
	s.At(0, fn)
	b.ResetTimer()
	s.Run()
}

func BenchmarkResourceAcquire(b *testing.B) {
	s := New()
	r := NewResource(s, units.GBps(72))
	for i := 0; i < b.N; i++ {
		r.Acquire(64)
	}
}
