package engine

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/units"
	"repro/internal/xrand"
)

// TestQueueMatchesReferenceSort drives the 4-ary heap through random
// interleavings of pushes and pops and checks every pop against a reference
// model: the same items ordered by sort.SliceStable on (at, seq). Stable
// sort on insertion order is exactly the FIFO tie-break contract, so any
// heap-shape bug that reorders same-timestamp events shows up as a seq
// mismatch.
//
// The stream reaches the edges of pop's two paths: timestamps come from a
// narrow range (dense seq ties), from the top of units.Time (the borrow chain
// at its last representable values) and from all 63 bits; and some pushes
// redeem a ticket — a sequence number drawn earlier and now older than
// everything queued at the timestamp it joins, as Sim.AtTicket does.
func TestQueueMatchesReferenceSort(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 2015} {
		rng := xrand.New(seed)
		var q queue
		var ref []item // kept sorted by (at, seq); pops take ref[0]
		var seq uint64
		var tickets []uint64 // drawn, not yet pushed
		resort := func() {
			sort.SliceStable(ref, func(i, j int) bool { return before(ref[i], ref[j]) })
		}
		stamp := func() units.Time {
			switch rng.Intn(4) {
			case 0:
				return units.Time(math.MaxInt64 - rng.Intn(50))
			case 1:
				return units.Time(rng.Uint64() >> 1)
			}
			// A narrow timestamp range forces dense seq ties.
			return units.Time(rng.Intn(50))
		}
		const steps = 5000
		for i := 0; i < steps; i++ {
			// Bias toward pushes so the heap grows, but drain in bursts to
			// exercise sift-down across many shapes.
			if q.len() == 0 || rng.Intn(10) < 6 {
				n := 1 + rng.Intn(8)
				for j := 0; j < n; j++ {
					seq++
					if rng.Intn(8) == 0 {
						tickets = append(tickets, seq)
						continue
					}
					it := item{at: stamp(), seq: seq}
					if len(tickets) > 0 && len(ref) > 0 && rng.Intn(4) == 0 {
						// Redeem the oldest ticket at a timestamp already queued.
						it = item{at: ref[rng.Intn(len(ref))].at, seq: tickets[0]}
						tickets = tickets[1:]
					}
					q.push(it)
					ref = append(ref, it)
				}
				resort()
			} else {
				n := 1 + rng.Intn(q.len())
				for j := 0; j < n; j++ {
					got := q.pop()
					want := ref[0]
					ref = ref[1:]
					if got.at != want.at || got.seq != want.seq {
						t.Fatalf("seed %d: pop = (at=%v seq=%d), reference says (at=%v seq=%d)",
							seed, got.at, got.seq, want.at, want.seq)
					}
				}
			}
			if head, ok := q.peek(); ok {
				if head.at != ref[0].at || head.seq != ref[0].seq {
					t.Fatalf("seed %d: peek = (at=%v seq=%d), reference says (at=%v seq=%d)",
						seed, head.at, head.seq, ref[0].at, ref[0].seq)
				}
			} else if len(ref) != 0 {
				t.Fatalf("seed %d: queue empty but reference holds %d items", seed, len(ref))
			}
		}
		// Full drain: the remaining population must come out exactly sorted.
		for len(ref) > 0 {
			got := q.pop()
			want := ref[0]
			ref = ref[1:]
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d: drain pop = (at=%v seq=%d), want (at=%v seq=%d)",
					seed, got.at, got.seq, want.at, want.seq)
			}
		}
		if q.len() != 0 {
			t.Fatalf("seed %d: queue not empty after drain: %d left", seed, q.len())
		}

		// Every population from empty to 70, drained to nothing: on the way
		// down the last fan-out takes every shape — absent, one to three
		// children (the scalar path), exactly four (the arithmetic one).
		for n := 0; n <= 70; n++ {
			ref = ref[:0]
			for j := 0; j < n; j++ {
				seq++
				it := item{at: stamp(), seq: seq}
				q.push(it)
				ref = append(ref, it)
			}
			resort()
			for j, want := range ref {
				if got := q.pop(); got.at != want.at || got.seq != want.seq {
					t.Fatalf("seed %d: population %d, pop %d = (at=%v seq=%d), want (at=%v seq=%d)",
						seed, n, j, got.at, got.seq, want.at, want.seq)
				}
			}
			if q.len() != 0 {
				t.Fatalf("seed %d: population %d left %d items behind", seed, n, q.len())
			}
		}
	}
}

// TestBeforeBitMatchesBefore holds pop's borrow-chain comparison to before,
// the one definition of the order, over the corners of both words, equal
// pairs, and random pairs.
func TestBeforeBitMatchesBefore(t *testing.T) {
	check := func(a, b item) {
		t.Helper()
		want := uint64(0)
		if before(a, b) {
			want = 1
		}
		if got := beforeBit(&a, &b); got != want {
			t.Fatalf("beforeBit((%d, %d), (%d, %d)) = %d, before says %d", a.at, a.seq, b.at, b.seq, got, want)
		}
	}
	ats := []units.Time{0, 1, 2, 1 << 31, 1 << 32, math.MaxInt64 - 1, math.MaxInt64}
	seqs := []uint64{0, 1, 2, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	for _, at1 := range ats {
		for _, s1 := range seqs {
			for _, at2 := range ats {
				for _, s2 := range seqs {
					check(item{at: at1, seq: s1}, item{at: at2, seq: s2})
				}
			}
		}
	}
	f := func(at1, at2 int64, s1, s2 uint64, sameAt, sameSeq bool) bool {
		a := item{at: units.Time(at1 & math.MaxInt64), seq: s1}
		b := item{at: units.Time(at2 & math.MaxInt64), seq: s2}
		if sameAt {
			b.at = a.at
		}
		if sameSeq {
			b.seq = a.seq
		}
		check(a, b)
		check(b, a)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestNegativeTimePanics pins the invariant beforeBit rests on: no item with
// a negative timestamp can enter the queue, through either door.
func TestNegativeTimePanics(t *testing.T) {
	for _, door := range []struct {
		name     string
		schedule func(*Sim)
	}{
		{"At", func(s *Sim) { s.At(-1, noop) }},
		{"AtTicket", func(s *Sim) { s.AtTicket(-1, s.Ticket(), noop) }},
	} {
		s := New()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(-1) must panic", door.name)
				}
			}()
			door.schedule(s)
		}()
		if s.Pending() != 0 {
			t.Errorf("%s(-1) left an event queued", door.name)
		}
	}
}

// TestPopReleasesCallback checks that pop zeroes the vacated tail slot so
// the backing array does not pin the popped event's closure.
func TestPopReleasesCallback(t *testing.T) {
	var q queue
	q.push(item{at: 1, seq: 1, fn: func() {}})
	q.pop()
	if q.a[:1][0].fn != nil {
		t.Error("pop must clear the vacated slot's callback reference")
	}
}

// TestReserve covers the pre-sizing paths: growth, no-op, and preservation
// of queued items across a grow.
func TestReserve(t *testing.T) {
	s := NewWithCap(64)
	if cap(s.events.a) < 64 {
		t.Fatalf("NewWithCap(64): cap = %d", cap(s.events.a))
	}
	s.At(10, noop)
	s.At(5, noop)
	before := cap(s.events.a)
	s.Reserve(8) // smaller than current capacity: must not shrink
	if cap(s.events.a) != before {
		t.Errorf("Reserve must never shrink: cap went %d -> %d", before, cap(s.events.a))
	}
	s.Reserve(1024)
	if cap(s.events.a) < 1024 {
		t.Errorf("Reserve(1024): cap = %d", cap(s.events.a))
	}
	if head, ok := s.events.peek(); !ok || head.at != 5 {
		t.Error("Reserve lost queued events")
	}
	if s.Run() != 10 {
		t.Error("events did not survive Reserve")
	}
}

func noop() {}

// TestSchedulePopZeroAllocs is the tentpole's contract: once the queue is
// at capacity, a schedule/execute cycle performs zero heap allocations.
// container/heap could never pass this — Push(x any) boxes every item.
func TestSchedulePopZeroAllocs(t *testing.T) {
	s := NewWithCap(1024)
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(10, noop)
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("schedule+step allocates %.1f per event, want 0", allocs)
	}
}

// TestAfterOverflowPanics pins the satellite fix: a delay that would wrap
// s.now + d past the top of units.Time must panic, not schedule into the
// past.
func TestAfterOverflowPanics(t *testing.T) {
	s := New()
	s.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on units.Time overflow")
			}
		}()
		s.After(units.Time(1<<63-1), noop)
	})
	s.Run()
}
