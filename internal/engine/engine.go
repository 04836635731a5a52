// Package engine is the discrete-event simulation kernel underneath the
// machine model — the role SST's core plays in the paper's experimental
// setup. It provides a single global event queue ordered by simulated time
// with deterministic FIFO tie-breaking, so that a given component graph and
// input trace always produce bit-identical results.
package engine

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/units"
)

// Event is a callback scheduled to run at a simulated time.
type Event func()

// item is one scheduled event. Invariant: at >= 0 — the clock starts at zero
// and At/AtTicket refuse the past — which is what lets beforeBit compare at
// as an unsigned word.
type item struct {
	at  units.Time
	seq uint64
	fn  Event
}

// before is the queue's total order: time first, then schedule order. The
// seq tie-break is what makes same-timestamp events FIFO and the whole
// simulation deterministic.
func before(a, b item) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// beforeBit is before as a 0/1 word with no data-dependent branch: (at, seq)
// read as one 128-bit unsigned value, a orders first exactly when a - b
// borrows out of the top word. It is an evaluation of before, not a second
// definition of the order (TestBeforeBitMatchesBefore holds the two together),
// and it is only correct under item's at >= 0 invariant.
func beforeBit(a, b *item) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow
}

// queue is the event queue: a hand-specialized 4-ary min-heap over a flat
// []item ordered by (at, seq). Replacing container/heap removes the
// Push(x any)/Pop() any interface boxing — one heap allocation per
// scheduled event on the replay hot path — and the 4-ary shape halves the
// tree depth versus a binary heap, trading a slightly wider child scan
// (cheap: the four items are adjacent in one or two cache lines) for fewer
// sift levels. push/pop sift a hole instead of swapping, so each level
// costs one copy rather than three.
//
// In a replay the four children of a node are in no useful order, so a
// compare-and-branch minimum mispredicts about once per level; pop therefore
// picks the minimum of a full fan-out arithmetically (beforeBit) and keeps
// the scalar scan only for the partial last fan-out, which is reached at
// most once per pop.
type queue struct {
	a []item
}

func (q *queue) len() int { return len(q.a) }

// push inserts it, keeping the heap order. Amortized zero allocations: the
// backing array grows geometrically and is pre-sized by NewWithCap/Reserve.
func (q *queue) push(it item) {
	//nmlint:ignore hotpath amortized growth; NewWithCap/Reserve pre-size the array for the replay's steady state
	q.a = append(q.a, it)
	a := q.a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !before(it, a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = it
}

// pop removes and returns the minimum item. The vacated slot is zeroed so
// the popped callback's closure (if any) is not retained by the backing
// array.
func (q *queue) pop() item {
	a := q.a
	root := a[0]
	n := len(a) - 1
	last := a[n]
	a[n] = item{}
	q.a = a[:n]
	if n > 0 {
		a = q.a
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			min := c
			if c+4 <= n {
				// A two-round tournament: each round's winner is an index
				// computed from a borrow bit, never a branch taken on one
				// (the &3 only tells the compiler what lo and hi can be).
				ch := a[c : c+4 : c+4]
				lo := beforeBit(&ch[1], &ch[0])
				hi := 2 + beforeBit(&ch[3], &ch[2])
				hiWins := beforeBit(&ch[hi&3], &ch[lo&3])
				min = c + int(lo^(lo^hi)&-hiWins)
			} else {
				for j := c + 1; j < n; j++ {
					if before(a[j], a[min]) {
						min = j
					}
				}
			}
			if !before(a[min], last) {
				break
			}
			a[i] = a[min]
			i = min
		}
		a[i] = last
	}
	return root
}

// Sim is a discrete-event simulator. The zero value is not usable; use New.
type Sim struct {
	now      units.Time
	seq      uint64
	cur      uint64 // seq of the executing (or last executed) event
	events   queue
	nRun     uint64
	lastAt   units.Time // timestamp of the most recently executed event
	horizon  units.Time // drain horizon: latest Extend time (see Extend)
	watchers []watcher  // components registered with the stall detector

	// Epoch sampler (telemetry hook). The engine stays decoupled from the
	// telemetry package: it only promises to call sampler at every multiple
	// of epoch that event execution crosses. Disabled cost is one nil check
	// per event; no events are ever scheduled for sampling.
	sampler    func(units.Time)
	epoch      units.Time
	nextSample units.Time
}

// New returns an empty simulator at time zero.
func New() *Sim {
	return &Sim{}
}

// NewWithCap returns an empty simulator whose event queue is pre-sized for
// capacity pending events, so a replay of known shape schedules without
// growth reallocations. Capacity is a hint: the queue still grows past it
// on demand.
func NewWithCap(capacity int) *Sim {
	s := &Sim{}
	s.Reserve(capacity)
	return s
}

// Reserve grows the event queue's capacity to hold at least n pending
// events without reallocating. A no-op when the queue is already that
// large; never shrinks.
func (s *Sim) Reserve(n int) {
	if n <= cap(s.events.a) {
		return
	}
	a := make([]item, len(s.events.a), n)
	copy(a, s.events.a)
	s.events.a = a
}

// Now returns the current simulated time.
func (s *Sim) Now() units.Time { return s.now }

// At schedules fn to run at absolute simulated time t. Scheduling into the
// past panics: it would silently violate causality.
//
//nmlint:hotpath
func (s *Sim) At(t units.Time, fn Event) {
	if t < s.now {
		panic(fmt.Sprintf("engine: scheduling at %v, before now %v", t, s.now))
	}
	s.seq++
	//nmlint:ignore hotpath dispatch boundary: scheduled callbacks are verified at their own hotpath roots
	s.events.push(item{at: t, seq: s.seq, fn: fn})
}

// Seq returns the schedule-order sequence number of the executing event (or
// of the most recently executed one between events; zero before the first).
// Together with Now it is the executing position in the queue's total
// (at, seq) order: every event ordered before (Now, Seq) has already run.
func (s *Sim) Seq() uint64 { return s.cur }

// Ticket consumes and returns the next schedule-order sequence number
// without scheduling anything: the place in line an At issued at this
// program point would have taken. A component that knows when something
// completes, but not yet whether anyone will need waking for it, takes a
// ticket instead of paying for an event; if a wake turns out to be needed,
// AtTicket redeems the ticket at exactly the position the never-scheduled
// event would have held. A ticket may be redeemed at most once.
//
//nmlint:hotpath
func (s *Sim) Ticket() uint64 {
	s.seq++
	return s.seq
}

// AtTicket schedules fn at time t with a sequence number previously drawn
// by Ticket, so the event ties with same-timestamp events exactly as an At
// issued at Ticket time would have. Scheduling before the executing
// (Now, Seq) position panics like At into the past — that position has
// already been passed — and so does a ticket Ticket never issued.
//
//nmlint:hotpath
func (s *Sim) AtTicket(t units.Time, ticket uint64, fn Event) {
	if t < s.now || (t == s.now && ticket < s.cur) {
		panic(fmt.Sprintf("engine: scheduling at (%v, #%d), before the executing (%v, #%d)", t, ticket, s.now, s.cur))
	}
	if ticket == 0 || ticket > s.seq {
		panic(fmt.Sprintf("engine: ticket #%d was never issued (last is #%d)", ticket, s.seq))
	}
	//nmlint:ignore hotpath dispatch boundary: scheduled callbacks are verified at their own hotpath roots
	s.events.push(item{at: t, seq: ticket, fn: fn})
}

// Extend pushes the drain horizon out to t: the simulation is not over
// before t even if no event is scheduled there. It replaces a no-op
// "keep the loop alive" event for work nothing waits on (a posted write
// still occupying a bus): when the queue drains, Run and RunBudget settle
// the clock to the horizon, visiting every sampler boundary on the way, so
// the final time, utilizations, and telemetry series are those the no-op
// event would have produced. An Extend at or before Now is a no-op.
//
//nmlint:hotpath
func (s *Sim) Extend(t units.Time) {
	if t > s.horizon {
		s.horizon = t
	}
}

// settle moves the clock to the drain horizon once the queue has drained:
// sampler boundaries in (last event, horizon] are visited once each, in
// order, then now/lastAt take the horizon — before stalled or any
// Utilization reads the clock.
func (s *Sim) settle() {
	if s.horizon <= s.now {
		return
	}
	if s.sampler != nil {
		for s.nextSample <= s.horizon {
			s.sampler(s.nextSample)
			s.nextSample += s.epoch
		}
	}
	s.now = s.horizon
	s.lastAt = s.horizon
}

// After schedules fn to run d after the current time. A negative delay
// panics, and so does a delay that overflows units.Time past the end of
// representable simulated time — silently wrapping would schedule the event
// into the past and corrupt causality without a trace.
//
//nmlint:hotpath
func (s *Sim) After(d units.Time, fn Event) {
	if d < 0 {
		panic("engine: negative delay")
	}
	t := s.now + d
	if t < s.now {
		panic(fmt.Sprintf("engine: delay %v from now %v overflows units.Time", d, s.now))
	}
	s.At(t, fn)
}

// SetSampler installs fn as the epoch sampler: before executing the first
// event at or after each multiple of epoch, the engine calls fn with that
// boundary time. Boundaries are visited in order and exactly once, so fn
// sees a complete, evenly spaced time series; state between events is
// piecewise-constant, so sampling at the boundary from the following
// event's execution point observes exactly the state that held at the
// boundary. Sampling costs no scheduled events. Installing a non-positive
// epoch or nil fn panics.
//
// Boundaries start at the first multiple of epoch >= the install-time
// Now() — time zero for a fresh simulator. Installing mid-run therefore
// begins the series at the next boundary rather than replaying every past
// boundary in a burst (boundaries already behind Now() are unobservable:
// the state that held at them is gone).
func (s *Sim) SetSampler(epoch units.Time, fn func(units.Time)) {
	if epoch <= 0 {
		panic("engine: sampler epoch must be positive")
	}
	if fn == nil {
		panic("engine: nil sampler")
	}
	//nmlint:ignore hotpath installation-time hook; the telemetry sampler is verified at Recorder.Sample's own root
	s.sampler = fn
	s.epoch = epoch
	next := (s.now / epoch) * epoch
	if next < s.now {
		next += epoch
	}
	s.nextSample = next
}

// fire executes one already-dequeued event: sampler boundary crossings,
// then the clock/accounting update, then the event body.
//
//nmlint:hotpath
func (s *Sim) fire(it item) {
	if s.sampler != nil {
		for s.nextSample <= it.at {
			s.sampler(s.nextSample)
			s.nextSample += s.epoch
		}
	}
	s.now = it.at
	s.cur = it.seq
	s.lastAt = it.at
	s.nRun++
	it.fn()
}

// step pops and executes the next event unconditionally; callers check the
// queue first. This is the schedule/pop cycle of the replay kernel: every
// simulated event funnels through here.
//
//nmlint:hotpath
func (s *Sim) step() {
	s.fire(s.events.pop())
}

// Run is RunBudget with no budget and no pause: it executes events until
// the queue drains, settles the clock to the drain horizon (see Extend),
// and returns the final time. The watchdog's verdict is dropped; a caller
// that wants it runs RunBudget.
func (s *Sim) Run() units.Time {
	end, _ := s.RunBudget(math.MaxUint64, 0, nil)
	return end
}

// Executed returns the total number of events run, a cheap progress and
// complexity metric for simulations.
func (s *Sim) Executed() uint64 { return s.nRun }
