package engine

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/units"
	"repro/internal/xrand"
)

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

// TestAtTicketPastPanics: a ticket names a position in the (at, seq) order,
// so redeeming it behind the executing event's position is scheduling into
// the past even when the timestamp alone is not.
func TestAtTicketPastPanics(t *testing.T) {
	s := New()
	early := s.Ticket() // #1: ordered before the event below at equal times
	s.At(10, func() {   // #2
		if s.Seq() != 2 {
			t.Errorf("Seq() = %d inside the second-scheduled event", s.Seq())
		}
		late := s.Ticket()
		mustPanic(t, "earlier time", func() { s.AtTicket(9, late, noop) })
		mustPanic(t, "same time, earlier ticket", func() { s.AtTicket(10, early, noop) })
		mustPanic(t, "unissued ticket", func() { s.AtTicket(20, late+1, noop) })
		mustPanic(t, "zero ticket", func() { s.AtTicket(20, 0, noop) })
		s.AtTicket(10, late, noop)  // same time, later ticket: still ahead
		s.AtTicket(11, early, noop) // later time: any issued ticket is ahead
	})
	s.Run()
	if s.Executed() != 3 {
		t.Fatalf("executed %d events, want the scheduler and its two legal wakes", s.Executed())
	}
}

// TestAtTicketMatchesAtOrder extends TestQueueMatchesReferenceSort to the
// ticket path: a random batch of same-timestamp-heavy events is issued
// twice, once with plain At and once with a random subset drawing a Ticket
// at its issue point and redeeming it later — out of order, from inside a
// running event. Both must execute in the order sort.SliceStable gives the
// issue sequence keyed on time alone: a redeemed ticket interleaves exactly
// as the At issued at Ticket() time would have.
func TestAtTicketMatchesAtOrder(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 2015} {
		rng := xrand.New(seed)
		const n = 400
		type ev struct {
			id       int
			at       units.Time
			deferred bool
		}
		evs := make([]ev, n)
		for i := range evs {
			// A narrow timestamp range (including time zero, the redeemer's
			// own timestamp) forces dense ties.
			evs[i] = ev{id: i, at: units.Time(rng.Intn(12)), deferred: rng.Intn(2) == 0}
		}

		var plainLog, ticketLog []int
		plain, ticketed := New(), New()
		type owed struct {
			e      ev
			ticket uint64
		}
		var owes []owed
		// Event #1 on both sides is the redeemer: on the ticketed side it
		// redeems every deferred ticket, in shuffled order.
		plain.At(0, noop)
		ticketed.At(0, func() {
			order := make([]int, len(owes))
			for i := range order {
				order[i] = i
			}
			for i := len(order) - 1; i > 0; i-- { // Fisher-Yates
				j := rng.Intn(i + 1)
				order[i], order[j] = order[j], order[i]
			}
			for _, i := range order {
				o := owes[i]
				ticketed.AtTicket(o.e.at, o.ticket, func() { ticketLog = append(ticketLog, o.e.id) })
			}
		})
		for _, e := range evs {
			e := e
			plain.At(e.at, func() { plainLog = append(plainLog, e.id) })
			if e.deferred {
				owes = append(owes, owed{e, ticketed.Ticket()})
			} else {
				ticketed.At(e.at, func() { ticketLog = append(ticketLog, e.id) })
			}
		}
		plain.Run()
		ticketed.Run()

		sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
		want := make([]int, n)
		for i, e := range evs {
			want[i] = e.id
		}
		if fmt.Sprint(plainLog) != fmt.Sprint(want) {
			t.Fatalf("seed %d: plain At order diverged from the stable sort", seed)
		}
		if fmt.Sprint(ticketLog) != fmt.Sprint(want) {
			t.Fatalf("seed %d: ticketed order diverged from the stable sort\n got %v\nwant %v", seed, ticketLog, want)
		}
	}
}

// TestExtendSettlesOnDrain: the drain horizon stands in for no-op drain
// events. Against a twin that schedules the no-ops, a run that Extends must
// end at the same time having visited the same sampler boundaries — every
// boundary in (last event, horizon] once, in order — with only the event
// count lower.
func TestExtendSettlesOnDrain(t *testing.T) {
	run := func(drain func(s *Sim, at units.Time)) (units.Time, []units.Time, uint64) {
		s := New()
		var samples []units.Time
		s.SetSampler(10, func(b units.Time) { samples = append(samples, b) })
		s.At(5, func() {
			drain(s, 47)
			drain(s, 95) // the horizon is the max, not the last
			drain(s, 60)
			drain(s, 5) // at now: nothing to hold out for
		})
		s.At(12, noop)
		return s.Run(), samples, s.Executed()
	}
	wantEnd, wantSamples, wantEvents := run(func(s *Sim, at units.Time) { s.At(at, noop) })
	end, samples, events := run(func(s *Sim, at units.Time) { s.Extend(at) })
	if end != wantEnd || end != 95 {
		t.Errorf("settled at %v, no-op twin ended at %v, want 95", end, wantEnd)
	}
	if fmt.Sprint(samples) != fmt.Sprint(wantSamples) {
		t.Errorf("sampler visited %v, no-op twin %v", samples, wantSamples)
	}
	if len(samples) != 10 { // 0, 10, ..., 90
		t.Errorf("sampler visited %v, want each boundary 0..90 once", samples)
	}
	if wantEvents-events != 4 || events != 2 {
		t.Errorf("executed %d events against the twin's %d, want 2 and 6", events, wantEvents)
	}
}

// TestBudgetAbortDoesNotSettle: only a drain settles. A RunBudget that runs
// out of budget leaves the clock at its last event and the sampler where
// that event left it, so the resumed run is the uninterrupted run. (The
// storm in slice_test.go checks the same at scale: it Extends.)
func TestBudgetAbortDoesNotSettle(t *testing.T) {
	s := New()
	var samples []units.Time
	s.SetSampler(10, func(b units.Time) { samples = append(samples, b) })
	s.At(5, func() { s.Extend(95) })
	s.At(12, noop)
	_, err := s.RunBudget(1, 0, nil)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("RunBudget(1) = %v, want BudgetError", err)
	}
	if s.Now() != 5 || len(samples) != 1 {
		t.Fatalf("after the abort: now %v, samples %v; want 5 and only the zero boundary", s.Now(), samples)
	}
	end, err := s.RunBudget(1, 0, nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if end != 95 || len(samples) != 10 {
		t.Fatalf("after the resume: end %v, samples %v; want 95 and boundaries 0..90", end, samples)
	}
}

// TestStalledSeesSettledClock: RunBudget settles before it cross-checks the
// watchers, so a busy period the horizon covers is not a stall — the
// counterpart of TestStalledBusyHorizon, where nothing holds the clock out.
func TestStalledSeesSettledClock(t *testing.T) {
	s := New()
	r := NewResource(s, units.BytesPerSecond(1*units.GiB))
	s.Watch("far", r.BusyUntil, nil)
	s.At(0, func() { s.Extend(r.Acquire(1 * units.MiB)) })
	end, err := s.RunBudget(10, 0, nil)
	if err != nil {
		t.Fatalf("RunBudget = %v, want a clean drain", err)
	}
	if end != r.BusyUntil() || r.Utilization() != 1 {
		t.Fatalf("end %v, busy until %v, utilization %v: the clock did not settle before it was read",
			end, r.BusyUntil(), r.Utilization())
	}
}
