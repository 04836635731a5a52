package engine

import (
	"fmt"
	"strings"

	"repro/internal/units"
)

// The watchdog closes the simulator's worst failure mode: a mis-scheduled
// or dropped completion event does not crash the event loop, it silently
// drains the queue early and yields a plausible-looking but wrong SimTime.
// Components register themselves with Watch; when a run ends (queue drain
// or event budget) RunBudget cross-checks every
// registered busy horizon and outstanding-request count and turns any
// leftover work into a structured StallError naming the component —
// a loud, diagnosable failure instead of a wrong table.

// watcher is one registered component.
type watcher struct {
	name        string
	busyUntil   func() units.Time
	outstanding func() int
}

// Watch registers a component with the stall detector. busyUntil reports
// the end of the component's last known busy period (a fully drained
// simulation must satisfy busyUntil() <= Now()); outstanding reports
// requests issued but not yet completed. Either may be nil when the
// component has no such notion.
func (s *Sim) Watch(name string, busyUntil func() units.Time, outstanding func() int) {
	s.watchers = append(s.watchers, watcher{name: name, busyUntil: busyUntil, outstanding: outstanding})
}

// ComponentStall describes one component the watchdog found with work left
// after the event queue drained.
type ComponentStall struct {
	Component   string
	Outstanding int        // pending requests the component still owes
	BusyUntil   units.Time // end of its last busy period (0 when untracked)
}

// StallError reports components with outstanding work at a point where the
// event queue had none — the signature of a dropped or mis-scheduled
// completion event.
type StallError struct {
	Stalls      []ComponentStall
	Now         units.Time // simulated time when the queue drained
	LastEventAt units.Time // timestamp of the last event the engine ran
	Executed    uint64     // total events executed
}

// Error implements error.
func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: stalled at t=%v after %d events (last event at t=%v): ",
		e.Now, e.Executed, e.LastEventAt)
	for i, st := range e.Stalls {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s has %d outstanding request(s)", st.Component, st.Outstanding)
		if st.BusyUntil > e.Now {
			fmt.Fprintf(&b, ", busy until t=%v", st.BusyUntil)
		}
	}
	return b.String()
}

// stalled cross-checks every watched component against the current time
// and returns a StallError when any has outstanding requests or a busy
// period extending past Now — nil when all are quiescent. It is meaningful
// after the queue drains.
func (s *Sim) stalled() *StallError {
	var stalls []ComponentStall
	for _, w := range s.watchers {
		st := ComponentStall{Component: w.name}
		if w.outstanding != nil {
			st.Outstanding = w.outstanding()
		}
		if w.busyUntil != nil {
			st.BusyUntil = w.busyUntil()
		}
		if st.Outstanding > 0 || st.BusyUntil > s.now {
			stalls = append(stalls, st)
		}
	}
	if len(stalls) == 0 {
		return nil
	}
	return &StallError{Stalls: stalls, Now: s.now, LastEventAt: s.lastAt, Executed: s.nRun}
}

// BudgetError reports a run aborted because it executed more events than
// its budget allowed — the runaway-schedule guard.
type BudgetError struct {
	MaxEvents   uint64     // the budget that was exhausted
	LastEventAt units.Time // timestamp of the last executed event
	Pending     int        // events still queued at the abort
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("engine: event budget of %d exhausted at t=%v with %d event(s) still pending",
		e.MaxEvents, e.LastEventAt, e.Pending)
}

// RunBudget is Run with the watchdog armed: it executes events until the
// queue drains, aborting with a BudgetError once more than maxEvents have
// been executed by this call, and cross-checking the watched components on
// drain. Every `every` executed events (0 = never) with events still queued
// and budget left, it calls pause; a non-nil error from pause stops the run
// there and is returned as is. The returned time is valid in either case;
// the error says whether to trust it. Only a drain settles the clock to the
// drain horizon (before the cross-check, so stalled compares busy horizons
// against the settled clock); a budget abort or a pause leaves it at the
// last event, which is what makes a later resume byte-identical to an
// uninterrupted run.
func (s *Sim) RunBudget(maxEvents, every uint64, pause func() error) (units.Time, error) {
	if every == 0 || pause == nil {
		every = maxEvents
	}
	var ran uint64
	next := min(every, maxEvents) // the next pause or the budget, whichever is first
	for s.events.len() > 0 {
		if ran >= next {
			if ran >= maxEvents {
				return s.now, &BudgetError{MaxEvents: maxEvents, LastEventAt: s.lastAt, Pending: s.events.len()}
			}
			if err := pause(); err != nil {
				return s.now, err
			}
			next += min(every, maxEvents-next)
		}
		s.step()
		ran++
	}
	s.settle()
	if st := s.stalled(); st != nil {
		return s.now, st
	}
	return s.now, nil
}
