package engine

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/units"
	"repro/internal/xrand"
)

// stormLog records an execution trace precise enough that equality implies
// byte-identity of anything derived from the run: per event it captures
// (time, id); for the run it captures sampler boundaries and final clocks.
type stormLog struct {
	events  []string
	samples []units.Time
}

// scheduleStorm drives s through a seed-determined cascade: n root events,
// each of which schedules a few children at pseudo-random offsets — some
// zero-delay (FIFO tie-break stress), some tens of nanoseconds out, some
// scheduled with At and some with After — and every third event holds the
// drain horizon out with Extend, so a slice boundary can fall between an
// Extend and the drain that settles it. The cascade is a pure function of
// the seed and the engine's execution order, so two runs that execute in
// the same order produce equal logs.
func scheduleStorm(s *Sim, seed uint64, n int) *stormLog {
	log := &stormLog{}
	var grow func(id, depth int) Event
	grow = func(id, depth int) Event {
		return func() {
			log.events = append(log.events, fmt.Sprintf("%d@%v", id, s.Now()))
			if depth >= 3 {
				return
			}
			r := xrand.New(seed + uint64(id))
			if id%3 == 0 {
				s.Extend(s.Now() + units.Time(r.Uint64n(400)))
			}
			kids := int(r.Uint64n(3))
			for c := 0; c < kids; c++ {
				kid := id*7 + c + 1
				d := units.Time(r.Uint64n(120)) // 0..119ns
				if r.Uint64n(2) == 0 {
					s.At(s.Now()+d, grow(kid, depth+1))
				} else {
					s.After(d, grow(kid, depth+1))
				}
			}
		}
	}
	r := xrand.New(seed)
	for i := 0; i < n; i++ {
		at := units.Time(r.Uint64n(500))
		s.At(at, grow(i+1000, 0))
	}
	return log
}

// runStormSliced drives the same storm through repeated small RunBudget
// slices, each resuming where the last stopped on its budget. Resuming must
// be invisible: the event log, sampler boundaries, and final clocks must
// match a single uninterrupted run exactly.
func runStormSliced(t *testing.T, seed, slice uint64) (*stormLog, *Sim, int) {
	t.Helper()
	s := New()
	log := scheduleStorm(s, seed, 32)
	s.SetSampler(100, func(b units.Time) { log.samples = append(log.samples, b) })
	slices := 0
	for {
		slices++
		_, err := s.RunBudget(slice, 0, nil)
		if err == nil {
			return log, s, slices
		}
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("RunBudget(slice=%d): %v", slice, err)
		}
		if slices > 1<<20 {
			t.Fatalf("storm did not converge in %d slices", slices)
		}
	}
}

// runStorm executes the storm in one RunBudget call that pauses every
// `every` executed events (0 = uninterrupted) — the shape a supervised
// replay runs in — and records the executed-event count at each pause.
func runStorm(t *testing.T, seed, every uint64) (*stormLog, *Sim, []uint64) {
	t.Helper()
	s := New()
	log := scheduleStorm(s, seed, 32)
	s.SetSampler(100, func(b units.Time) { log.samples = append(log.samples, b) })
	var at []uint64
	if _, err := s.RunBudget(1<<20, every, func() error {
		at = append(at, s.Executed())
		return nil
	}); err != nil {
		t.Fatalf("RunBudget(every %d): %v", every, err)
	}
	return log, s, at
}

// TestSlicedRunMatchesUninterrupted is the primitive the supervised
// runtime stands on: executing a run as many small event-budget slices
// (resuming after each BudgetError), or as one run that pauses between
// them, is observationally identical to one uninterrupted run, at slice
// sizes from one event to more than the whole cascade. The pauses fall
// exactly where the slices resume.
func TestSlicedRunMatchesUninterrupted(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		ref, refSim, _ := runStorm(t, seed, 0)
		for _, slice := range []uint64{1, 3, 17, 64, 1000} {
			got, gotSim, slices := runStormSliced(t, seed, slice)
			if slice < 64 && slices < 2 {
				t.Fatalf("seed %d slice %d: only %d slices — test not exercising resume", seed, slice, slices)
			}
			if fmt.Sprint(got.events) != fmt.Sprint(ref.events) {
				t.Fatalf("seed %d slice %d: event log diverged", seed, slice)
			}
			if fmt.Sprint(got.samples) != fmt.Sprint(ref.samples) {
				t.Fatalf("seed %d slice %d: samples %v, want %v",
					seed, slice, got.samples, ref.samples)
			}
			if gotSim.Now() != refSim.Now() || gotSim.Executed() != refSim.Executed() {
				t.Fatalf("seed %d slice %d: final (now=%v, executed=%d), want (%v, %d)",
					seed, slice, gotSim.Now(), gotSim.Executed(), refSim.Now(), refSim.Executed())
			}
			paused, pausedSim, at := runStorm(t, seed, slice)
			if fmt.Sprint(*paused) != fmt.Sprint(*ref) || pausedSim.Now() != refSim.Now() || pausedSim.Executed() != refSim.Executed() {
				t.Fatalf("seed %d every %d: a paused run diverged from the uninterrupted one", seed, slice)
			}
			if len(at) != slices-1 {
				t.Fatalf("seed %d every %d: %d pauses, want one per resume (%d)", seed, slice, len(at), slices-1)
			}
			for i, n := range at {
				if n != uint64(i+1)*slice {
					t.Fatalf("seed %d every %d: pause %d after %d events, want %d", seed, slice, i, n, uint64(i+1)*slice)
				}
			}
		}
	}
}

// TestPauseErrorStopsTheRun: a pause error ends RunBudget at the pause,
// returned as is, with the clock at the last event; a later RunBudget
// resumes to the uninterrupted run's log and clocks.
func TestPauseErrorStopsTheRun(t *testing.T) {
	ref, refSim, _ := runStorm(t, 7, 0)
	s := New()
	log := scheduleStorm(s, 7, 32)
	s.SetSampler(100, func(b units.Time) { log.samples = append(log.samples, b) })
	stop := errors.New("stop")
	if _, err := s.RunBudget(1<<20, 10, func() error { return stop }); err != stop {
		t.Fatalf("RunBudget = %v, want the pause error", err)
	}
	if s.Executed() != 10 {
		t.Fatalf("stopped after %d events, want 10", s.Executed())
	}
	if _, err := s.RunBudget(1<<20, 0, nil); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if fmt.Sprint(*log) != fmt.Sprint(*ref) || s.Now() != refSim.Now() || s.Executed() != refSim.Executed() {
		t.Fatal("a run stopped by its pause and resumed diverged from the uninterrupted one")
	}
}
