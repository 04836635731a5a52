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

// runStorm executes the storm in one uninterrupted RunBudget call.
func runStorm(t *testing.T, seed uint64) (*stormLog, *Sim) {
	t.Helper()
	s := New()
	log := scheduleStorm(s, seed, 32)
	s.SetSampler(100, func(b units.Time) { log.samples = append(log.samples, b) })
	if _, err := s.RunBudget(1 << 20); err != nil {
		t.Fatalf("RunBudget: %v", err)
	}
	return log, s
}

// runStormSliced drives the same storm as runStorm but through repeated
// small RunBudget slices — the execution shape the harness supervisor uses
// to poll for cancellation between slices. Slicing must be invisible: the
// event log, sampler boundaries, and final clocks must match a single
// uninterrupted run exactly.
func runStormSliced(t *testing.T, seed, slice uint64) (*stormLog, *Sim, int) {
	t.Helper()
	s := New()
	log := scheduleStorm(s, seed, 32)
	s.SetSampler(100, func(b units.Time) { log.samples = append(log.samples, b) })
	slices := 0
	for {
		slices++
		_, err := s.RunBudget(slice)
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

// TestSlicedRunMatchesUninterrupted is the primitive the supervised
// runtime stands on: executing a run as many small event-budget slices
// (resuming after each BudgetError) is observationally identical to one
// uninterrupted run, at slice sizes from one event to more than the whole
// cascade.
func TestSlicedRunMatchesUninterrupted(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		ref, refSim := runStorm(t, seed)
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
		}
	}
}
