package engine

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/units"
)

func TestStalledQuiescent(t *testing.T) {
	s := New()
	s.Watch("dev", func() units.Time { return 0 }, func() int { return 0 })
	s.At(10, func() {})
	if _, err := s.RunBudget(100, 0, nil); err != nil {
		t.Fatalf("RunBudget: %v", err)
	}
	if st := s.Stalled(); st != nil {
		t.Fatalf("Stalled on quiescent sim: %v", st)
	}
}

func TestStalledOutstanding(t *testing.T) {
	s := New()
	pending := 2
	s.Watch("core[3]", nil, func() int { return pending })
	s.At(5, func() {})
	_, err := s.RunBudget(100, 0, nil)
	var st *StallError
	if !errors.As(err, &st) {
		t.Fatalf("RunBudget = %v, want StallError", err)
	}
	if len(st.Stalls) != 1 || st.Stalls[0].Component != "core[3]" || st.Stalls[0].Outstanding != 2 {
		t.Fatalf("stalls = %+v, want core[3] with 2 outstanding", st.Stalls)
	}
	if st.Now != 5 || st.LastEventAt != 5 || st.Executed != 1 {
		t.Fatalf("context = %+v, want Now=5 LastEventAt=5 Executed=1", st)
	}
	if !strings.Contains(st.Error(), "core[3]") {
		t.Fatalf("Error() = %q, want the component named", st.Error())
	}
	pending = 0
	if err := s.Stalled(); err != nil {
		t.Fatalf("Stalled after drain-out: %v", err)
	}
}

func TestStalledBusyHorizon(t *testing.T) {
	// A resource acquired past the last event: the busy horizon extends
	// beyond the drain time, which must be reported.
	s := New()
	r := NewResource(s, units.BytesPerSecond(1*units.GiB))
	s.Watch("far", r.BusyUntil, nil)
	s.At(0, func() { r.Acquire(1 * units.MiB) })
	_, err := s.RunBudget(10, 0, nil)
	var st *StallError
	if !errors.As(err, &st) {
		t.Fatalf("RunBudget = %v, want StallError (busy horizon %v past drain)", err, r.BusyUntil())
	}
	if st.Stalls[0].Component != "far" || st.Stalls[0].BusyUntil != r.BusyUntil() {
		t.Fatalf("stalls = %+v", st.Stalls)
	}
}

func TestRunBudgetExhaustion(t *testing.T) {
	s := New()
	// A self-rescheduling event: the classic runaway schedule.
	var tick func()
	tick = func() { s.After(1, tick) }
	s.At(0, tick)
	_, err := s.RunBudget(1000, 0, nil)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("RunBudget = %v, want BudgetError", err)
	}
	if be.MaxEvents != 1000 || be.Pending == 0 {
		t.Fatalf("budget error = %+v", be)
	}
	if s.Executed() != 1000 {
		t.Fatalf("executed %d events, want exactly the budget", s.Executed())
	}
	if !strings.Contains(be.Error(), "1000") {
		t.Fatalf("Error() = %q", be.Error())
	}
}

func TestRunBudgetCountsPerCall(t *testing.T) {
	// The budget is per call, not cumulative over the sim's lifetime.
	s := New()
	for i := 0; i < 5; i++ {
		s.At(units.Time(i), func() {})
	}
	if _, err := s.RunBudget(5, 0, nil); err != nil {
		t.Fatalf("first RunBudget: %v", err)
	}
	for i := 10; i < 15; i++ {
		s.At(units.Time(i), func() {})
	}
	if _, err := s.RunBudget(5, 0, nil); err != nil {
		t.Fatalf("second RunBudget must get a fresh budget: %v", err)
	}
}

func TestAcquireAtFactor(t *testing.T) {
	s := New()
	r := NewResource(s, units.BytesPerSecond(1*units.GiB))
	base := r.AcquireAt(0, 64*units.KiB)

	s2 := New()
	r2 := NewResource(s2, units.BytesPerSecond(1*units.GiB))
	quarter := r2.AcquireAtFactor(0, 64*units.KiB, 4)
	if quarter != 4*base {
		t.Fatalf("factor 4 completion %v, want 4x the unit factor's %v", quarter, base)
	}
	if r2.Bytes() != r.Bytes() {
		t.Fatal("degradation must stretch occupancy, not change accounting")
	}

	// Factor 1 is bit-identical to AcquireAt — the seed-0 anchor.
	s3 := New()
	r3 := NewResource(s3, units.BytesPerSecond(1*units.GiB))
	if got := r3.AcquireAtFactor(0, 64*units.KiB, 1); got != base {
		t.Fatalf("factor 1 completion %v, want %v", got, base)
	}
}

func TestAcquireAtFactorPanicsBelowOne(t *testing.T) {
	s := New()
	r := NewResource(s, units.BytesPerSecond(1*units.GiB))
	defer func() {
		if recover() == nil {
			t.Fatal("factor 0 must panic")
		}
	}()
	r.AcquireAtFactor(0, 64, 0)
}
