package engine

import (
	"fmt"
	"testing"

	"repro/internal/units"
)

func TestSamplerBoundaries(t *testing.T) {
	s := New()
	var counter int
	var samples []units.Time
	var seen []int
	s.SetSampler(10, func(at units.Time) {
		samples = append(samples, at)
		seen = append(seen, counter)
	})
	s.At(5, func() { counter = 1 })
	s.At(25, func() { counter = 2 })
	s.At(40, func() { counter = 3 })
	s.Run()

	// Boundaries 0..40, each visited exactly once, in order.
	want := []units.Time{0, 10, 20, 30, 40}
	if len(samples) != len(want) {
		t.Fatalf("samples at %v, want %v", samples, want)
	}
	for i := range want {
		if samples[i] != want[i] {
			t.Fatalf("samples at %v, want %v", samples, want)
		}
	}
	// The sampler observes the state that held AT each boundary: events are
	// piecewise-constant between executions, so the boundary at 10 (sampled
	// just before the event at 25 runs) still sees counter == 1.
	wantSeen := []int{0, 1, 1, 2, 2}
	for i := range wantSeen {
		if seen[i] != wantSeen[i] {
			t.Fatalf("sampler saw %v, want %v", seen, wantSeen)
		}
	}
}

func TestSamplerZeroBaseline(t *testing.T) {
	// The time-zero boundary fires before the first event executes, giving
	// every time series a zero-state baseline row.
	s := New()
	fired := false
	var baselineBeforeEvent bool
	s.SetSampler(100, func(at units.Time) {
		if at == 0 {
			baselineBeforeEvent = !fired
		}
	})
	s.At(0, func() { fired = true })
	s.Run()
	if !baselineBeforeEvent {
		t.Error("time-zero sample did not precede the first event")
	}
}

func TestSamplerSparseEvents(t *testing.T) {
	// An event far beyond many epochs still yields every intermediate
	// boundary (no gaps when the event queue is sparse).
	s := New()
	var n int
	s.SetSampler(10, func(units.Time) { n++ })
	s.At(95, func() {})
	s.Run()
	if n != 10 { // boundaries 0, 10, ..., 90
		t.Errorf("sampled %d boundaries, want 10", n)
	}
}

func TestSamplerDisabledCostsNothing(t *testing.T) {
	// Without SetSampler the engine schedules no sampling events and runs
	// exactly the user's events.
	s := New()
	s.At(5, func() {})
	s.At(15, func() {})
	s.Run()
	if got := s.Executed(); got != 2 {
		t.Errorf("executed %d events, want 2", got)
	}
}

func TestSetSamplerPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero epoch", func() { New().SetSampler(0, func(units.Time) {}) })
	mustPanic("negative epoch", func() { New().SetSampler(-1, func(units.Time) {}) })
	mustPanic("nil fn", func() { New().SetSampler(10, nil) })
}

// TestSamplerMidRunInstall: installing the sampler after time has advanced
// starts at the next boundary >= Now() (the SetSampler regression), not at
// boundary zero.
func TestSamplerMidRunInstall(t *testing.T) {
	s := New()
	s.At(250, func() {})
	if _, err := s.RunBudget(10); err != nil {
		t.Fatal(err)
	}
	var got []units.Time
	s.SetSampler(100, func(b units.Time) { got = append(got, b) })
	s.At(460, func() {})
	if _, err := s.RunBudget(10); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint([]units.Time{300, 400})
	if fmt.Sprint(got) != want {
		t.Fatalf("mid-run sampler boundaries %v, want %v", got, want)
	}
}

// TestSamplerInstallOnBoundary: a mid-run install with Now() exactly on a
// boundary must still sample that boundary (state at it is still current).
func TestSamplerInstallOnBoundary(t *testing.T) {
	s := New()
	s.At(200, func() {})
	if _, err := s.RunBudget(10); err != nil {
		t.Fatal(err)
	}
	var got []units.Time
	s.SetSampler(100, func(b units.Time) { got = append(got, b) })
	s.At(210, func() {})
	if _, err := s.RunBudget(10); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint([]units.Time{200}) {
		t.Fatalf("boundaries %v, want [200]", got)
	}
}
