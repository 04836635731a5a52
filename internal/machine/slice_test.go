package machine

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/xrand"
)

// denseTestTrace builds a dense multi-threaded trace with every op kind —
// fills, posted writes, atomics, barriers, DMA with and without waits —
// so a sliced replay is interrupted inside every kind of in-flight work:
// barrier wakes, DMA completions, posted-write drains.
func denseTestTrace(t *testing.T, seed uint64, ops, threads int) *trace.Trace {
	t.Helper()
	r := xrand.New(seed)
	raw := make([]uint32, ops)
	for i := range raw {
		raw[i] = uint32(r.Uint64())
	}
	tr := randomTrace(raw, threads, true)
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	return tr
}

// TestReplaySlicedMatchesReplay: a replay paused every `slice` executed
// events must produce a Result equal in every field to an unpaused Replay,
// and pause once per slice boundary it crosses with events still queued.
// This is the machine-level guarantee the harness supervisor's
// cancellation polling stands on.
func TestReplaySlicedMatchesReplay(t *testing.T) {
	tr := denseTestTrace(t, 21, 4000, 8)
	cfg := TinyConfig(8, 2*units.MiB)
	ref, err := New(cfg).Replay(tr)
	if err != nil {
		t.Fatalf("reference replay: %v", err)
	}
	for _, slice := range []uint64{1, 97, 4096} {
		pauses := 0
		res, err := New(cfg).ReplaySliced(tr, slice, func() error {
			pauses++
			return nil
		})
		if err != nil {
			t.Fatalf("slice %d: %v", slice, err)
		}
		if want := (ref.Events - 1) / slice; uint64(pauses) != want || want == 0 {
			t.Fatalf("slice %d: %d pauses over %d events, want %d (and at least one)", slice, pauses, ref.Events, want)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("slice %d: result diverged\n got %+v\nwant %+v", slice, res, ref)
		}
	}
}

// TestReplaySlicedBudgetError: when the total budget exhausts across
// slices, the returned error must be indistinguishable from the one an
// unsliced Replay produces — same MaxEvents, last-event time, and pending
// count — so supervised and plain sweeps classify runaways identically.
func TestReplaySlicedBudgetError(t *testing.T) {
	tr := denseTestTrace(t, 9, 2000, 8)
	cfg := TinyConfig(8, 2*units.MiB)
	cfg.MaxEvents = 500
	_, refErr := New(cfg).Replay(tr)
	var refBE *engine.BudgetError
	if !errors.As(refErr, &refBE) {
		t.Fatalf("reference error %v, want BudgetError", refErr)
	}
	for _, slice := range []uint64{7, 100, 499, 500, 1000} {
		_, err := New(cfg).ReplaySliced(tr, slice, func() error { return nil })
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("slice %d: budget error %q, want %q", slice, err, refErr)
		}
	}
}

// TestReplaySlicedPauseAbandons: a pause error abandons the replay — the
// error comes back verbatim (errors.Is-reachable) with the partial result.
func TestReplaySlicedPauseAbandons(t *testing.T) {
	tr := denseTestTrace(t, 3, 2000, 8)
	cause := errors.New("deadline exceeded")
	calls := 0
	res, err := New(TinyConfig(8, 2*units.MiB)).ReplaySliced(tr, 50, func() error {
		calls++
		if calls == 3 {
			return cause
		}
		return nil
	})
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the pause error", err)
	}
	if calls != 3 {
		t.Fatalf("pause ran %d times after returning an error, want exactly 3", calls)
	}
	if res.Events != 3*50 {
		t.Fatalf("partial result carries %d executed events, want the 150 before the third pause", res.Events)
	}
}
