package repro_test

// Allocation budget of the replay hot path. Machine construction allocates
// (cores, channels, the pre-sized event queue), but the steady state —
// schedule, dispatch, heap maintenance — must not: the event queue stores
// events unboxed, per-core callbacks are bound once at setup, and
// post-to-memory carriers recycle through a free list, fill slots are one
// slab. The budget here is amortized allocations per replayed trace op, so
// O(cores) setup noise vanishes into the millions of ops a replay consumes.
// (Per op, not per event: the kernel elides events, and a check that
// divided by them would loosen every time it elided more.)

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
)

// TestReplayAllocsPerEvent replays a recorded trace and asserts the
// amortized allocation rate. The bound of 0.01 allocs per trace op leaves
// room for setup (hundreds of allocations) against the ~10^5 ops of even
// this small workload while still failing if any per-event path regresses
// to boxing or closure capture.
func TestReplayAllocsPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("replay workload; skipped in -short")
	}
	w := goldenWorkload()
	rec, err := harness.Record(harness.AlgNMSort, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.NodeFor(w.Threads, 16, w.SP)
	res, err := machine.Run(cfg, rec.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 {
		t.Fatal("replay executed no events")
	}
	ops := rec.Trace.Ops()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := machine.Run(cfg, rec.Trace); err != nil {
			t.Fatal(err)
		}
	})
	perOp := allocs / float64(ops)
	t.Logf("replay: %.0f allocs over %d trace ops (%d events, %d elided) = %.5f allocs/op",
		allocs, ops, res.Events, res.Elided, perOp)
	if perOp > 0.01 {
		t.Errorf("replay allocates %.5f per trace op (%.0f over %d ops), want amortized ~0 (< 0.01)",
			perOp, allocs, ops)
	}
}
