package machine

import (
	"runtime"
	"testing"

	algo "repro/internal/core"
	"repro/internal/noc"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// Directed tests of the elision rules' tie handling. The differential in
// semantic_test.go reaches these ties only when two completions happen to
// share a picosecond; here they are constructed.

// slotCore returns a core of a fresh machine holding the given fills.
func slotCore(fills ...fillSlot) *core {
	m := New(TinyConfig(8, units.MiB))
	c := &core{m: m, fills: make([]fillSlot, 4)}
	c.runEv = c.run
	c.nfill = copy(c.fills, fills)
	return c
}

// TestRetireAtExecutingPosition: retirement is by position in the (at, seq)
// order, not by time. A fill landing in the executing picosecond but later
// in schedule order is still in flight; the fill *at* the executing
// position is the wake being run, which is retired but was not elided.
func TestRetireAtExecutingPosition(t *testing.T) {
	c := slotCore()
	sim := c.m.sim
	before := sim.Ticket() // #1
	var after uint64
	sim.At(100, func() { // #2
		c.retire()
		if c.nfill != 2 || c.fills[0] != (fillSlot{100, after}) || c.fills[1] != (fillSlot{200, 4}) {
			t.Errorf("at (100, #2): kept %v, want the fill at (100, #%d) and the one at 200", c.fills[:c.nfill], after)
		}
		if c.m.elided != 2 {
			t.Errorf("at (100, #2): %d elided, want the two fills already behind", c.m.elided)
		}
		c.park(c.earliest())
	})
	after = sim.Ticket() // #3
	sim.Ticket()         // #4
	c.nfill = copy(c.fills, []fillSlot{{100, before}, {100, after}, {50, 0}, {200, 4}})
	c.eos = true // the wake's run has nothing to replay; it only retires
	sim.Run()
	if sim.Executed() != 2 || sim.Seq() != after {
		t.Fatalf("ran %d events ending at #%d, want the wake at #%d second", sim.Executed(), sim.Seq(), after)
	}
	if c.nfill != 1 || c.fills[0].done != 200 {
		t.Errorf("after the wake: kept %v, want only the fill at 200", c.fills[:c.nfill])
	}
	if c.m.elided != 2 {
		t.Errorf("the wake's own fill was counted as elided: %d, want 2", c.m.elided)
	}
}

// TestEarliestLatestBreakTiesByTicket: equal completion times order by
// ticket, as the completion events themselves did.
func TestEarliestLatestBreakTiesByTicket(t *testing.T) {
	c := slotCore(fillSlot{100, 7}, fillSlot{100, 3}, fillSlot{90, 9}, fillSlot{100, 5})
	if got := c.earliest(); got != (fillSlot{90, 9}) {
		t.Errorf("earliest = %v, want the fill at 90", got)
	}
	if got := c.latest(); got != (fillSlot{100, 7}) {
		t.Errorf("latest = %v, want ticket 7 of the three at 100", got)
	}
	c.fills[2] = fillSlot{100, 1}
	if got := c.earliest(); got != (fillSlot{100, 1}) {
		t.Errorf("earliest = %v, want ticket 1 of the four at 100", got)
	}
}

// TestBlockedPastIsStrict: a gap is fused only when the awaited fill lands
// strictly after the gap ends. On equality the fill's completion came first
// in schedule order, so the op would not have blocked.
func TestBlockedPastIsStrict(t *testing.T) {
	read := trace.Op{Kind: trace.OpAccess}
	end := trace.Op{Kind: trace.OpEnd}
	full := []fillSlot{{30, 1}, {10, 2}, {20, 3}, {40, 4}}
	for _, tc := range []struct {
		name  string
		fills []fillSlot
		op    trace.Op
		gap   units.Time
		want  bool
		on    units.Time // done of the fill to park on, when fused
	}{
		{"read, slots full, earliest lands after the gap", full, read, 9, true, 10},
		{"read, slots full, earliest lands with the gap", full, read, 10, false, 0},
		{"read, a slot free", full[:3], read, 1, false, 0},
		{"write never blocks", full, trace.Op{Kind: trace.OpAccess, Write: true}, 1, false, 0},
		{"drain, latest lands after the gap", full, end, 39, true, 40},
		{"drain, latest lands with the gap", full, end, 40, false, 0},
		{"drain, one fill out is enough", full[:1], trace.Op{Kind: trace.OpBarrier}, 29, true, 30},
		{"atomic drains too", full[:2], trace.Op{Kind: trace.OpAtomic}, 5, true, 30},
		{"nothing outstanding", nil, end, 1, false, 0},
		{"DMA reaches shared state", full, trace.Op{Kind: trace.OpDMA}, 1, false, 0},
	} {
		c := slotCore(tc.fills...)
		f, ok := c.blockedPast(tc.op, tc.gap)
		if ok != tc.want || (ok && f.done != tc.on) {
			t.Errorf("%s: blockedPast = (%v, %v), want (%v, fill at %v)", tc.name, f, ok, tc.want, tc.on)
		}
	}
}

// TestReplayStaysInsideQueueReservation replays the two Table I recordings
// — scaled down, on the node shape Table I uses — and checks the event
// queue never had to grow: its capacity after the replay is exactly what
// ReplaySliced reserved before it. A core-model change that puts more
// events in flight per core must revisit queueReservation, not lean on the
// queue's amortized growth in the middle of a replay.
func TestReplayStaysInsideQueueReservation(t *testing.T) {
	if testing.Short() {
		t.Skip("records two sorts; skipped in -short")
	}
	const threads, n, sp = 64, 1 << 16, 512 * units.KiB
	sorts := map[string]func(*algo.Env, trace.U64){
		"GNU sort":   algo.GNUSort,
		"NMsort":     func(env *algo.Env, a trace.U64) { algo.NMSort(env, a, algo.NMOptions{}) },
		"NMsort+DMA": func(env *algo.Env, a trace.U64) { algo.NMSort(env, a, algo.NMOptions{DMA: true}) },
	}
	for _, name := range []string{"GNU sort", "NMsort", "NMsort+DMA"} {
		// The recording set-up of harness.Record, which this package cannot
		// import: a 2 KiB private L1 in front of 32 KiB shared L2s.
		rec := trace.NewRecorder(threads, trace.L1Geometry{Capacity: 2 * units.KiB, LineSize: 64, Ways: 2}, trace.DefaultCosts())
		env := algo.NewEnv(threads, sp, rec, 2015)
		a := env.AllocFar(n)
		workload.Fill(a.D, workload.Uniform, 2015)
		sorts[name](env, a)
		tr := rec.Finish(nil)

		for _, channels := range []int{8, 32} {
			cfg := PaperConfig(channels, sp)
			cfg.Cores = threads
			cfg.L2Capacity = 32 * units.KiB
			cfg.NoC = noc.Paper(threads / cfg.CoresPerGroup)
			m := New(cfg)
			if _, err := m.Replay(tr); err != nil {
				t.Fatalf("%s at %d near channels: %v", name, channels, err)
			}
			// The queue's capacity is want exactly when growing it to want
			// is free and growing it one further is not.
			want := queueReservation(threads, cfg.MaxOutstanding, tr.Ops())
			if allocates(func() { m.sim.Reserve(want) }) || !allocates(func() { m.sim.Reserve(want + 1) }) {
				t.Errorf("%s at %d near channels: event queue capacity is not its reservation of %d",
					name, channels, want)
			}
		}
	}
}

// allocates reports whether f allocates on the heap.
func allocates(f func()) bool {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs != before.Mallocs
}
