package machine

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/units"
)

// TestWatchdogCatchesDroppedCompletion is the acceptance test for the
// stall detector under ticketed fill retirement. No completion event exists
// to drop any more; the bug class is now a core that blocks on a fill
// without redeeming its ticket, or one that finishes its stream with a fill
// nobody waited for. Either must surface as a StallError naming that core,
// not as a silently short SimTime.
func TestWatchdogCatchesDroppedCompletion(t *testing.T) {
	for _, tc := range []struct {
		name string
		// bug runs inside the event that issued the fill, in place of the
		// correct park/drain.
		bug func(c *core)
	}{
		{"parked core whose wake was never pushed", func(c *core) {
			// Bug under test: no c.park(c.earliest()) here. The clock is held
			// out past the fill, so the only thing still owed is the stream
			// that nothing will ever resume.
			c.m.sim.Extend(c.fills[0].done)
		}},
		{"fill past the drained clock", func(c *core) {
			// Bug under test: the stream retires without draining, so the
			// queue empties at t=0 with the fill still due.
			c.done = true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(TinyConfig(8, units.MiB))
			tr := record(1, func(tid int, tp *trace.TP) {
				tp.Load(addr.FarBase, 8)
			})
			m.barrier = &barrierCtl{need: 1}
			c := &core{m: m, id: 5, group: 1, cur: tr.CursorAt(0), period: m.cfg.CoreHz.Period(),
				fills: make([]fillSlot, m.cfg.MaxOutstanding)}
			c.eos = !c.cur.Next()
			m.cores = []*core{c}
			m.watch()

			// Issue the fill by hand exactly as core.run does, then misbehave.
			m.sim.At(0, func() {
				done := m.fill(c.group, addr.FarBase)
				c.fills[0] = fillSlot{done: done, ticket: m.sim.Ticket()}
				c.nfill = 1
				tc.bug(c)
			})
			_, err := m.sim.RunBudget(EventBound(tr), 0, nil)
			var st *engine.StallError
			if !errors.As(err, &st) {
				t.Fatalf("RunBudget = %v, want StallError", err)
			}
			var hit bool
			for _, s := range st.Stalls {
				if s.Component == "core[5]" {
					hit = true
					if s.Outstanding != 1 {
						t.Errorf("core[5] stall reports %d outstanding, want exactly the one thing owed", s.Outstanding)
					}
				}
			}
			if !hit {
				t.Fatalf("StallError does not name the stalled core: %v", st)
			}
			if !strings.Contains(st.Error(), "core[5]") {
				t.Fatalf("Error() = %q, want core[5] named", st.Error())
			}
		})
	}
}

// TestWatchdogQuietOnCleanReplay confirms a complete replay reports no
// stalls: every watcher drains below its horizon.
func TestWatchdogQuietOnCleanReplay(t *testing.T) {
	tr := record(2, func(tid int, tp *trace.TP) {
		for i := 0; i < 64; i++ {
			if i%3 == 0 {
				tp.Store(addr.FarBase+addr.Addr(4096*i+64*tid), 8)
			} else {
				tp.Load(addr.FarBase+addr.Addr(4096*i+64*tid), 8)
			}
		}
		tp.Barrier()
	})
	if _, err := Run(TinyConfig(8, units.MiB), tr); err != nil {
		t.Fatalf("clean replay: %v", err)
	}
}

// TestReplayBudgetError confirms Config.MaxEvents aborts a replay with a
// BudgetError carrying the budget, that the default budget passes, and that
// the budget counts executed events only: a replay fits in exactly
// Result.Events, however many more it elided.
func TestReplayBudgetError(t *testing.T) {
	tr := record(2, func(tid int, tp *trace.TP) {
		for i := 0; i < 256; i++ {
			tp.Load(addr.FarBase+addr.Addr(4096*i+64*tid), 8)
		}
	})
	cfg := TinyConfig(8, units.MiB)
	cfg.MaxEvents = 10
	_, err := Run(cfg, tr)
	var be *engine.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("Run with MaxEvents=10 = %v, want BudgetError", err)
	}
	if be.MaxEvents != 10 {
		t.Fatalf("budget error carries %d, want 10", be.MaxEvents)
	}

	cfg.MaxEvents = 0 // EventBound(tr)
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatalf("Run with default budget: %v", err)
	}
	if res.Elided == 0 {
		t.Fatal("512 fills elided nothing; the exact-budget check below would prove nothing")
	}
	cfg.MaxEvents = res.Events
	if _, err := Run(cfg, tr); err != nil {
		t.Fatalf("Run with a budget of exactly its %d events (+%d elided): %v", res.Events, res.Elided, err)
	}
	cfg.MaxEvents = res.Events - 1
	if _, err := Run(cfg, tr); !errors.As(err, &be) {
		t.Fatalf("Run one event short of its %d = %v, want BudgetError", res.Events, err)
	}
}

// TestReplayMemFaultOutcome drives the far memory at a brutal error rate
// with a stuck-fault fraction of one, so uncorrectable errors exhaust
// their retries: Replay must complete, return the full result, and surface
// the machine-level fault as a MemFaultError.
func TestReplayMemFaultOutcome(t *testing.T) {
	tr := record(2, func(tid int, tp *trace.TP) {
		for i := 0; i < 512; i++ {
			tp.Load(addr.FarBase+addr.Addr(4096*i+64*tid), 8)
		}
	})
	cfg := TinyConfig(8, units.MiB)
	cfg.Fault = fault.Config{
		Seed:              12345,
		BitErrorRate:      0.5,
		UncorrectableFrac: 1,
		StuckFrac:         1, // every uncorrectable error defeats its retries
		CorrectLatency:    20 * units.Nanosecond,
		RetryBackoff:      100 * units.Nanosecond,
		MaxRetries:        2,
	}
	res, err := Run(cfg, tr)
	var mf *fault.MemFaultError
	if !errors.As(err, &mf) {
		t.Fatalf("Run = %v, want MemFaultError", err)
	}
	if mf.Count == 0 || res.Faults.MemFaults != mf.Count {
		t.Fatalf("MemFaultError count %d vs result %d", mf.Count, res.Faults.MemFaults)
	}
	if res.SimTime == 0 || res.FarAccesses == 0 {
		t.Fatalf("result alongside MemFaultError is empty: %+v", res)
	}
	if mf.First.At == 0 {
		t.Fatalf("first fault has no timestamp: %+v", mf.First)
	}

	// The same replay with the fault layer disabled must be strictly
	// faster: retries and backoff only ever add occupancy.
	cfg.Fault = fault.Config{}
	clean, err := Run(cfg, tr)
	if err != nil {
		t.Fatalf("clean replay: %v", err)
	}
	if clean.SimTime >= res.SimTime {
		t.Fatalf("faulted replay (%v) not slower than clean (%v)", res.SimTime, clean.SimTime)
	}
}
