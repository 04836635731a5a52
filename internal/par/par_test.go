package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/trace"
	"repro/internal/units"
)

func TestRunExecutesAllThreads(t *testing.T) {
	var count int64
	Run(16, nil, func(tid int, tp *trace.TP) {
		if tp != nil {
			t.Error("nil recorder should yield nil probes")
		}
		atomic.AddInt64(&count, 1)
	})
	if count != 16 {
		t.Errorf("ran %d threads, want 16", count)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	Run(4, nil, func(tid int, tp *trace.TP) {
		if tid == 2 {
			panic("boom")
		}
	})
}

func TestRunWithRecorder(t *testing.T) {
	rec := trace.NewRecorder(4, trace.L1Geometry{Capacity: 256, LineSize: 64, Ways: 2}, trace.DefaultCosts())
	Run(4, rec, func(tid int, tp *trace.TP) {
		if tp == nil || tp != rec.Thread(tid) {
			t.Errorf("thread %d got wrong probe", tid)
		}
	})
}

func TestBarrierPhases(t *testing.T) {
	const p = 8
	b := NewBarrier(p)
	var phase [p]int32
	Run(p, nil, func(tid int, tp *trace.TP) {
		for ph := 0; ph < 5; ph++ {
			atomic.StoreInt32(&phase[tid], int32(ph))
			b.Wait(tp)
			// After the barrier, every thread must be in this phase or later.
			for i := 0; i < p; i++ {
				if got := atomic.LoadInt32(&phase[i]); got < int32(ph) {
					t.Errorf("thread %d at phase %d while %d passed barrier %d", i, got, tid, ph)
				}
			}
			b.Wait(tp)
		}
	})
}

func TestBarrierRecordsMarkers(t *testing.T) {
	rec := trace.NewRecorder(3, trace.L1Geometry{Capacity: 256, LineSize: 64, Ways: 2}, trace.DefaultCosts())
	b := NewBarrier(3)
	Run(3, rec, func(tid int, tp *trace.TP) {
		b.Wait(tp)
		b.Wait(tp)
	})
	tr := rec.Finish(nil)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBarrierSingleParticipant(t *testing.T) {
	b := NewBarrier(1)
	done := false
	Run(1, nil, func(tid int, tp *trace.TP) {
		b.Wait(tp)
		done = true
	})
	if !done {
		t.Error("single-participant barrier must not block")
	}
}

func TestNewBarrierPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBarrier(0)
}

func TestSpanCoversExactly(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw % 10000)
		p := int(pRaw%64) + 1
		covered := 0
		prevHi := 0
		for tid := 0; tid < p; tid++ {
			lo, hi := Span(n, p, tid)
			if lo != prevHi {
				return false // gaps or overlaps
			}
			if hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpanBalanced(t *testing.T) {
	// No thread's share may exceed another's by more than one item.
	n, p := 1000, 7
	min, max := n, 0
	for tid := 0; tid < p; tid++ {
		lo, hi := Span(n, p, tid)
		if sz := hi - lo; sz < min {
			min = sz
		} else if sz > max {
			max = sz
		}
	}
	if max-min > 1 {
		t.Errorf("imbalance: min=%d max=%d", min, max)
	}
}

func TestSpanEmptyInput(t *testing.T) {
	for tid := 0; tid < 4; tid++ {
		lo, hi := Span(0, 4, tid)
		if lo != hi {
			t.Errorf("thread %d got non-empty span of empty input", tid)
		}
	}
}

var _ = units.KiB // keep units import for geometry literals above

func TestBarrierPoisonReleasesWaiters(t *testing.T) {
	// One thread panics before its barrier; the others must fail fast via
	// the poison rather than deadlock, and Run must re-raise the root
	// cause, not the poison sentinel.
	defer func() {
		if r := recover(); r != "root-cause" {
			t.Fatalf("recovered %v, want root-cause", r)
		}
	}()
	b := NewBarrier(4)
	RunPoison(4, nil, b, func(tid int, tp *trace.TP) {
		if tid == 0 {
			panic("root-cause")
		}
		b.Wait(tp)
	})
}

func TestBarrierPoisonedStaysPoisoned(t *testing.T) {
	b := NewBarrier(2)
	b.Poison()
	defer func() {
		if recover() == nil {
			t.Fatal("Wait on poisoned barrier must panic")
		}
	}()
	b.Wait(nil)
}

func TestRunPoisonNilBarrier(t *testing.T) {
	// RunPoison with a nil barrier degrades to plain Run semantics. Each
	// thread writes only its own slot — the join makes the writes visible.
	var ran [3]bool
	RunPoison(3, nil, nil, func(tid int, tp *trace.TP) { ran[tid] = true })
	for tid, ok := range ran {
		if !ok {
			t.Errorf("thread %d did not run", tid)
		}
	}
}
