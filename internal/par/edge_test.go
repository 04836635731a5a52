package par

import (
	"sync"
	"testing"

	"repro/internal/trace"
)

// TestSpanEdgeCases pins the partition at the boundaries: fewer items
// than threads, empty input, a single thread, and uneven remainders.
func TestSpanEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		n, p int
		want [][2]int // per-tid [lo, hi)
	}{
		{"fewer items than threads", 3, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 3}, {3, 3}}},
		{"one item many threads", 1, 4, [][2]int{{0, 1}, {1, 1}, {1, 1}, {1, 1}}},
		{"empty input", 0, 3, [][2]int{{0, 0}, {0, 0}, {0, 0}}},
		{"single thread", 9, 1, [][2]int{{0, 9}}},
		{"even split", 8, 4, [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 8}}},
		{"remainder to low tids", 10, 4, [][2]int{{0, 3}, {3, 6}, {6, 8}, {8, 10}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for tid, want := range tc.want {
				lo, hi := Span(tc.n, tc.p, tid)
				if lo != want[0] || hi != want[1] {
					t.Errorf("Span(%d, %d, %d) = [%d, %d), want [%d, %d)",
						tc.n, tc.p, tid, lo, hi, want[0], want[1])
				}
			}
		})
	}
}

// TestSpanRemaindersSumToN sweeps uneven divisions and checks the shares
// tile [0, n) exactly, each within one item of n/p.
func TestSpanRemaindersSumToN(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 63, 64, 65, 1023} {
		for _, p := range []int{1, 2, 3, 7, 64, 100} {
			prevHi, total := 0, 0
			for tid := 0; tid < p; tid++ {
				lo, hi := Span(n, p, tid)
				if lo != prevHi || hi < lo {
					t.Fatalf("Span(%d, %d, %d) = [%d, %d), prev hi %d: not a tiling",
						n, p, tid, lo, hi, prevHi)
				}
				if sz := hi - lo; sz != n/p && sz != n/p+1 {
					t.Fatalf("Span(%d, %d, %d) share %d not within one of %d",
						n, p, tid, sz, n/p)
				}
				total += hi - lo
				prevHi = hi
			}
			if total != n || prevHi != n {
				t.Fatalf("Span(%d, %d, ·) shares sum to %d, end at %d", n, p, total, prevHi)
			}
		}
	}
}

// TestBarrierPoisonRacesWait drives poison concurrently with waiters mid
// Wait, repeatedly, so the race detector sees every interleaving class:
// poison before Wait, poison while blocked, poison after release. Every
// waiter must return (by panicking with the sentinel) — no deadlocks.
func TestBarrierPoisonRacesWait(t *testing.T) {
	const waiters = 8
	for round := 0; round < 50; round++ {
		b := NewBarrier(waiters + 1) // never completes: one participant poisons instead
		var wg sync.WaitGroup
		wg.Add(waiters + 1)
		for i := 0; i < waiters; i++ {
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r == nil {
						t.Error("waiter returned without poison panic")
					} else if _, ok := r.(poisonPanic); !ok {
						t.Errorf("waiter recovered %v, want poisonPanic", r)
					}
				}()
				b.Wait(nil)
			}()
		}
		go func() {
			defer wg.Done()
			b.poison()
		}()
		wg.Wait() // deadlock here means a waiter was never released
	}
}

// TestBarrierPoisonDuringCycles poisons while the barrier is mid-cycle
// under real Run scaffolding: every surviving thread must exit via the
// poison path and RunPoison must surface the root cause.
func TestBarrierPoisonDuringCycles(t *testing.T) {
	defer func() {
		if r := recover(); r != "late-root" {
			t.Fatalf("recovered %v, want late-root", r)
		}
	}()
	const p = 6
	b := NewBarrier(p)
	RunPoison(p, nil, b, func(tid int, tp *trace.TP) {
		for i := 0; i < 3; i++ {
			b.Wait(tp)
		}
		if tid == p-1 {
			panic("late-root")
		}
		b.Wait(tp) // never completes: tid p-1 is gone
	})
}
