// Package par provides the multi-threaded execution scaffolding the
// algorithms run on at record time: a fork-join runner that gives each
// logical thread its own probe, a reusable cyclic barrier that pairs real
// synchronization with the recorded barrier markers, and static range
// partitioning helpers.
//
// The simulated machine may have far more cores (256) than the host; each
// logical thread is a goroutine, and determinism comes from static work
// partitioning plus barrier-separated phases, never from timing.
package par

import (
	"sync"

	"repro/internal/trace"
)

// Barrier is a reusable cyclic barrier for p participants that also emits
// the trace marker: Wait(tp) records trace.OpBarrier in tp's stream and
// then blocks until all p threads arrive. Replay re-synchronizes the
// simulated cores at exactly these points.
//
// A panicking participant must poison the barrier (Run's body wrapper in
// the algorithms does this) so the surviving threads fail fast instead of
// deadlocking.
type Barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	p        int
	count    int
	gen      uint64
	poisoned bool
}

// poisonPanic is the value re-raised in threads released by poison. Run
// prefers reporting any other panic over this sentinel.
type poisonPanic struct{}

func (poisonPanic) String() string { return "par: barrier poisoned by a concurrent panic" }

// NewBarrier returns a barrier for p participants.
func NewBarrier(p int) *Barrier {
	if p <= 0 {
		panic("par: barrier needs at least one participant")
	}
	b := &Barrier{p: p}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait records the barrier marker on tp (which may be nil in pure mode)
// and blocks until all participants have called Wait, or panics if the
// barrier has been poisoned.
func (b *Barrier) Wait(tp *trace.TP) {
	tp.Barrier()
	b.mu.Lock()
	if b.poisoned {
		b.mu.Unlock()
		panic(poisonPanic{})
	}
	gen := b.gen
	b.count++
	if b.count == b.p {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen && !b.poisoned {
			b.cond.Wait()
		}
	}
	poisoned := b.poisoned
	b.mu.Unlock()
	if poisoned {
		panic(poisonPanic{})
	}
}

// poison permanently releases all current and future waiters with a panic.
// Called from a deferred recover when a participant fails.
func (b *Barrier) poison() {
	b.mu.Lock()
	b.poisoned = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Run forks p goroutines executing body(tid, probe) and joins them. rec may
// be nil: every probe is then nil and the algorithms run pure. Panics in a
// body are re-raised on the calling goroutine so test failures surface;
// when several threads panicked (e.g. one root cause plus barrier-poison
// cascades), the first root cause wins.
func Run(p int, rec *trace.Recorder, body func(tid int, tp *trace.TP)) {
	RunPoison(p, rec, nil, body)
}

// Each forks n goroutines executing body(i) and joins them: Run without
// probes, in the shape trace.ForkJoin takes (trace cannot import this
// package, so its per-thread seal and validation walks are handed this).
func Each(n int, body func(i int)) {
	Run(n, nil, func(i int, _ *trace.TP) { body(i) })
}

// RunPoison is Run with barrier-poisoning: if any thread panics, bar (when
// non-nil) is poisoned so siblings blocked on it fail fast instead of
// deadlocking the join.
func RunPoison(p int, rec *trace.Recorder, bar *Barrier, body func(tid int, tp *trace.TP)) {
	if p <= 0 {
		panic("par: need at least one thread")
	}
	var wg sync.WaitGroup
	panics := make([]any, p)
	wg.Add(p)
	for i := 0; i < p; i++ {
		go func(tid int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[tid] = r
					if bar != nil {
						bar.poison()
					}
				}
			}()
			body(tid, rec.Thread(tid))
		}(i)
	}
	wg.Wait()
	var poison any
	for _, pv := range panics {
		if pv == nil {
			continue
		}
		if _, isPoison := pv.(poisonPanic); isPoison {
			poison = pv
			continue
		}
		panic(pv)
	}
	if poison != nil {
		panic(poison)
	}
}

// Span returns the half-open range [lo, hi) of items that thread tid of p
// owns when n items are divided as evenly as possible (the first n%p
// threads get one extra). Static partitioning keeps recorded traces
// deterministic under any goroutine interleaving.
func Span(n, p, tid int) (lo, hi int) {
	q, r := n/p, n%p
	lo = tid*q + min(tid, r)
	hi = lo + q
	if tid < r {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
