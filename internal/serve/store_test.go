package serve_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/addr"
	"repro/internal/harness"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/units"
)

// paperL1 is the paper's per-core 16KB 2-way data cache.
var paperL1 = trace.L1Geometry{Capacity: 16 * units.KiB, LineSize: 64, Ways: 2}

// storeTrace records a distinct small trace: 64 far loads at addresses
// offset by stamp, so each stamp yields a different digest but (within a
// varint byte or two) the same footprint — its sealed image, see traceSize.
func storeTrace(t *testing.T, stamp int) *trace.Trace { return farLoads(t, stamp, 64) }

// farLoads records n far loads at addresses offset by stamp.
func farLoads(t *testing.T, stamp, n int) *trace.Trace {
	t.Helper()
	rec := trace.NewRecorder(1, paperL1, trace.DefaultCosts())
	tp := rec.Thread(0)
	for i := 0; i < n; i++ {
		tp.Load(addr.FarBase+addr.Addr(stamp*64+i)*4096, 8)
	}
	tp.Barrier()
	return rec.Finish()
}

// traceSize is what the store charges one storeTrace: a recording is sealed
// columns, charged its image size, not 32 bytes per op.
func traceSize(t *testing.T) int64 {
	t.Helper()
	s := serve.NewStore(1 << 30)
	if _, err := s.Put(storeTrace(t, 0).Columns()); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() == 0 {
		t.Fatal("a sealed recording was charged 0 bytes: it could never be evicted")
	}
	return s.Bytes()
}

// TestStoreLRUEviction fills a tiny store past its budget and checks the
// oldest unpinned trace is evicted while newer ones survive.
func TestStoreLRUEviction(t *testing.T) {
	size := traceSize(t)
	s := serve.NewStore(2*size + size/2) // room for two
	var digests []uint64
	for i := 0; i < 3; i++ {
		d, err := s.Put(storeTrace(t, i).Columns())
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	if s.Len() != 2 {
		t.Fatalf("store holds %d traces, want 2 after eviction", s.Len())
	}
	if _, _, err := s.Pin(digests[0]); !errors.Is(err, serve.ErrTraceNotFound) {
		t.Fatalf("oldest trace survived eviction: Pin err = %v", err)
	}
	if _, release, err := s.Pin(digests[2]); err != nil {
		t.Fatalf("newest trace was evicted: %v", err)
	} else {
		release()
	}
}

// TestStorePinBlocksEviction pins a trace, overflows the budget, and
// checks the pinned trace survives until release — and so does the trace
// put over the budget, which is never its own eviction victim.
func TestStorePinBlocksEviction(t *testing.T) {
	size := traceSize(t)
	s := serve.NewStore(size + size/2) // room for one trace
	d0, err := s.Put(storeTrace(t, 0).Columns())
	if err != nil {
		t.Fatal(err)
	}
	_, release, err := s.Pin(d0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(storeTrace(t, 1).Columns()); err != nil {
		t.Fatal(err)
	}
	// Two traces were put: the pinned one and the one just put hold both
	// places.
	if s.Len() != 2 {
		t.Fatalf("store holds %d traces: the pinned trace or the one just put was evicted", s.Len())
	}
	release()
	// Releasing converges the store back under budget.
	if s.Bytes() > size+size/2 {
		t.Fatalf("store did not converge after release: %d bytes", s.Bytes())
	}
	// Double release is a no-op.
	release()
}

// TestStoreRefusesATraceOverItsBudget: a trace larger than the whole budget
// is refused before anything is evicted — an upload with a typed error and
// a 507 naming -store-mb, a recording by storing nothing and, over HTTP, by
// the same 507 — and what was resident stays resident.
func TestStoreRefusesATraceOverItsBudget(t *testing.T) {
	size := traceSize(t)
	budget := size + size/2 // room for one small trace
	c := newTestServer(t, serve.Config{StoreBytes: budget})
	ctx := context.Background()
	small, err := c.UploadTrace(ctx, storeTrace(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	big := farLoads(t, 1, 256)
	s := serve.NewStore(budget)
	if _, err := s.Put(big.Columns()); !errors.Is(err, serve.ErrTraceTooLarge) {
		t.Errorf("Put of a trace over the budget: err = %v, want ErrTraceTooLarge", err)
	}
	if _, err := c.UploadTrace(ctx, big); err == nil || !strings.Contains(err.Error(), "507") || !strings.Contains(err.Error(), "-store-mb") {
		t.Errorf("upload of a trace over the budget: err = %v, want a 507 naming -store-mb", err)
	}
	w := harness.Workload{N: 1, Seed: 1, Threads: 1, SP: 1}
	s.CompleteRecord(harness.AlgGNUSort, w, harness.RecordResult{Trace: big})
	if _, ok := s.LookupRecord(harness.AlgGNUSort, w); ok {
		t.Error("a recording over the budget was indexed")
	}
	// Recorded over HTTP, the same refusal is the answer, not a digest the
	// store does not hold.
	rec := serve.RecordRequest{Alg: "gnusort", N: 1024, Seed: 1, Threads: 4, SPMiB: 1}
	if info, err := c.Record(ctx, rec); err == nil || !strings.Contains(err.Error(), "507") || !strings.Contains(err.Error(), "-store-mb") {
		t.Errorf("recording over the budget: %+v, err = %v; want a 507 naming -store-mb", info, err)
	}
	if st := stats(t, c); st.Traces != 1 || st.TraceBytes > budget {
		t.Errorf("the store holds %d traces, %d bytes; want the small one alone", st.Traces, st.TraceBytes)
	}
	if _, _, _, err := c.SubmitJob(ctx, serve.JobRequest{TraceDigest: small.Digest, Cores: 4, NearChannels: 8, SPMiB: 1}); err != nil {
		t.Errorf("the resident trace no longer answers a job: %v", err)
	}
}

// TestStoreRecordIndexConcurrent: recordings completed, looked up and evicted
// from several goroutines at once leave an index that names resident traces
// only, and every hit is the trace completed under its key.
func TestStoreRecordIndexConcurrent(t *testing.T) {
	size := traceSize(t)
	s := serve.NewStore(2*size + size/2) // room for two
	const n = 8
	traces := make([]*trace.Trace, n)
	digests := make([]uint64, n)
	for i := range traces {
		traces[i] = storeTrace(t, i)
		var err error
		if digests[i], err = traces[i].Digest(); err != nil {
			t.Fatal(err)
		}
	}
	key := func(i int) harness.Workload { return harness.Workload{N: i, Seed: 1, Threads: 1, SP: 1} }
	lookup := func(i int) bool {
		res, ok := s.LookupRecord(harness.AlgGNUSort, key(i))
		if ok {
			if d, err := res.Trace.Digest(); err != nil || d != digests[i] {
				t.Errorf("key %d answered digest %016x (err %v), completed %016x", i, d, err, digests[i])
			}
		}
		return ok
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				s.CompleteRecord(harness.AlgGNUSort, key(i), harness.RecordResult{Trace: traces[i]})
				lookup((i + round) % n)
			}
		}()
	}
	wg.Wait()
	hits := 0
	for i := 0; i < n; i++ {
		if lookup(i) {
			hits++
		}
	}
	if hits == 0 || hits != s.Len() {
		t.Errorf("%d recordings answer from a store of %d traces, each completed as one", hits, s.Len())
	}
}

// TestStorePinMissing checks pinning an absent digest fails cleanly.
func TestStorePinMissing(t *testing.T) {
	s := serve.NewStore(0)
	if _, _, err := s.Pin(42); !errors.Is(err, serve.ErrTraceNotFound) {
		t.Fatalf("Pin(missing) = %v, want ErrTraceNotFound", err)
	}
}

// TestGateBackpressure pins the 429 contract: workers+queue admissions,
// then ErrBusy immediately (no blocking).
func TestGateBackpressure(t *testing.T) {
	g := serve.NewGate(1, 1)
	ctx := context.Background()
	rel1, err := g.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Second acquisition is admitted but would block on the run slot;
	// use a cancelled context to observe admission without blocking.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := g.Acquire(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued acquire = %v, want context.Canceled", err)
	}
	// The cancelled waiter released its admission; fill queue then overflow.
	done := make(chan struct{})
	go func() {
		defer close(done)
		rel2, err := g.Acquire(ctx) // takes the queue slot, blocks for the run slot
		if err != nil {
			t.Errorf("queued acquire: %v", err)
			return
		}
		rel2()
	}()
	// Busy-wait until the goroutine is admitted (queue occupied).
	for g.Admitted() < 2 {
	}
	if _, err := g.Acquire(ctx); !errors.Is(err, serve.ErrBusy) {
		t.Fatalf("overflow acquire = %v, want ErrBusy", err)
	}
	rel1() // hands the run slot to the waiter
	<-done
	rel3, err := g.Acquire(ctx)
	if err != nil {
		t.Fatalf("post-drain acquire = %v", err)
	}
	rel3()
}
