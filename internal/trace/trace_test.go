package trace

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/units"
)

func tinyL1() L1Geometry {
	return L1Geometry{Capacity: 256, LineSize: 64, Ways: 2} // 4 lines
}

// paperL1 is the paper's per-core 16KB 2-way data cache.
var paperL1 = L1Geometry{Capacity: 16 * units.KiB, LineSize: 64, Ways: 2}

// decoded returns tr with Streams populated: a recording is sealed columns,
// and tests that inspect ops by index read them through this.
func decoded(t testing.TB, tr *Trace) *Trace {
	t.Helper()
	dec, err := tr.Columns().Decode()
	if err != nil {
		t.Fatalf("Decoded: %v", err)
	}
	return dec
}

// stream returns thread tid's ops.
func stream(t testing.TB, tr *Trace, tid int) []Op {
	t.Helper()
	return decoded(t, tr).Streams[tid]
}

// sameOps reports the first difference between two traces' op streams.
func sameOps(t testing.TB, got, want *Trace) error {
	t.Helper()
	got, want = decoded(t, got), decoded(t, want)
	if len(got.Streams) != len(want.Streams) {
		return fmt.Errorf("streams: %d vs %d", len(got.Streams), len(want.Streams))
	}
	for tid := range want.Streams {
		if len(got.Streams[tid]) != len(want.Streams[tid]) {
			return fmt.Errorf("thread %d: %d ops vs %d", tid, len(got.Streams[tid]), len(want.Streams[tid]))
		}
		for i := range want.Streams[tid] {
			if got.Streams[tid][i] != want.Streams[tid][i] {
				return fmt.Errorf("thread %d op %d: %+v vs %+v", tid, i, got.Streams[tid][i], want.Streams[tid][i])
			}
		}
	}
	return nil
}

func TestNilProbeIsNoop(t *testing.T) {
	var tp *TP
	// None of these may panic or record anything.
	tp.Load(addr.FarBase, 8)
	tp.Store(addr.FarBase, 8)
	tp.Compute(10)
	tp.Compare(3)
	tp.Atomic(addr.FarBase)
	tp.Barrier()
	tp.DMA(addr.FarBase, addr.NearBase, 64)
	tp.DMAWait()
}

func TestL1FilterHitsProduceNoOps(t *testing.T) {
	r := NewRecorder(1, tinyL1(), DefaultCosts())
	tp := r.Thread(0)
	tp.Load(addr.FarBase, 8)   // miss: one fill op
	tp.Load(addr.FarBase+8, 8) // same line: hit, no op
	tp.Load(addr.FarBase+16, 8)
	tr := r.Finish(nil)
	var fills int
	for _, op := range stream(t, tr, 0) {
		if op.Kind == OpAccess && !op.Write {
			fills++
		}
	}
	if fills != 1 {
		t.Errorf("fills = %d, want 1 (L1 should absorb same-line accesses)", fills)
	}
}

func TestGapAccounting(t *testing.T) {
	c := DefaultCosts()
	r := NewRecorder(1, tinyL1(), c)
	tp := r.Thread(0)
	tp.Compute(100)
	tp.Load(addr.FarBase, 8) // miss
	tr := r.Finish(nil)
	op := stream(t, tr, 0)[0]
	if op.Kind != OpAccess || op.Write {
		t.Fatalf("first op = %+v", op)
	}
	if want := uint32(100 + c.IssueCycles); op.Gap != want {
		t.Errorf("gap = %d, want %d", op.Gap, want)
	}
}

func TestHitLatencyFoldsIntoGap(t *testing.T) {
	c := DefaultCosts()
	r := NewRecorder(1, tinyL1(), c)
	tp := r.Thread(0)
	tp.Load(addr.FarBase, 8)   // miss (gap flushed into it)
	tp.Load(addr.FarBase+8, 8) // hit: issue+hit cycles pend
	tp.Load(addr.FarBase+64, 8)
	tr := r.Finish(nil)
	second := stream(t, tr, 0)[1]
	if want := uint32(c.IssueCycles + c.L1HitCycles + c.IssueCycles); second.Gap != want {
		t.Errorf("gap = %d, want %d", second.Gap, want)
	}
}

func TestDirtyEvictionEmitsWriteback(t *testing.T) {
	r := NewRecorder(1, tinyL1(), DefaultCosts())
	tp := r.Thread(0)
	tp.Store(addr.FarBase, 8) // dirty line in set 0
	// Evict it: tiny L1 has 2 sets of 2 ways; lines 128B apart share a set.
	tp.Load(addr.FarBase+128, 8)
	tp.Load(addr.FarBase+256, 8) // evicts the dirty line
	tr := r.Finish(nil)
	var wbs int
	for _, op := range stream(t, tr, 0) {
		if op.Kind == OpAccess && op.Write && op.Addr == uint64(addr.FarBase) {
			wbs++
		}
	}
	if wbs != 1 {
		t.Errorf("writebacks of dirty line = %d, want 1", wbs)
	}
}

func TestFinishFlushesDirtyLines(t *testing.T) {
	r := NewRecorder(1, tinyL1(), DefaultCosts())
	tp := r.Thread(0)
	tp.Store(addr.NearBase, 8)
	tr := r.Finish(nil)
	c := tr.Count()
	if c.NearWrites != 1 {
		t.Errorf("NearWrites = %d, want 1 (final flush)", c.NearWrites)
	}
	last := stream(t, tr, 0)[len(stream(t, tr, 0))-1]
	if last.Kind != OpEnd {
		t.Errorf("stream must end with OpEnd, got %+v", last)
	}
}

func TestFinishTwicePanics(t *testing.T) {
	r := NewRecorder(1, tinyL1(), DefaultCosts())
	r.Finish(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Finish(nil)
}

func TestMultiLineAccess(t *testing.T) {
	r := NewRecorder(1, tinyL1(), DefaultCosts())
	tp := r.Thread(0)
	tp.Load(addr.FarBase+60, 16) // straddles two lines
	tr := r.Finish(nil)
	var fills int
	for _, op := range stream(t, tr, 0) {
		if op.Kind == OpAccess && !op.Write {
			fills++
		}
	}
	if fills != 2 {
		t.Errorf("fills = %d, want 2 for straddling access", fills)
	}
}

func TestCountByLevel(t *testing.T) {
	r := NewRecorder(2, tinyL1(), DefaultCosts())
	r.Thread(0).Load(addr.FarBase, 8)
	r.Thread(0).Store(addr.NearBase, 8)
	r.Thread(1).Load(addr.NearBase+4096, 8)
	r.Thread(1).Atomic(addr.FarBase + 4096)
	tr := r.Finish(nil)
	c := tr.Count()
	// Thread 0's store misses write-allocate (one near fill) and the dirty
	// line flushes at Finish (one near writeback); thread 1 adds a near
	// fill. Hence 2 near reads + 1 near write.
	if c.FarReads != 1 || c.NearReads != 2 || c.NearWrites != 1 || c.Atomics != 1 {
		t.Errorf("counts = %+v", c)
	}
	if c.Far() != 1 || c.Near() != 3 {
		t.Errorf("totals: far=%d near=%d", c.Far(), c.Near())
	}
}

func TestValidateCatchesBarrierMismatch(t *testing.T) {
	r := NewRecorder(2, tinyL1(), DefaultCosts())
	r.Thread(0).Barrier()
	tr := r.Finish(nil)
	if err := tr.Validate(); err == nil {
		t.Error("expected barrier-mismatch error")
	}
}

func TestValidateAcceptsBalancedTrace(t *testing.T) {
	r := NewRecorder(3, tinyL1(), DefaultCosts())
	for i := 0; i < 3; i++ {
		tp := r.Thread(i)
		tp.Load(addr.FarBase+addr.Addr(i*4096), 8)
		tp.Barrier()
		tp.Store(addr.NearBase+addr.Addr(i*4096), 8)
		tp.Barrier()
	}
	tr := r.Finish(nil)
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if tr.Ops() == 0 {
		t.Error("Ops = 0")
	}
}

func TestAtomicEmitsEveryTime(t *testing.T) {
	r := NewRecorder(1, tinyL1(), DefaultCosts())
	tp := r.Thread(0)
	for i := 0; i < 5; i++ {
		tp.Atomic(addr.FarBase)
	}
	tr := r.Finish(nil)
	if c := tr.Count(); c.Atomics != 5 {
		t.Errorf("atomics = %d, want 5 (atomics bypass the L1 filter)", c.Atomics)
	}
}

func TestDMARecorded(t *testing.T) {
	r := NewRecorder(1, tinyL1(), DefaultCosts())
	tp := r.Thread(0)
	tp.DMA(addr.FarBase, addr.NearBase, 4096)
	tp.DMAWait()
	tr := r.Finish(nil)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if stream(t, tr, 0)[0].Kind != OpDMA || stream(t, tr, 0)[1].Kind != OpDMAWait {
		t.Errorf("stream = %+v", stream(t, tr, 0)[:2])
	}
}

func TestViewGetSet(t *testing.T) {
	r := NewRecorder(1, tinyL1(), DefaultCosts())
	tp := r.Thread(0)
	v := U64{Base: addr.FarBase, D: make([]uint64, 16)}
	v.Set(tp, 3, 42)
	if got := v.Get(tp, 3); got != 42 {
		t.Errorf("Get = %d", got)
	}
	sub := v.Slice(2, 6)
	if sub.Len() != 4 {
		t.Errorf("sub len = %d", sub.Len())
	}
	if got := sub.Get(tp, 1); got != 42 {
		t.Errorf("sub.Get(1) = %d, want 42 (aliasing)", got)
	}
	if sub.Base+8 != v.Base+3*8 {
		t.Error("sub-view addresses misaligned")
	}
}

func TestViewCopy(t *testing.T) {
	src := U64{Base: addr.FarBase, D: []uint64{1, 2, 3}}
	dst := U64{Base: addr.NearBase, D: make([]uint64, 3)}
	r := NewRecorder(1, tinyL1(), DefaultCosts())
	Copy(r.Thread(0), dst, src)
	if dst.D[2] != 3 {
		t.Error("Copy did not copy data")
	}
	tr := r.Finish(nil)
	c := tr.Count()
	if c.FarReads == 0 || c.NearWrites == 0 {
		t.Errorf("Copy traffic not recorded: %+v", c)
	}
}

func TestViewCopyMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Copy(nil, U64{D: make([]uint64, 2)}, U64{D: make([]uint64, 3)})
}

func TestI64View(t *testing.T) {
	r := NewRecorder(1, tinyL1(), DefaultCosts())
	tp := r.Thread(0)
	v := I64{Base: addr.NearBase, D: make([]int64, 8)}
	v.Set(tp, 0, -5)
	if v.Get(tp, 0) != -5 {
		t.Error("I64 get/set broken")
	}
	if got := v.AtomicAdd(tp, 0, 7); got != 2 {
		t.Errorf("AtomicAdd = %d, want 2", got)
	}
	s := v.Slice(0, 2)
	if s.Len() != 2 || s.Get(tp, 0) != 2 {
		t.Error("I64 slice broken")
	}
}

func TestGapOverflowSplits(t *testing.T) {
	r := NewRecorder(1, tinyL1(), DefaultCosts())
	tp := r.Thread(0)
	tp.Compute(5_000_000_000) // exceeds uint32
	tp.Load(addr.FarBase, 8)
	tr := r.Finish(nil)
	var total uint64
	for _, op := range stream(t, tr, 0) {
		total += uint64(op.Gap)
	}
	if want := uint64(5_000_000_000 + 1); total != want {
		t.Errorf("total gap = %d, want %d", total, want)
	}
	if stream(t, tr, 0)[0].Kind != OpGap {
		t.Errorf("expected leading OpGap, got %+v", stream(t, tr, 0)[0])
	}
}

// TestL1GeometryValidate: each way an L1 filter cannot be built is an error
// that names the type and carries cachesim's reason, and NewRecorder panics
// with that text instead of dying nameless inside cachesim.New.
func TestL1GeometryValidate(t *testing.T) {
	if err := paperL1.Validate(); err != nil {
		t.Errorf("DefaultL1 rejected: %v", err)
	}
	for _, tc := range []struct {
		g    L1Geometry
		want string
	}{
		{L1Geometry{}, "non-positive geometry"},
		{L1Geometry{Capacity: 2 * units.KiB, LineSize: 64, Ways: 32}, "at most 16"},
		{L1Geometry{Capacity: 2 * units.KiB, LineSize: 48, Ways: 2}, "line size 48"},
		{L1Geometry{Capacity: 2 * units.KiB, LineSize: 64, Ways: 3}, "not divisible"},
		{L1Geometry{Capacity: 3 * units.KiB, LineSize: 64, Ways: 2}, "power of two"},
	} {
		err := tc.g.Validate()
		if err == nil {
			t.Errorf("%+v: accepted", tc.g)
			continue
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "trace: L1Geometry ") || !strings.Contains(msg, tc.want) {
			t.Errorf("%+v: error %q, want the type named and %q", tc.g, msg, tc.want)
		}
		func() {
			defer func() {
				if r := recover(); r != err.Error() {
					t.Errorf("%+v: NewRecorder panicked with %v, want %q", tc.g, r, err)
				}
			}()
			NewRecorder(1, tc.g, DefaultCosts())
		}()
	}
}

// TestViewsNilProbe pins the uniform nil-probe contract documented on the
// view API: every U64/I64 operation and both package-level copies accept a
// nil *TP, perform the real data movement, and record nothing.
func TestViewsNilProbe(t *testing.T) {
	u := U64{Base: addr.FarBase, D: make([]uint64, 8)}
	u.Set(nil, 2, 99)
	if u.Get(nil, 2) != 99 {
		t.Error("U64 Set/Get with nil probe lost data")
	}
	if u.Slice(1, 4).Get(nil, 1) != 99 {
		t.Error("U64 Slice+Get with nil probe lost aliasing")
	}
	dst := U64{Base: addr.NearBase, D: make([]uint64, 8)}
	Copy(nil, dst, u)
	if dst.D[2] != 99 {
		t.Error("Copy with nil probe did not move data")
	}

	v := I64{Base: addr.NearBase, D: make([]int64, 8)}
	v.Set(nil, 0, -3)
	if v.Get(nil, 0) != -3 {
		t.Error("I64 Set/Get with nil probe lost data")
	}
	if got := v.AtomicAdd(nil, 0, 5); got != 2 {
		t.Errorf("I64 AtomicAdd with nil probe = %d, want 2", got)
	}
	idst := I64{Base: addr.FarBase, D: make([]int64, 8)}
	CopyI64(nil, idst, v)
	if idst.D[0] != 2 {
		t.Error("CopyI64 with nil probe did not move data")
	}
}
