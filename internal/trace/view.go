package trace

import "repro/internal/addr"

// U64 is a traced view of a uint64 array: a native Go slice paired with its
// simulated physical base address. Every Get/Set both touches the real data
// and reports the access to the thread's probe, so algorithm correctness
// and traffic accounting come from one code path.
//
// Views are values; Slice produces sub-views sharing the backing array,
// exactly like Go slices.
//
// Nil-probe contract: every operation in the view API — U64/I64 method or
// package-level Copy — accepts a nil *TP and then performs only the real
// data movement, recording nothing. This is "pure mode" (see TP): the same
// algorithm code runs instrumented or native depending solely on the probe
// it is handed, so none of these helpers may ever assume a non-nil probe.
// The probe methods themselves (Load, Store, Atomic) are nil-receiver-safe,
// which is the only thing the contract rests on; TestViewsNilProbe pins it.
type U64 struct {
	Base addr.Addr
	D    []uint64
}

// Len returns the number of elements.
func (v U64) Len() int { return len(v.D) }

// Get reads element i through probe t.
func (v U64) Get(t *TP, i int) uint64 {
	t.Load(v.Base+addr.Addr(i*8), 8)
	return v.D[i]
}

// Set writes element i through probe t.
func (v U64) Set(t *TP, i int, x uint64) {
	t.Store(v.Base+addr.Addr(i*8), 8)
	v.D[i] = x
}

// Slice returns the sub-view [lo, hi).
func (v U64) Slice(lo, hi int) U64 {
	return U64{Base: v.Base + addr.Addr(lo*8), D: v.D[lo:hi]}
}

// Copy copies src into dst through probe t, reporting the loads and stores.
// It panics if the lengths differ — a silent partial copy would corrupt an
// experiment. Like every view operation, a nil probe copies without
// recording.
func Copy(t *TP, dst, src U64) {
	if dst.Len() != src.Len() {
		panic("trace: Copy length mismatch")
	}
	t.Load(src.Base, 8*src.Len())
	t.Store(dst.Base, 8*dst.Len())
	copy(dst.D, src.D)
}

// I64 is a traced view of an int64 array, used for bucket metadata
// (BucketPos/BucketTot in the paper's Phase 1).
type I64 struct {
	Base addr.Addr
	D    []int64
}

// Len returns the number of elements.
func (v I64) Len() int { return len(v.D) }

// Get reads element i through probe t.
func (v I64) Get(t *TP, i int) int64 {
	t.Load(v.Base+addr.Addr(i*8), 8)
	return v.D[i]
}

// Set writes element i through probe t.
func (v I64) Set(t *TP, i int, x int64) {
	t.Store(v.Base+addr.Addr(i*8), 8)
	v.D[i] = x
}

// AtomicAdd performs a traced atomic add on element i. At record time the
// caller must guarantee real mutual exclusion (the algorithms only use this
// from barrier-separated single-writer phases or under static partitioning,
// so recorded values are deterministic).
func (v I64) AtomicAdd(t *TP, i int, delta int64) int64 {
	t.Atomic(v.Base + addr.Addr(i*8))
	v.D[i] += delta
	return v.D[i]
}

// Slice returns the sub-view [lo, hi).
func (v I64) Slice(lo, hi int) I64 {
	return I64{Base: v.Base + addr.Addr(lo*8), D: v.D[lo:hi]}
}

// CopyI64 copies src into dst through probe t, reporting the loads and
// stores. It panics if the lengths differ. Like every view operation, a
// nil probe copies without recording.
func CopyI64(t *TP, dst, src I64) {
	if dst.Len() != src.Len() {
		panic("trace: CopyI64 length mismatch")
	}
	t.Load(src.Base, 8*src.Len())
	t.Store(dst.Base, 8*dst.Len())
	copy(dst.D, src.D)
}
