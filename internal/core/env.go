// Package core implements the paper's algorithmic contribution: sorting for
// the two-level main memory. It contains
//
//   - the sequential recursive scratchpad sample sort of Section III
//     (random pivots, bucketizing scans, recursion until buckets fit the
//     scratchpad),
//   - NMsort, the practical two-phase multithreaded near-memory sort of
//     Section IV-D (chunk sorting with BucketPos/BucketTot metadata, then
//     batched bucket merging),
//   - the baseline the paper benchmarks against: a GNU-parallel-style
//     multiway mergesort that uses only far memory, and
//   - the shared primitives both need: cache-friendly mergesort, traced
//     quicksort (Corollary 7's in-scratchpad alternative), loser-tree
//     multiway merge, sample-based splitter selection, and multithreaded
//     bucket-boundary extraction.
//
// Every algorithm runs natively on Go slices while reporting its memory
// behaviour through trace probes (see internal/trace), so one code path
// serves correctness tests, native benchmarks, block-transfer counting
// against the model, and full machine simulation.
package core

import (
	"repro/internal/addr"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/xrand"
)

// Env carries the resources an algorithm run needs: the thread count, the
// optional recorder (nil = pure mode), the far-memory arena, and the
// scratchpad allocator of capacity M.
type Env struct {
	P    int               // logical threads (simulated cores)
	Rec  *trace.Recorder   // nil for pure (untraced) execution
	Seed uint64            // RNG seed for pivot sampling
	M    units.Bytes       // scratchpad capacity
	Far  *addr.Arena       // far-memory address arena
	SP   *addr.SPAllocator // scratchpad allocator (the paper's modified malloc)
}

// NewEnv builds an environment with a scratchpad of capacity m.
func NewEnv(p int, m units.Bytes, rec *trace.Recorder, seed uint64) *Env {
	if p <= 0 {
		panic("core: need at least one thread")
	}
	if rec != nil && rec.Threads() < p {
		panic("core: recorder has fewer threads than Env.P")
	}
	return &Env{
		P:    p,
		Rec:  rec,
		Seed: seed,
		M:    m,
		Far:  addr.NewFarArena(),
		SP:   addr.NewSPAllocator(uint64(m)),
	}
}

// AllocFar allocates an n-element array in far memory.
func (e *Env) AllocFar(n int) trace.U64 {
	base := e.Far.Alloc(uint64(n)*8, 64)
	return trace.U64{Base: base, D: make([]uint64, n)}
}

// allocFarI64 allocates an n-element metadata array in far memory.
func (e *Env) allocFarI64(n int) trace.I64 {
	base := e.Far.Alloc(uint64(n)*8, 64)
	return trace.I64{Base: base, D: make([]int64, n)}
}

// AllocSP allocates an n-element array in the scratchpad, reporting whether
// the scratchpad had room.
func (e *Env) AllocSP(n int) (trace.U64, bool) {
	base, ok := e.SP.SPMalloc(uint64(n) * 8)
	if !ok {
		return trace.U64{}, false
	}
	return trace.U64{Base: base, D: make([]uint64, n)}, true
}

// MustAllocSP allocates an n-element scratchpad array, panicking on
// exhaustion — used where the algorithm has already sized its working set
// to fit.
func (e *Env) MustAllocSP(n int) trace.U64 {
	v, ok := e.AllocSP(n)
	if !ok {
		panic("core: scratchpad exhausted; working set was mis-sized")
	}
	return v
}

// mustAllocSPI64 allocates an n-element scratchpad metadata array.
func (e *Env) mustAllocSPI64(n int) trace.I64 {
	base, ok := e.SP.SPMalloc(uint64(n) * 8)
	if !ok {
		panic("core: scratchpad exhausted; working set was mis-sized")
	}
	return trace.I64{Base: base, D: make([]int64, n)}
}

// FreeSP releases a scratchpad allocation.
func (e *Env) FreeSP(base addr.Addr) { e.SP.SPFree(base) }

// rng returns a deterministic generator derived from the environment seed
// and a stream id.
func (e *Env) rng(stream uint64) *xrand.RNG {
	return xrand.New(e.Seed*0x9e3779b97f4a7c15 + stream + 1)
}

// spElems returns how many uint64 elements the scratchpad can hold.
func (e *Env) spElems() int { return int(e.M / 8) }
