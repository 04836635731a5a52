package core

import (
	"math"

	"repro/internal/addr"
	"repro/internal/trace"
)

// This file implements the sequential scratchpad sorting algorithm of
// Section III: recursively bucketize the input with a random
// scratchpad-resident sample X of m = Θ(M/B) pivots until every bucket fits
// in the scratchpad, then sort each bucket inside the scratchpad. It is the
// algorithm Theorem 6 analyzes; SeqStats captures the split-quality data
// behind Lemma 5's high-probability bound on the recursion depth.

// SeqStats instruments one SeqScratchpadSort run.
type SeqStats struct {
	Depth      int // deepest recursion level (1 = no bucketizing needed)
	Scans      int // bucketizing scans performed (Lemma 5 bounds these)
	GoodSplits int // child at most parent/sqrt(m) (Lemma 5's good splits)
	BadSplits  int // child larger than parent/sqrt(m)
}

// SeqOptions tunes the sequential sort.
type SeqOptions struct {
	// SampleSize overrides m = Θ(M/B) (0 = M/B exactly, the paper's
	// choice with B the 64-byte line).
	SampleSize int
}

// The Corollary 3 multiway mergesort inside the scratchpad starts from
// cache-resident runs of seqRunElems keys (roughly Z/2 for the scaled
// hierarchy) and merges seqFanout at a time. The theory's Z/B fanout needs
// exactly Z of cache for the cursors alone; a practical merge keeps fanout
// near Z/4B so cursor lines survive between touches.
const seqRunElems, seqFanout = 128, 8

// SeqScratchpadSort sorts a in place using one processor and the
// scratchpad. The environment's thread count must be 1: this is the
// Section III sequential algorithm (Section IV parallelizes it as NMsort).
func SeqScratchpadSort(e *Env, a trace.U64, opt SeqOptions) SeqStats {
	if e.P != 1 {
		panic("core: SeqScratchpadSort is the sequential algorithm; use Env with P=1")
	}
	var st SeqStats
	n := a.Len()
	if n <= 1 {
		st.Depth = 1
		return st
	}

	m := opt.SampleSize
	if m == 0 {
		m = int(e.M / 64) // m = M/B with the 64-byte line as B
	}
	if m < 2 {
		m = 2
	}

	// Scratchpad layout: a resident pivot area (m + scratch) plus two
	// group buffers for ingest/sort. The group size is what remains.
	group := (e.spElems() - 2*m) / 2
	if group < 2 {
		panic("core: scratchpad too small for the sequential sort")
	}
	spA := e.MustAllocSP(group)
	spB := e.MustAllocSP(group)
	spX := e.MustAllocSP(m)
	spXT := e.MustAllocSP(m)

	tp := e.Rec.Thread(0)
	s := &seqSorter{e: e, tp: tp, spA: spA, spB: spB, spX: spX, spXT: spXT,
		m: m, group: group, st: &st}
	s.sort(a, 1)

	e.FreeSP(spA.Base)
	e.FreeSP(spB.Base)
	e.FreeSP(spX.Base)
	e.FreeSP(spXT.Base)
	return st
}

type seqSorter struct {
	e         *Env
	tp        *trace.TP
	spA, spB  trace.U64
	spX, spXT trace.U64
	m, group  int
	st        *SeqStats
	rngStream uint64
}

// spSort sorts the scratchpad-resident view in with the Corollary 3
// multiway mergesort and returns the view holding the sorted data.
func (s *seqSorter) spSort(in trace.U64, tmp trace.U64) trace.U64 {
	return MultiwayMergeSort(s.tp, in, tmp, seqRunElems, seqFanout)
}

// sort recursively sorts the far-memory view a.
func (s *seqSorter) sort(a trace.U64, depth int) {
	if depth > s.st.Depth {
		s.st.Depth = depth
	}
	n := a.Len()
	if n <= 1 {
		return
	}

	// Base case: the bucket fits in a scratchpad group buffer — ingest,
	// sort inside the scratchpad, write back (Corollary 3).
	if n <= s.group {
		in := s.spA.Slice(0, n)
		trace.Copy(s.tp, in, a)
		sorted := s.spSort(in, s.spB.Slice(0, n))
		trace.Copy(s.tp, a, sorted)
		return
	}

	// Choose and sort the sample X in the scratchpad (Section III-A).
	s.st.Scans++
	s.rngStream++
	rng := s.e.rng(s.rngStream)
	for i := 0; i < s.m; i++ {
		s.spX.Set(s.tp, i, a.Get(s.tp, rng.Intn(n)))
	}
	pivotsV := s.spSort(s.spX, s.spXT)
	// Deduplicate the sorted sample in place. The paper assumes distinct
	// elements "but this assumption can be removed": we remove it with
	// three-way splits — each distinct pivot value also gets an
	// equal-to-pivot bucket that is sorted by construction and never
	// recursed, so duplicate-heavy inputs always make progress.
	q := 1
	for i := 1; i < s.m; i++ {
		v := pivotsV.Get(s.tp, i)
		s.tp.Compare(1)
		if v != pivotsV.Get(s.tp, q-1) {
			pivotsV.Set(s.tp, q, v)
			q++
		}
	}

	// Bucketizing scan (Section III-B): ingest groups, sort them against
	// the resident sample, and append each segment to its bucket's own
	// piece of DRAM. Bucket layout: 2i = keys strictly below pivot i (and
	// above pivot i-1), 2i+1 = keys equal to pivot i, 2q = keys above the
	// last pivot. Equal buckets are sorted by construction.
	nb := 2*q + 1
	buckets := make([]growU64, nb)
	for b := range buckets {
		// Address space is over-committed (far memory is arbitrarily
		// large in the model); native backing grows with actual content.
		buckets[b] = growU64{base: s.e.Far.Alloc(uint64(n)*8, 64)}
	}
	for lo := 0; lo < n; lo += s.group {
		hi := lo + s.group
		if hi > n {
			hi = n
		}
		g := hi - lo
		in := s.spA.Slice(0, g)
		trace.Copy(s.tp, in, a.Slice(lo, hi))
		sorted := s.spSort(in, s.spB.Slice(0, g))
		// Segment the sorted group by the pivots and append each segment
		// to its bucket.
		start := 0
		for i := 0; i < q; i++ {
			piv := pivotsV.Get(s.tp, i)
			below := start + lowerBound(s.tp, sorted.Slice(start, g), piv)
			for j := start; j < below; j++ {
				buckets[2*i].append(s.tp, sorted.Get(s.tp, j))
			}
			equal := below + upperBound(s.tp, sorted.Slice(below, g), piv)
			for j := below; j < equal; j++ {
				buckets[2*i+1].append(s.tp, sorted.Get(s.tp, j))
			}
			start = equal
		}
		for j := start; j < g; j++ {
			buckets[2*q].append(s.tp, sorted.Get(s.tp, j))
		}
	}

	// Split-quality accounting for Lemma 5: a good split shrinks the
	// bucket by at least a sqrt(m) factor.
	goodLimit := int(math.Ceil(float64(n) / math.Sqrt(float64(s.m))))
	for b := range buckets {
		if len(buckets[b].d) <= goodLimit {
			s.st.GoodSplits++
		} else {
			s.st.BadSplits++
		}
	}

	// Recurse into each strict bucket (equal-to-pivot buckets are already
	// sorted), then concatenate back into a.
	off := 0
	for b := range buckets {
		bv := buckets[b].view()
		if b%2 == 0 { // strict bucket
			s.sort(bv, depth+1)
		}
		trace.Copy(s.tp, a.Slice(off, off+bv.Len()), bv)
		off += bv.Len()
	}
	if off != n {
		panic("core: sequential sort lost elements during bucketizing")
	}
}

// growU64 is an append-only traced array: a bucket's "separate piece of
// DRAM memory" whose eventual size is unknown when writing begins.
type growU64 struct {
	base addr.Addr
	d    []uint64
}

func (g *growU64) append(tp *trace.TP, v uint64) {
	tp.Store(g.base+addr.Addr(len(g.d)*8), 8)
	g.d = append(g.d, v)
}

func (g *growU64) view() trace.U64 {
	return trace.U64{Base: g.base, D: g.d}
}
