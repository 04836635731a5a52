package core

import (
	"math"

	"repro/internal/addr"
	"repro/internal/par"
	"repro/internal/trace"
)

// ParScratchpadSort is the general parallel scratchpad sorting algorithm of
// Section IV-C, the one Theorem 10 analyzes: the sequential recursive
// sample sort of Section III with its two subroutines parallelized — groups
// are ingested into the scratchpad by all p threads cooperatively, and
// scratchpad-resident sorting uses the PEM-style parallel multiway
// mergesort (Theorem 8). Buckets still recurse until they fit the
// scratchpad.
//
// NMsort (Section IV-D) is the practical, nonrecursive restructuring of
// this algorithm; ParScratchpadSort exists to realize the analyzed
// algorithm exactly, including its recursion, for the model-validation
// experiments.
func ParScratchpadSort(e *Env, a trace.U64, opt SeqOptions) SeqStats {
	var st SeqStats
	n := a.Len()
	if n <= 1 {
		st.Depth = 1
		return st
	}

	m := opt.SampleSize
	if m == 0 {
		m = int(e.M / 64)
	}
	if m < 2 {
		m = 2
	}
	group := (e.SPElems() - 2*m) / 2
	if group < 2*e.P || group < 64 {
		panic("core: scratchpad too small for the parallel sort")
	}

	s := &parSorter{
		e:     e,
		bar:   par.NewBarrier(e.P),
		spA:   e.MustAllocSP(group),
		spB:   e.MustAllocSP(group),
		spX:   e.MustAllocSP(m),
		spXT:  e.MustAllocSP(m),
		far:   e.AllocFar(SampleLen(e.P)),
		farT:  e.AllocFar(SampleLen(e.P)),
		m:     m,
		group: group,
		st:    &st,
	}

	par.RunPoison(e.P, e.Rec, s.bar, func(tid int, tp *trace.TP) {
		s.sort(tid, tp, a, 1)
	})

	e.FreeSP(s.spA.Base)
	e.FreeSP(s.spB.Base)
	e.FreeSP(s.spX.Base)
	e.FreeSP(s.spXT.Base)
	return st
}

// parSorter carries the shared state of one ParScratchpadSort run. All p
// threads execute the same lockstep recursion; thread 0 publishes shared
// per-level decisions (sample, bucket layout) across barriers.
type parSorter struct {
	e         *Env
	bar       *par.Barrier
	spA, spB  trace.U64 // group ingest / sort buffers
	spX, spXT trace.U64 // resident sample + scratch
	far, farT trace.U64 // splitter-sample buffers for PMSort
	m, group  int
	st        *SeqStats
	rngStream uint64
	ps        *PMSort   // current in-scratchpad parallel sort
	shared    *parLevel // current level's shared bucket state
}

// parLevel is the shared state of one bucketizing level.
type parLevel struct {
	q       int       // distinct pivots
	buckets []growU64 // 2q+1 bucket regions
	bpos    []int     // per-group segment boundaries (2q+2 entries)
}

// spSortGroup runs the cooperative in-scratchpad sort of the current
// group, PMSort (the PEM sort of Theorem 8), and returns the view holding
// the sorted group.
func (s *parSorter) spSortGroup(tid int, tp *trace.TP, g int) trace.U64 {
	if tid == 0 {
		s.ps = NewPMSort(s.e.P, s.spA.Slice(0, g), s.spB.Slice(0, g),
			s.spB.Slice(0, g), s.far, s.farT, s.bar)
	}
	s.bar.Wait(tp)
	s.ps.Run(tid, tp)
	return s.spB.Slice(0, g)
}

// sort recursively sorts the far view a; all p threads call it in
// lockstep.
func (s *parSorter) sort(tid int, tp *trace.TP, a trace.U64, depth int) {
	n := a.Len()
	if tid == 0 && depth > s.st.Depth {
		s.st.Depth = depth
	}
	if n <= 1 {
		return
	}

	// Base case: ingest, sort cooperatively in the scratchpad, drain.
	if n <= s.group {
		lo, hi := par.Span(n, s.e.P, tid)
		trace.Copy(tp, s.spA.Slice(lo, hi), a.Slice(lo, hi))
		s.bar.Wait(tp)
		sorted := s.spSortGroup(tid, tp, n)
		trace.Copy(tp, a.Slice(lo, hi), sorted.Slice(lo, hi))
		s.bar.Wait(tp)
		return
	}

	// Sample selection (thread 0 draws; the sort is cooperative).
	if tid == 0 {
		s.st.Scans++
		s.rngStream++
		rng := s.e.RNG(s.rngStream)
		for i := 0; i < s.m; i++ {
			s.spX.Set(tp, i, a.Get(tp, rng.Intn(n)))
		}
		s.ps = NewPMSort(s.e.P, s.spX, s.spXT, s.spXT, s.far, s.farT, s.bar)
	}
	s.bar.Wait(tp)
	s.ps.Run(tid, tp)
	// Sorted sample now in spXT; thread 0 dedupes it back into spX and
	// lays out the 2q+1 buckets (three-way splits, as in the sequential
	// sort, so duplicate-heavy inputs always make progress).
	var lvl *parLevel
	if tid == 0 {
		q := 0
		for i := 0; i < s.m; i++ {
			v := s.spXT.Get(tp, i)
			tp.Compare(1)
			if q == 0 || v != s.spX.Get(tp, q-1) {
				s.spX.Set(tp, q, v)
				q++
			}
		}
		lvl = &parLevel{q: q, buckets: make([]growU64, 2*q+1), bpos: make([]int, 2*q+2)}
		for b := range lvl.buckets {
			lvl.buckets[b] = growU64{base: s.e.Far.Alloc(uint64(n)*8, 64)}
		}
		s.shared = lvl
	}
	s.bar.Wait(tp)
	lvl = s.shared

	// Bucketizing scan: all threads ingest and sort each group, extract
	// segment boundaries, and append their buckets' segments.
	for lo := 0; lo < n; lo += s.group {
		hi := lo + s.group
		if hi > n {
			hi = n
		}
		g := hi - lo
		glo, ghi := par.Span(g, s.e.P, tid)
		trace.Copy(tp, s.spA.Slice(glo, ghi), a.Slice(lo+glo, lo+ghi))
		s.bar.Wait(tp)
		sorted := s.spSortGroup(tid, tp, g)

		// Boundary extraction: bucket 2i = strictly below pivot i,
		// 2i+1 = equal to pivot i, 2q = above the last pivot. Thread t
		// computes the boundaries of its pivot span.
		pLo, pHi := par.Span(lvl.q, s.e.P, tid)
		for i := pLo; i < pHi; i++ {
			piv := s.spX.Get(tp, i)
			below := lowerBound(tp, sorted, piv)
			eq := below + upperBound(tp, sorted.Slice(below, g), piv)
			lvl.bpos[2*i+1] = below
			lvl.bpos[2*i+2] = eq
		}
		if tid == 0 {
			lvl.bpos[0] = 0
			lvl.bpos[2*lvl.q+1] = g
		}
		s.bar.Wait(tp)

		// Append: thread t owns a bucket span and copies its segments out
		// of the scratchpad (single writer per bucket, so the per-bucket
		// cursors need no atomics — a luxury NMsort's metadata design
		// also enjoys, unlike the scattered ablation).
		bLo, bHi := par.Span(2*lvl.q+1, s.e.P, tid)
		for b := bLo; b < bHi; b++ {
			seg := sorted.Slice(lvl.bpos[b], lvl.bpos[b+1])
			lvl.buckets[b].appendRange(tp, seg)
		}
		s.bar.Wait(tp)
	}

	// Split-quality accounting (Lemma 5), thread 0.
	if tid == 0 {
		goodLimit := int(math.Ceil(float64(n) / math.Sqrt(float64(s.m))))
		for b := range lvl.buckets {
			if len(lvl.buckets[b].d) <= goodLimit {
				s.st.GoodSplits++
			} else {
				s.st.BadSplits++
			}
		}
	}

	// Recurse into strict buckets in lockstep, then concatenate.
	off := 0
	for b := range lvl.buckets {
		bv := lvl.buckets[b].view()
		if b%2 == 0 {
			s.sort(tid, tp, bv, depth+1)
		}
		clo, chi := par.Span(bv.Len(), s.e.P, tid)
		trace.Copy(tp, a.Slice(off+clo, off+chi), bv.Slice(clo, chi))
		off += bv.Len()
	}
	s.bar.Wait(tp)
	if off != n {
		panic("core: parallel sort lost elements during bucketizing")
	}
}

// appendRange appends src's elements to the bucket with traced bulk
// accesses.
func (g *growU64) appendRange(tp *trace.TP, src trace.U64) {
	if src.Len() == 0 {
		return
	}
	base := g.base + addr.Addr(len(g.d)*8)
	if tp != nil {
		tp.Load(src.Base, 8*src.Len())
		tp.Store(base, 8*src.Len())
	}
	g.d = append(g.d, src.D...)
}
