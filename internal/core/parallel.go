package core

import (
	"repro/internal/par"
	"repro/internal/trace"
)

// samplesPerRun is the maximum splitter-sampling rate of the parallel
// multiway merge: each sorted run contributes up to this many evenly
// spaced samples, and the p-quantiles of the sorted sample become the
// merge splitters. The GNU parallel sort the paper benchmarks uses the
// same sampling strategy in its default configuration. The actual rate
// adapts down for short runs (see samplesFor) so the serial sample sort
// never dominates.
const samplesPerRun = 32

// SampleLen returns the sample-buffer length pmMerge may need for k runs.
func SampleLen(k int) int { return k * samplesPerRun }

// samplesFor picks the per-run sampling rate for runs averaging avgLen
// elements: enough samples for balanced splitting, few enough that thread
// 0's serial sample sort stays negligible.
func samplesFor(avgLen int) int {
	s := avgLen / 64
	if s < 4 {
		s = 4
	}
	if s > samplesPerRun {
		s = samplesPerRun
	}
	return s
}

// splitMode selects how pmMerge derives its part boundaries.
type splitMode uint8

const (
	splitSampled splitMode = iota // sample runs, sort, take quantiles (GNU default)
	splitPreset                   // caller supplies splitter values
	splitExact                    // exact multisequence selection (GNU exact mode)
)

// pmMerge is one cooperative parallel multiway merge: p threads merge k
// sorted runs into dst along sampled splitters, each thread producing a
// disjoint contiguous part of the output. It is used by the GNU-style
// baseline (merging p far-memory runs), by NMsort's in-scratchpad chunk
// sort, and by NMsort's Phase 2 bucket-batch merges.
//
// All p threads must call run(tid, tp) exactly once; pmMerge synchronizes
// on the barrier it was given.
type pmMerge struct {
	p         int
	spr       int // samples per run (sampled mode)
	mode      splitMode
	runs      []trace.U64
	dst       trace.U64
	sample    trace.U64
	sampleTmp trace.U64
	bar       *par.Barrier

	splitters []uint64
	cuts      [][]int
}

// newPMMerge prepares a merge of runs into dst (len = total run length).
// sample and sampleTmp must each hold SampleLen(len(runs)) elements, placed
// in whatever memory level the splitter work should be charged to. bar must
// be a barrier shared by exactly the p participating threads.
func newPMMerge(p int, runs []trace.U64, dst, sample, sampleTmp trace.U64, bar *par.Barrier) *pmMerge {
	total := 0
	for _, r := range runs {
		total += r.Len()
	}
	if dst.Len() != total {
		panic("core: PMMerge destination length mismatch")
	}
	spr := samplesFor(total / max(len(runs), 1))
	if want := len(runs) * spr; sample.Len() < want || sampleTmp.Len() < want {
		panic("core: PMMerge sample buffers too small")
	}
	return &pmMerge{
		p:         p,
		spr:       spr,
		runs:      runs,
		dst:       dst,
		sample:    sample.Slice(0, len(runs)*spr),
		sampleTmp: sampleTmp.Slice(0, len(runs)*spr),
		bar:       bar,
		splitters: make([]uint64, p-1),
		cuts:      make([][]int, p+1),
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// newPMMergePresplit prepares a merge whose p-1 splitter values are already
// known (non-decreasing). NMsort uses this for every chunk sort and batch
// merge: its globally sampled bucket pivots double as merge splitters, so
// the per-merge sampling phases — and in particular thread 0's serial
// sample sort, which otherwise throttles scaling exactly like the GNU
// baseline's — disappear entirely.
func newPMMergePresplit(p int, runs []trace.U64, dst trace.U64, splitters []uint64, bar *par.Barrier) *pmMerge {
	total := 0
	for _, r := range runs {
		total += r.Len()
	}
	if dst.Len() != total {
		panic("core: PMMerge destination length mismatch")
	}
	if len(splitters) != p-1 {
		panic("core: PMMergePresplit needs exactly p-1 splitters")
	}
	for i := 1; i < len(splitters); i++ {
		if splitters[i] < splitters[i-1] {
			panic("core: PMMergePresplit splitters must be non-decreasing")
		}
	}
	return &pmMerge{
		p:         p,
		mode:      splitPreset,
		runs:      runs,
		dst:       dst,
		bar:       bar,
		splitters: splitters,
		cuts:      make([][]int, p+1),
	}
}

// newPMMergeExact prepares a merge using exact multisequence selection:
// every part receives exactly its fair share of elements (±1) regardless
// of key skew, at the price of the selection's O(k·log(maxlen)) probes per
// part boundary. This is GNU parallel mode's exact splitting.
func newPMMergeExact(p int, runs []trace.U64, dst trace.U64, bar *par.Barrier) *pmMerge {
	total := 0
	for _, r := range runs {
		total += r.Len()
	}
	if dst.Len() != total {
		panic("core: PMMerge destination length mismatch")
	}
	return &pmMerge{
		p:    p,
		mode: splitExact,
		runs: runs,
		dst:  dst,
		bar:  bar,
		cuts: make([][]int, p+1),
	}
}

// run executes thread tid's share of the merge.
func (m *pmMerge) run(tid int, tp *trace.TP) {
	if m.mode == splitSampled {
		// Phase B: sample the runs; run r is sampled by thread r%p.
		for r := tid; r < len(m.runs); r += m.p {
			sampleRun(tp, m.runs[r], m.sample.Slice(r*m.spr, (r+1)*m.spr), m.spr)
		}
		m.bar.Wait(tp)

		// Phase C: thread 0 sorts the sample and publishes splitters.
		if tid == 0 {
			mergeSortInPlace(tp, m.sample, m.sampleTmp)
			total := m.sample.Len()
			for t := 1; t < m.p; t++ {
				m.splitters[t-1] = m.sample.Get(tp, t*total/m.p)
			}
		}
		m.bar.Wait(tp)
	}

	// Phase D: each thread computes its own cut row; thread 0 also fills
	// the trivial first and last rows.
	row := make([]int, len(m.runs))
	if tid > 0 {
		if m.mode == splitExact {
			total := 0
			for _, run := range m.runs {
				total += run.Len()
			}
			row = exactSelect(tp, m.runs, tid*total/m.p)
		} else {
			for r, run := range m.runs {
				row[r] = lowerBound(tp, run, m.splitters[tid-1])
			}
		}
	}
	m.cuts[tid] = row
	if tid == 0 {
		last := make([]int, len(m.runs))
		for r, run := range m.runs {
			last[r] = run.Len()
		}
		m.cuts[m.p] = last
	}
	m.bar.Wait(tp)

	// Phase E: merge my part into my disjoint slice of dst. The output
	// offset of part t equals the number of elements cut before it, which
	// is the sum of row t.
	off := 0
	for _, c := range m.cuts[tid] {
		off += c
	}
	want := partLen(m.cuts, tid)
	if want > 0 {
		parts := partRuns(m.runs, m.cuts, tid)
		multiwayMerge(tp, parts, m.dst.Slice(off, off+want))
	}
	m.bar.Wait(tp)
}

// PMSort is one parallel multiway mergesort: p threads each sort a static
// span of Src into a run, then cooperatively merge the runs into Dst. It is
// the engine of both the paper's baseline (operating entirely in far
// memory) and NMsort's in-scratchpad chunk sort — the difference is only
// where the caller allocates the buffers.
//
// Dst may alias Tmp: the run-formation scratch is dead by merge time.
// All p threads must call Run(tid, tp); PMSort barriers internally. After
// the last thread returns, Dst holds the sorted data and Src/Tmp are
// clobbered.
type PMSort struct {
	p         int
	src, dst  trace.U64
	tmp       trace.U64
	sample    trace.U64
	sampleTmp trace.U64
	splitters []uint64 // non-nil: skip sampling, use these (presplit)
	exact     bool     // use exact multisequence selection for the merge
	phases    bool     // thread 0 emits trace phase markers (top-level sorts)

	bar  *par.Barrier
	runs []trace.U64
	mg   *pmMerge
}

// NewPMSort prepares a sort of src into dst. tmp must match src's length;
// sample and sampleTmp must each hold SampleLen(p) elements (unused when
// p == 1, in which case zero-length views are fine). bar must be a barrier
// shared by exactly the p participating threads (sharing one barrier per
// parallel region lets a failing thread poison every rendezvous at once).
func NewPMSort(p int, src, dst, tmp, sample, sampleTmp trace.U64, bar *par.Barrier) *PMSort {
	n := src.Len()
	if dst.Len() != n || tmp.Len() != n {
		panic("core: PMSort buffer length mismatch")
	}
	if p > 1 && (sample.Len() < SampleLen(p) || sampleTmp.Len() < SampleLen(p)) {
		panic("core: PMSort sample buffers must hold SampleLen(p) elements")
	}
	return &PMSort{
		p:         p,
		src:       src,
		dst:       dst,
		tmp:       tmp,
		sample:    sample,
		sampleTmp: sampleTmp,
		bar:       bar,
		runs:      make([]trace.U64, p),
	}
}

// Run executes thread tid's share. Every participating thread must call it
// exactly once.
func (s *PMSort) Run(tid int, tp *trace.TP) {
	n := s.src.Len()
	if s.phases && tid == 0 {
		tp.Phase("sort-runs")
	}
	if s.p == 1 {
		mergeSortInto(tp, s.dst, s.src, s.tmp)
		return
	}

	// Phase A: sort my span in place; it becomes run tid.
	lo, hi := par.Span(n, s.p, tid)
	mine := s.src.Slice(lo, hi)
	mergeSortInPlace(tp, mine, s.tmp.Slice(lo, hi))
	s.runs[tid] = mine
	s.bar.Wait(tp)

	if tid == 0 {
		if s.phases {
			tp.Phase("merge-runs")
		}
		switch {
		case s.splitters != nil:
			s.mg = newPMMergePresplit(s.p, s.runs, s.dst, s.splitters, s.bar)
		case s.exact:
			s.mg = newPMMergeExact(s.p, s.runs, s.dst, s.bar)
		default:
			s.mg = newPMMerge(s.p, s.runs, s.dst, s.sample, s.sampleTmp, s.bar)
		}
	}
	s.bar.Wait(tp)
	s.mg.run(tid, tp)
}

// newPMSortPresplit prepares a sort whose merge splitters are already
// known; no sample buffers are required.
func newPMSortPresplit(p int, src, dst, tmp trace.U64, splitters []uint64, bar *par.Barrier) *PMSort {
	n := src.Len()
	if dst.Len() != n || tmp.Len() != n {
		panic("core: PMSort buffer length mismatch")
	}
	if p > 1 && len(splitters) != p-1 {
		panic("core: PMSortPresplit needs exactly p-1 splitters")
	}
	return &PMSort{
		p:         p,
		src:       src,
		dst:       dst,
		tmp:       tmp,
		splitters: splitters,
		bar:       bar,
		runs:      make([]trace.U64, p),
	}
}
