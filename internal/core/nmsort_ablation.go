package core

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/trace"
)

// NMSortSmallAppends is the ablation of Section IV-D's key innovation
// (experiment A1 in DESIGN.md): the bucket-scattering implementation the
// paper abandoned — "Empirically, the number of elements destined for any
// given bucket might be small, so these appends can be inefficient ...
// Without this innovation, we were unable to exploit the scratchpad
// effectively."
//
// Phase 1 sorts each chunk in the scratchpad exactly as NMSort does, but
// then physically appends every bucket's segment to that bucket's own
// region of far memory, paying an atomic cursor reservation plus a small,
// typically line-misaligned write per (chunk, bucket) pair. Phase 2 merges
// each bucket's per-chunk fragments individually, one bucket per thread at
// a time, without scratchpad batching.
//
// The result is correct; the point is the cost difference against NMSort's
// metadata-batched design under identical machine configurations.
func NMSortSmallAppends(e *Env, a trace.U64, opt NMOptions) NMStats {
	n := a.Len()
	if n <= 1 {
		return NMStats{N: n, Chunks: 1}
	}
	opt.DMA = false // the scattered variant predates the DMA extension
	pl := planNM(e, n, opt)

	// Each bucket gets its own region of far memory, over-provisioned by a
	// skew factor: the scattering design must guess capacities up front
	// (another of its practical problems; NMSort needs no such guess).
	const skew = 4
	bucketCap := skew*(n/pl.buckets) + 64
	areas := make([]trace.U64, pl.buckets)
	for b := range areas {
		areas[b] = e.AllocFar(bucketCap)
	}
	// Per-bucket write cursors live in far memory and are bumped with
	// traced atomics — the synchronization the paper's design implies.
	cursors := e.allocFarI64(pl.buckets)
	// fragLen[ci*buckets+b] is chunk ci's contribution to bucket b
	// (derived bookkeeping; the real system would store it in DRAM too).
	fragLen := make([]int64, pl.chunks*pl.buckets)

	spIn := e.MustAllocSP(pl.chunkElems)
	spOut := e.MustAllocSP(pl.chunkElems)
	pivots := e.MustAllocSP(pl.buckets - 1)
	bpos := e.mustAllocSPI64(pl.buckets + 1)
	sample := e.AllocFar(pl.sampleElems)
	sampleTmp := e.AllocFar(pl.sampleElems)

	st := NMStats{
		N:          n,
		Chunks:     pl.chunks,
		ChunkElems: pl.chunkElems,
		Buckets:    pl.buckets,
		// The scattered design's "metadata" is its cursor array plus the
		// address-space overprovisioning; report the cursors.
		MetadataBytes: int64(cursors.Len()) * 8,
	}

	bar := par.NewBarrier(e.P)
	var ps *PMSort
	var chunkSplits []uint64
	var outOff []int64 // per-bucket output offsets (prefix sums), by thread 0

	par.RunPoison(e.P, e.Rec, bar, func(tid int, tp *trace.TP) {
		// Pivot selection, identical to NMSort's.
		ns := pl.pivotSample
		if tid == 0 {
			rng := e.rng(0)
			for i := 0; i < ns; i++ {
				spIn.Set(tp, i, a.Get(tp, rng.Intn(n)))
			}
			ps = NewPMSort(e.P, spIn.Slice(0, ns), spOut.Slice(0, ns),
				spOut.Slice(0, ns), sample, sampleTmp, bar)
		}
		bar.Wait(tp)
		ps.Run(tid, tp)
		if tid == 0 {
			for j := 1; j < pl.buckets; j++ {
				pivots.Set(tp, j-1, spOut.Get(tp, j*ns/pl.buckets))
			}
			for b := 0; b < pl.buckets; b++ {
				cursors.Set(tp, b, 0)
			}
			chunkSplits = pivotSplitters(tp, pivots, e.P, 0, pl.buckets)
		}
		bar.Wait(tp)

		// Phase 1: sort each chunk in the scratchpad, then scatter its
		// bucket segments with per-bucket atomic appends.
		for ci := 0; ci < pl.chunks; ci++ {
			cLen := pl.chunkLen(n, ci)
			chunk := a.Slice(ci*pl.chunkElems, ci*pl.chunkElems+cLen)
			lo, hi := par.Span(cLen, e.P, tid)
			trace.Copy(tp, spIn.Slice(lo, hi), chunk.Slice(lo, hi))
			bar.Wait(tp)

			if tid == 0 {
				ps = newPMSortPresplit(e.P, spIn.Slice(0, cLen), spOut.Slice(0, cLen),
					spOut.Slice(0, cLen), chunkSplits, bar)
			}
			bar.Wait(tp)
			ps.Run(tid, tp)

			sorted := spOut.Slice(0, cLen)
			bLo, bHi := par.Span(pl.buckets-1, e.P, tid)
			for j := bLo; j < bHi; j++ {
				bpos.Set(tp, j+1, int64(lowerBound(tp, sorted, pivots.Get(tp, j))))
			}
			if tid == 0 {
				bpos.Set(tp, 0, 0)
				bpos.Set(tp, pl.buckets, int64(cLen))
			}
			bar.Wait(tp)

			// Scatter: thread tid owns a bucket range; for each of its
			// buckets, reserve space with an atomic add and copy the
			// segment out of the scratchpad into the bucket's region.
			sLo, sHi := par.Span(pl.buckets, e.P, tid)
			for b := sLo; b < sHi; b++ {
				segLo := int(bpos.Get(tp, b))
				segHi := int(bpos.Get(tp, b+1))
				cnt := segHi - segLo
				fragLen[ci*pl.buckets+b] = int64(cnt)
				if cnt == 0 {
					continue
				}
				off := cursors.AtomicAdd(tp, b, int64(cnt)) - int64(cnt)
				if int(off)+cnt > bucketCap {
					panic(fmt.Sprintf("core: small-appends bucket %d overflowed its %d-element guess (skewed input); NMSort has no such failure mode", b, bucketCap))
				}
				trace.Copy(tp, areas[b].Slice(int(off), int(off)+cnt),
					sorted.Slice(segLo, segHi))
			}
			bar.Wait(tp)
		}

		// Phase 2: thread 0 lays out the output; then each thread merges
		// whole buckets (its round-robin share) fragment-by-fragment,
		// directly in far memory — no batching, no scratchpad staging.
		if tid == 0 {
			outOff = make([]int64, pl.buckets+1)
			for b := 0; b < pl.buckets; b++ {
				outOff[b+1] = outOff[b] + cursors.Get(tp, b)
			}
			if outOff[pl.buckets] != int64(n) {
				panic("core: small-appends lost elements during scattering")
			}
		}
		bar.Wait(tp)

		for b := tid; b < pl.buckets; b += e.P {
			total := int(outOff[b+1] - outOff[b])
			if total == 0 {
				continue
			}
			runs := make([]trace.U64, 0, pl.chunks)
			off := 0
			for ci := 0; ci < pl.chunks; ci++ {
				fl := int(fragLen[ci*pl.buckets+b])
				if fl > 0 {
					runs = append(runs, areas[b].Slice(off, off+fl))
					off += fl
				}
			}
			multiwayMerge(tp, runs, a.Slice(int(outOff[b]), int(outOff[b])+total))
		}
		bar.Wait(tp)
	})

	st.Batches = pl.buckets // every bucket is its own "batch"
	st.SPPeakBytes = e.SP.Peak()

	e.FreeSP(spIn.Base)
	e.FreeSP(spOut.Base)
	e.FreeSP(pivots.Base)
	e.SP.SPFree(bpos.Base)
	return st
}
