package core

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/trace"
)

// NMOptions tunes NMsort. The zero value requests automatic sizing.
type NMOptions struct {
	// Buckets is the number of sample-sort buckets |X| (0 = automatic:
	// enough that an average bucket is a small fraction of a chunk, so
	// Phase 2 can batch thousands-of-buckets-sized transfers as in the
	// paper).
	Buckets int
	// DMA uses background DMA engines for chunk ingest (double-buffered)
	// and drain instead of core-mediated copies — the paper's §VII
	// future-work extension.
	DMA bool
}

// NMStats reports what one NMSort run actually did — chunk and batch
// geometry plus the metadata overhead the paper bounds below 1%.
type NMStats struct {
	N             int
	Chunks        int
	ChunkElems    int
	Buckets       int
	Batches       int
	MaxBatchElems int
	MetadataBytes int64 // BucketPos + BucketTot + pivots
	SPPeakBytes   uint64
}

// MetadataOverhead returns metadata bytes as a fraction of input bytes.
func (s NMStats) MetadataOverhead() float64 {
	return float64(s.MetadataBytes) / float64(8*s.N)
}

// NMSort sorts a in place with the paper's practical near-memory sort
// (Section IV-D).
//
// Phase 1 streams Θ(M)-element chunks through the scratchpad: each chunk is
// ingested, sorted by a parallel multiway mergesort entirely inside the
// scratchpad, written back to far memory, and described by bucket metadata
// — the BucketPos array per chunk and the running BucketTot totals — rather
// than by physically scattering buckets ("Instead of populating individual
// buckets ... we simply record the bucket boundaries").
//
// Phase 2 walks the buckets in order, batching as many consecutive buckets
// as (almost) fill the scratchpad, gathers each batch's per-chunk sorted
// segments, k-way merges them in the scratchpad, and writes the final
// sorted output. This batching — thousands of buckets per transfer — is the
// innovation the paper credits for making the scratchpad exploitable at
// all.
func NMSort(e *Env, a trace.U64, opt NMOptions) NMStats {
	n := a.Len()
	if n <= 1 {
		return NMStats{N: n, Chunks: 1, Batches: 0}
	}
	pl := planNM(e, n, opt)

	// Far-memory allocations: the sorted-chunk staging area and the bucket
	// metadata (BucketPos rows per chunk, Figure 2(c)).
	work := e.AllocFar(n)
	bucketPos := e.allocFarI64(pl.chunks * (pl.buckets + 1))

	// Scratchpad allocations. BucketTot "remains in scratchpad throughout
	// both phases" (Section IV-D).
	spIn := e.MustAllocSP(pl.chunkElems)
	var spInB trace.U64
	if opt.DMA {
		spInB = e.MustAllocSP(pl.chunkElems)
	}
	spOut := e.MustAllocSP(pl.chunkElems)
	pivots := e.MustAllocSP(pl.buckets - 1)
	bucketTot := e.mustAllocSPI64(pl.buckets)
	bpos := e.mustAllocSPI64(pl.buckets + 1)
	// Splitter samples are tiny and transient; they live in far memory so
	// the scratchpad budget goes to chunk buffers.
	sample := e.AllocFar(pl.sampleElems)
	sampleTmp := e.AllocFar(pl.sampleElems)

	st := NMStats{
		N:          n,
		Chunks:     pl.chunks,
		ChunkElems: pl.chunkElems,
		Buckets:    pl.buckets,
		MetadataBytes: int64(bucketPos.Len()+bucketTot.Len())*8 +
			int64(pivots.Len())*8,
	}

	bar := par.NewBarrier(e.P)
	var ps *PMSort  // current chunk sort, built by thread 0
	var mg *pmMerge // current batch merge, built by thread 0
	var batches []nmBatch
	var segs []nmSeg         // current batch's gather plan
	var chunkSplits []uint64 // pivot-derived splitters for chunk sorts

	par.RunPoison(e.P, e.Rec, bar, func(tid int, tp *trace.TP) {
		// --- Pivot selection -------------------------------------------
		// Thread 0 draws the random sample X into the scratchpad; all
		// threads then sort it in parallel (in the scratchpad) and thread
		// 0 publishes the bucket pivots, which stay scratchpad-resident
		// for both phases.
		ns := pl.pivotSample
		if tid == 0 {
			tp.Phase("pivots")
			rng := e.rng(0)
			for i := 0; i < ns; i++ {
				v := a.Get(tp, rng.Intn(n))
				spIn.Set(tp, i, v)
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
				bucketTot.Set(tp, b, 0)
			}
			// The global pivots double as merge splitters for every
			// in-scratchpad chunk sort: each chunk is a uniform random
			// subset, so global quantiles balance its parts too, and no
			// per-merge sampling (with its serial sample sort) is needed.
			chunkSplits = pivotSplitters(tp, pivots, e.P, 0, pl.buckets)
		}
		bar.Wait(tp)

		// --- Phase 1: sort chunks, record bucket metadata --------------
		if tid == 0 {
			tp.Phase("p1:sort-chunks")
		}
		if opt.DMA && tid == 0 {
			// Prefetch chunk 0 into the front buffer.
			dmaCopy(tp, spIn.Slice(0, pl.chunkLen(n, 0)), a.Slice(0, pl.chunkLen(n, 0)))
			tp.DMAWait()
		}
		for ci := 0; ci < pl.chunks; ci++ {
			cLen := pl.chunkLen(n, ci)
			chunk := a.Slice(ci*pl.chunkElems, ci*pl.chunkElems+cLen)

			if opt.DMA {
				// The next chunk streams into the back buffer while this
				// one sorts (Figure 2(a)/(b) made concurrent via DMA).
				if tid == 0 && ci+1 < pl.chunks {
					nLen := pl.chunkLen(n, ci+1)
					next := a.Slice((ci+1)*pl.chunkElems, (ci+1)*pl.chunkElems+nLen)
					dmaCopy(tp, spInB.Slice(0, nLen), next)
				}
			} else {
				lo, hi := par.Span(cLen, e.P, tid)
				trace.Copy(tp, spIn.Slice(lo, hi), chunk.Slice(lo, hi))
			}
			bar.Wait(tp)

			// Parallel in-scratchpad sort of the chunk.
			if tid == 0 {
				ps = newPMSortPresplit(e.P, spIn.Slice(0, cLen), spOut.Slice(0, cLen),
					spOut.Slice(0, cLen), chunkSplits, bar)
			}
			bar.Wait(tp)
			ps.Run(tid, tp)

			// Extract bucket boundaries from the sorted chunk in parallel
			// ("a multithreaded algorithm that determines bucket
			// boundaries in a sorted list").
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

			// Accumulate BucketTot and persist this chunk's BucketPos row.
			tLo, tHi := par.Span(pl.buckets, e.P, tid)
			for b := tLo; b < tHi; b++ {
				cnt := bpos.Get(tp, b+1) - bpos.Get(tp, b)
				bucketTot.Set(tp, b, bucketTot.Get(tp, b)+cnt)
			}
			row := bucketPos.Slice(ci*(pl.buckets+1), (ci+1)*(pl.buckets+1))
			pLo, pHi := par.Span(pl.buckets+1, e.P, tid)
			trace.CopyI64(tp, row.Slice(pLo, pHi), bpos.Slice(pLo, pHi))

			// Drain the sorted chunk to far memory (Figure 2(b)).
			dst := work.Slice(ci*pl.chunkElems, ci*pl.chunkElems+cLen)
			if opt.DMA {
				if tid == 0 {
					dmaCopy(tp, dst, sorted)
					tp.DMAWait() // spOut is reused next iteration
					if ci+1 < pl.chunks {
						spIn, spInB = spInB, spIn // swap ingest buffers
					}
				}
			} else {
				lo, hi := par.Span(cLen, e.P, tid)
				trace.Copy(tp, dst.Slice(lo, hi), sorted.Slice(lo, hi))
			}
			bar.Wait(tp)
		}

		// --- Phase 2: batch buckets, gather, merge, emit ----------------
		if tid == 0 {
			tp.Phase("p2:merge-batches")
			batches = planBatches(tp, bucketTot, pl.chunkElems)
			st.Batches = len(batches)
		}
		bar.Wait(tp)

		for bi := range batches {
			b := batches[bi]
			batchLen := b.len
			if tid == 0 {
				var gathered int
				segs, gathered = gatherPlan(tp, bucketPos, pl, n, b)
				if gathered != batchLen {
					panic(fmt.Sprintf("core: NMSort batch %d gathered %d elements, planned %d", bi, gathered, batchLen))
				}
				if batchLen > st.MaxBatchElems {
					st.MaxBatchElems = batchLen
				}
			}
			bar.Wait(tp)

			if b.direct {
				// An oversized bucket (heavily skewed keys) cannot stage in
				// the scratchpad; merge its per-chunk segments directly
				// between far-memory locations. Correct but without the
				// near-memory bandwidth advantage — the degenerate case the
				// paper's nonrecursive NMsort does not expect on random
				// keys (Section V).
				if tid == 0 {
					runs := make([]trace.U64, 0, len(segs))
					for _, sg := range segs {
						runs = append(runs, work.Slice(sg.farLo, sg.farLo+sg.n))
					}
					mg = newPMMerge(e.P, runs, a.Slice(b.off, b.off+batchLen), sample, sampleTmp, bar)
				}
				bar.Wait(tp)
				mg.run(tid, tp)
				continue
			}

			// Gather each chunk's segment for this bucket range into the
			// scratchpad (Figure 3(b)).
			if opt.DMA {
				if tid == 0 {
					for _, sg := range segs {
						if sg.n > 0 {
							dmaCopy(tp, spIn.Slice(sg.spLo, sg.spLo+sg.n),
								work.Slice(sg.farLo, sg.farLo+sg.n))
						}
					}
					tp.DMAWait()
				}
			} else {
				lo, hi := par.Span(batchLen, e.P, tid)
				for _, sg := range segs {
					o := overlap(sg.spLo, sg.spLo+sg.n, lo, hi)
					if o.n > 0 {
						trace.Copy(tp,
							spIn.Slice(o.lo, o.lo+o.n),
							work.Slice(sg.farLo+(o.lo-sg.spLo), sg.farLo+(o.lo-sg.spLo)+o.n))
					}
				}
			}
			bar.Wait(tp)

			// Merge the per-chunk sorted segments (multi-way search of the
			// Θ(N/M) sorted strings, Figure 3(c)).
			if tid == 0 {
				runs := make([]trace.U64, 0, len(segs))
				for _, sg := range segs {
					runs = append(runs, spIn.Slice(sg.spLo, sg.spLo+sg.n))
				}
				// Splitters: bucket boundaries interior to this batch's
				// bucket range, at p-quantile granularity.
				splits := pivotSplitters(tp, pivots, e.P, b.bLo, b.bHi)
				mg = newPMMergePresplit(e.P, runs, spOut.Slice(0, batchLen), splits, bar)
			}
			bar.Wait(tp)
			mg.run(tid, tp)

			// Emit the merged batch to its final position.
			final := a.Slice(b.off, b.off+batchLen)
			if opt.DMA {
				if tid == 0 {
					dmaCopy(tp, final, spOut.Slice(0, batchLen))
					tp.DMAWait()
				}
			} else {
				lo, hi := par.Span(batchLen, e.P, tid)
				trace.Copy(tp, final.Slice(lo, hi), spOut.Slice(lo, hi))
			}
			bar.Wait(tp)
		}
	})

	if nb := len(batches); nb == 0 || batches[nb-1].off+batches[nb-1].len != n {
		panic("core: NMSort batch plan did not cover the input")
	}
	st.SPPeakBytes = e.SP.Peak()

	// Release the scratchpad for subsequent runs sharing this Env.
	e.FreeSP(spIn.Base)
	if opt.DMA {
		e.FreeSP(spInB.Base)
	}
	e.FreeSP(spOut.Base)
	e.FreeSP(pivots.Base)
	e.SP.SPFree(bucketTot.Base)
	e.SP.SPFree(bpos.Base)
	return st
}

// dmaCopy issues a DMA descriptor for the transfer and performs the data
// movement natively (the descriptor carries the cost at replay; the bytes
// must move now for correctness).
func dmaCopy(tp *trace.TP, dst, src trace.U64) {
	if dst.Len() != src.Len() {
		panic("core: dmaCopy length mismatch")
	}
	tp.DMA(src.Base, dst.Base, 8*src.Len())
	copy(dst.D, src.D)
}

// nmPlan is NMsort's derived geometry.
type nmPlan struct {
	chunkElems  int
	chunks      int
	buckets     int
	pivotSample int
	sampleElems int
}

func (p nmPlan) chunkLen(n, ci int) int {
	if (ci+1)*p.chunkElems <= n {
		return p.chunkElems
	}
	return n - ci*p.chunkElems
}

// planNM derives the chunk and bucket geometry from the scratchpad budget:
// it grows the non-chunk reservation (bucket metadata + sample buffers) to
// a fixed point, giving the chunk buffers everything that remains.
func planNM(e *Env, n int, opt NMOptions) nmPlan {
	spElems := e.spElems()
	bufs := 2
	if opt.DMA {
		bufs = 3
	}

	pl := nmPlan{}
	reserve := 0
	for iter := 0; ; iter++ {
		c := (spElems - reserve) / bufs
		if c < 64 {
			panic(fmt.Sprintf("core: scratchpad too small for NMsort: chunk would be %d elements (scratchpad %v, threads %d)", c, e.M, e.P))
		}
		if c > n {
			c = n
		}
		pl.chunkElems = c
		pl.chunks = (n + c - 1) / c

		pl.buckets = opt.Buckets
		if pl.buckets == 0 {
			// Enough buckets that (a) Phase 2 batches span many buckets
			// and (b) the bucket pivots are fine-grained enough to double
			// as balanced p-way merge splitters.
			pl.buckets = 16 * n / c
			if min := 4 * e.P; pl.buckets < min {
				pl.buckets = min
			}
			if pl.buckets < 16 {
				pl.buckets = 16
			}
			if cap := spElems / 16; pl.buckets > cap {
				pl.buckets = cap
			}
			if pl.buckets > 8192 {
				pl.buckets = 8192
			}
		}
		if pl.buckets < 2 {
			pl.buckets = 2
		}

		k := e.P
		if pl.chunks > k {
			k = pl.chunks
		}
		pl.sampleElems = SampleLen(k)

		// pivots + BucketTot + bpos + allocator rounding across the six
		// scratchpad allocations (samples live in far memory).
		need := 3*pl.buckets + 64
		if need <= reserve || iter > 16 {
			break
		}
		reserve = need
	}

	pl.pivotSample = pl.buckets * 8 // the pivot oversampling factor
	if pl.pivotSample > pl.chunkElems {
		pl.pivotSample = pl.chunkElems
	}
	if pl.pivotSample > n {
		pl.pivotSample = n
	}
	return pl
}

// nmBatch is a maximal run of consecutive buckets whose total fits the
// scratchpad ingest buffer ("we find the largest k such that
// ΣBucketTot[i] <= M", Figure 3(a)), together with its precomputed output
// placement so no shared offset needs mutating during the batch loop.
type nmBatch struct {
	bLo, bHi int  // bucket range [bLo, bHi)
	off      int  // output offset of the batch's first element
	len      int  // total elements in the batch
	direct   bool // oversized bucket: merge far-to-far without staging
}

// planBatches walks BucketTot grouping consecutive buckets into
// scratchpad-sized batches and assigning output offsets.
func planBatches(tp *trace.TP, tot trace.I64, capElems int) []nmBatch {
	var out []nmBatch
	nb := tot.Len()
	cur, curLen, off := 0, 0, 0
	for b := 0; b < nb; b++ {
		t := int(tot.Get(tp, b))
		if t > capElems {
			// Oversized bucket: close the open batch, then emit the bucket
			// alone as a direct (far-to-far) merge batch.
			if curLen > 0 {
				out = append(out, nmBatch{bLo: cur, bHi: b, off: off, len: curLen})
				off += curLen
			}
			out = append(out, nmBatch{bLo: b, bHi: b + 1, off: off, len: t, direct: true})
			off += t
			cur, curLen = b+1, 0
			continue
		}
		if curLen+t > capElems {
			out = append(out, nmBatch{bLo: cur, bHi: b, off: off, len: curLen})
			off += curLen
			cur, curLen = b, 0
		}
		curLen += t
	}
	out = append(out, nmBatch{bLo: cur, bHi: nb, off: off, len: curLen})
	return out
}

// nmSeg maps one chunk's contribution to a batch: n elements starting at
// work[farLo], landing at spIn[spLo].
type nmSeg struct {
	farLo, spLo, n int
}

// gatherPlan reads the BucketPos rows for the batch's bucket range and lays
// the per-chunk segments out back to back in the ingest buffer.
func gatherPlan(tp *trace.TP, bucketPos trace.I64, pl nmPlan, n int, b nmBatch) ([]nmSeg, int) {
	segs := make([]nmSeg, 0, pl.chunks)
	off := 0
	for ci := 0; ci < pl.chunks; ci++ {
		row := ci * (pl.buckets + 1)
		sLo := int(bucketPos.Get(tp, row+b.bLo))
		sHi := int(bucketPos.Get(tp, row+b.bHi))
		segs = append(segs, nmSeg{farLo: ci*pl.chunkElems + sLo, spLo: off, n: sHi - sLo})
		off += sHi - sLo
	}
	return segs, off
}

// pivotSplitters derives p-1 non-decreasing merge splitters from the
// scratchpad-resident bucket pivots, restricted to the bucket range
// [bLo, bHi). pivots[j] is the boundary value between buckets j and j+1.
func pivotSplitters(tp *trace.TP, pivots trace.U64, p, bLo, bHi int) []uint64 {
	out := make([]uint64, p-1)
	span := bHi - bLo
	for t := 1; t < p; t++ {
		cut := bLo + t*span/p // bucket index where part t begins
		j := cut - 1          // pivot separating buckets cut-1 and cut
		if j < 0 {
			j = 0
		}
		if j > pivots.Len()-1 {
			j = pivots.Len() - 1
		}
		out[t-1] = pivots.Get(tp, j)
	}
	return out
}

type ovl struct{ lo, n int }

// overlap intersects [aLo, aHi) with [bLo, bHi).
func overlap(aLo, aHi, bLo, bHi int) ovl {
	lo, hi := aLo, aHi
	if bLo > lo {
		lo = bLo
	}
	if bHi < hi {
		hi = bHi
	}
	if hi <= lo {
		return ovl{}
	}
	return ovl{lo: lo, n: hi - lo}
}
