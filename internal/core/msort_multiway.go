package core

import "repro/internal/trace"

// MultiwayMergeSort sorts a using tmp as a ping-pong buffer via Z/B-way
// merge rounds — the algorithm of Corollary 3 ("multi-way merge sort with
// a branching factor of Z/B", the GNU library sort the paper calls inside
// the scratchpad). Initial runs of runElems elements are formed with the
// cache-resident binary mergesort; thereafter each round merges fanout
// consecutive runs with a loser tree, multiplying the run length by fanout
// and costing one read+write pass over the data. Total passes:
// 1 + ceil(log_fanout(n/runElems)) — the log_{Z/B}(x/B) of the theory.
//
// The sorted result ends in either a or tmp; the returned view says which.
func MultiwayMergeSort(tp *trace.TP, a, tmp trace.U64, runElems, fanout int) trace.U64 {
	n := a.Len()
	if tmp.Len() != n {
		panic("core: MultiwayMergeSort buffer length mismatch")
	}
	if runElems < 2 {
		runElems = 2
	}
	if fanout < 2 {
		fanout = 2
	}
	if n <= 1 {
		return a
	}

	// Form cache-resident initial runs in place.
	for lo := 0; lo < n; lo += runElems {
		hi := lo + runElems
		if hi > n {
			hi = n
		}
		mergeSortInPlace(tp, a.Slice(lo, hi), tmp.Slice(lo, hi))
	}

	cur, other := a, tmp
	for runLen := runElems; runLen < n; runLen *= fanout {
		// One merge round: groups of fanout runs stream cur -> other.
		for lo := 0; lo < n; lo += runLen * fanout {
			groupHi := lo + runLen*fanout
			if groupHi > n {
				groupHi = n
			}
			runs := make([]trace.U64, 0, fanout)
			for r := lo; r < groupHi; r += runLen {
				rHi := r + runLen
				if rHi > groupHi {
					rHi = groupHi
				}
				runs = append(runs, cur.Slice(r, rHi))
			}
			if len(runs) == 1 {
				// A lone tail run still has to change buffers to keep the
				// round's output consistent.
				trace.Copy(tp, other.Slice(lo, groupHi), runs[0])
				continue
			}
			multiwayMerge(tp, runs, other.Slice(lo, groupHi))
		}
		cur, other = other, cur
	}
	return cur
}
