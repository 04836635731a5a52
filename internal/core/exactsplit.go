package core

import "repro/internal/trace"

// Exact multisequence selection — the splitting strategy of GNU parallel
// mode's exact variant (multiseq_selection.h in the MCSTL the paper cites).
// Given k sorted runs and a global rank r, exactSelect finds per-run cut
// positions pos with Σpos = r such that every element before a cut is <=
// every element after any cut: the prefix union of the cuts is exactly the
// r smallest elements (ties broken by run index, making the answer unique
// and the parallel merge parts deterministic).
//
// The implementation binary-searches the value domain using the runs' own
// elements as candidates: each iteration picks the median of the runs'
// probe values, counts how many elements fall below it, and narrows
// per-run search intervals — O(k·log(maxlen)·log k) probes overall,
// troughly the classic bound, and every probe is a traced access so the
// splitting cost shows up in the experiments honestly.

// exactSelect returns cut positions for global rank r over the sorted
// runs. 0 <= r <= Σlen is required.
func exactSelect(tp *trace.TP, runs []trace.U64, r int) []int {
	k := len(runs)
	lo := make([]int, k) // per-run search interval [lo, hi]
	hi := make([]int, k)
	total := 0
	for i, run := range runs {
		hi[i] = run.Len()
		total += run.Len()
	}
	if r < 0 || r > total {
		panic("core: ExactSelect rank out of range")
	}

	// Invariant: the answer pos satisfies lo[i] <= pos[i] <= hi[i] for all
	// runs, and Σlo <= r <= Σhi. Narrow until every interval is empty.
	for {
		sumLo, sumHi := 0, 0
		for i := range runs {
			sumLo += lo[i]
			sumHi += hi[i]
		}
		if sumLo == sumHi {
			break
		}

		// Candidate pivot: the (value, run) pair at each open interval's
		// midpoint; choose the weighted median candidate so intervals
		// shrink geometrically.
		type cand struct {
			v      uint64
			run    int
			weight int
		}
		var cands []cand
		for i, run := range runs {
			if lo[i] < hi[i] {
				mid := (lo[i] + hi[i]) / 2
				cands = append(cands, cand{v: run.Get(tp, mid), run: i, weight: hi[i] - lo[i]})
				tp.Compare(1)
			}
		}
		// Weighted-median selection over the (few) candidates: sort by
		// (value, run) with insertion sort — k is small.
		for a := 1; a < len(cands); a++ {
			c := cands[a]
			b := a - 1
			for b >= 0 && (cands[b].v > c.v || (cands[b].v == c.v && cands[b].run > c.run)) {
				cands[b+1] = cands[b]
				b--
			}
			cands[b+1] = c
			tp.Compare(int64(a - b))
		}
		half := 0
		for _, c := range cands {
			half += c.weight
		}
		half /= 2
		sel := cands[0]
		acc := 0
		for _, c := range cands {
			acc += c.weight
			if acc > half {
				sel = c
				break
			}
		}

		// Partition every run against (sel.v, sel.run): positions strictly
		// before the pivot in the global tie-broken order.
		cut := make([]int, k)
		sum := 0
		for i, run := range runs {
			var c int
			if i < sel.run {
				c = clampSearch(tp, run, lo[i], hi[i], sel.v, true) // <= v
			} else if i == sel.run {
				c = (lo[i] + hi[i]) / 2 // the pivot's own position
			} else {
				c = clampSearch(tp, run, lo[i], hi[i], sel.v, false) // < v
			}
			cut[i] = c
			sum += c
		}
		if sum < r {
			// The answer lies at or above the pivot in every run.
			for i := range runs {
				if cut[i]+boolInt(i == sel.run) > lo[i] {
					lo[i] = cut[i]
					if i == sel.run {
						lo[i]++
					}
					if lo[i] > hi[i] {
						lo[i] = hi[i]
					}
				}
			}
		} else {
			// The answer lies at or below the pivot in every run.
			for i := range runs {
				if cut[i] < hi[i] {
					hi[i] = cut[i]
					if hi[i] < lo[i] {
						hi[i] = lo[i]
					}
				}
			}
		}
	}

	// Σlo may not equal r exactly when equal keys straddle the boundary;
	// distribute the remainder among runs whose next element equals the
	// boundary value, in run order (the tie-break).
	sum := 0
	for i := range runs {
		sum += lo[i]
	}
	if sum < r {
		// Find the smallest next value among the runs.
		for sum < r {
			best := -1
			var bestV uint64
			for i, run := range runs {
				if lo[i] < run.Len() {
					v := run.Get(tp, lo[i])
					tp.Compare(1)
					if best == -1 || v < bestV {
						best, bestV = i, v
					}
				}
			}
			if best == -1 {
				panic("core: ExactSelect ran out of elements")
			}
			lo[best]++
			sum++
		}
	}
	return lo
}

// clampSearch finds, within run[lo:hi], the first index whose element is
// >= v (orEq=false) or > v (orEq=true), returning it as an absolute index.
func clampSearch(tp *trace.TP, run trace.U64, lo, hi int, v uint64, orEq bool) int {
	sub := run.Slice(lo, hi)
	var off int
	if orEq {
		off = upperBound(tp, sub, v)
	} else {
		off = lowerBound(tp, sub, v)
	}
	return lo + off
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
