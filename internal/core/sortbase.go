package core

import "repro/internal/trace"

// This file holds the single-thread sorting primitives the parallel
// algorithms are built from: a cache-friendly top-down ping-pong mergesort
// (the default in-scratchpad sort, matching the paper's use of the GNU
// multiway mergesort inside the scratchpad), a traced in-place quicksort
// (Corollary 7's alternative), and binary merging.

// mergeSortInto sorts src into dst using recursive ping-pong merging; tmp
// must have the same length as src and dst. src is left in an unspecified
// (partially permuted) state. The depth-first recursion keeps small
// subproblems cache-resident, so traced traffic shows the external-memory
// pass structure of Theorem 2.
func mergeSortInto(tp *trace.TP, dst, src, tmp trace.U64) {
	n := src.Len()
	if dst.Len() != n || tmp.Len() != n {
		panic("core: MergeSortInto length mismatch")
	}
	if n == 0 {
		return
	}
	msort(tp, src, tmp, 0, n, false)
	// msort left the result in tmp (toSrc=false); move it to dst if dst is
	// not already tmp's storage.
	if &tmp.D[0] == &dst.D[0] && tmp.Base == dst.Base {
		return
	}
	trace.Copy(tp, dst, tmp)
}

// mergeSortInPlace sorts a using tmp as scratch.
func mergeSortInPlace(tp *trace.TP, a, tmp trace.U64) {
	n := a.Len()
	if tmp.Len() != n {
		panic("core: MergeSortInPlace length mismatch")
	}
	if n <= 1 {
		return
	}
	msort(tp, a, tmp, 0, n, true)
}

// msort sorts a[lo:hi). If toA, the sorted run ends in a; otherwise in b.
func msort(tp *trace.TP, a, b trace.U64, lo, hi int, toA bool) {
	n := hi - lo
	if n <= 1 {
		if n == 1 && !toA {
			b.Set(tp, lo, a.Get(tp, lo))
		}
		return
	}
	mid := lo + n/2
	// Sort halves into the opposite buffer, then merge back into ours.
	msort(tp, a, b, lo, mid, !toA)
	msort(tp, a, b, mid, hi, !toA)
	if toA {
		mergeRange(tp, b, a, lo, mid, hi)
	} else {
		mergeRange(tp, a, b, lo, mid, hi)
	}
}

// mergeRange merges the sorted runs src[lo:mid) and src[mid:hi) into
// dst[lo:hi).
func mergeRange(tp *trace.TP, src, dst trace.U64, lo, mid, hi int) {
	i, j := lo, mid
	for k := lo; k < hi; k++ {
		switch {
		case i >= mid:
			dst.Set(tp, k, src.Get(tp, j))
			j++
		case j >= hi:
			dst.Set(tp, k, src.Get(tp, i))
			i++
		default:
			tp.Compare(1)
			x, y := src.Get(tp, i), src.Get(tp, j)
			if x <= y {
				dst.Set(tp, k, x)
				i++
			} else {
				dst.Set(tp, k, y)
				j++
			}
		}
	}
}

// QuickSort sorts a in place — the in-scratchpad alternative of
// Corollary 7. Median-of-three pivoting with Hoare partitioning and
// insertion sort below a small threshold; recursion always descends into
// the smaller side so stack depth is O(log n) even on adversarial inputs.
func QuickSort(tp *trace.TP, a trace.U64) {
	quicksort(tp, a, 0, a.Len())
}

const insertionThreshold = 16

func quicksort(tp *trace.TP, a trace.U64, lo, hi int) {
	for hi-lo > insertionThreshold {
		j := partition(tp, a, lo, hi)
		// Recurse into the smaller side, loop on the larger: O(log n) stack.
		if j+1-lo < hi-j-1 {
			quicksort(tp, a, lo, j+1)
			lo = j + 1
		} else {
			quicksort(tp, a, j+1, hi)
			hi = j + 1
		}
	}
	insertionSort(tp, a, lo, hi)
}

// partition performs Hoare partitioning of a[lo:hi) around a
// median-of-three pivot placed at lo, returning j with lo <= j <= hi-2 such
// that a[lo:j+1] <= pivot <= a[j+1:hi) — both sides always non-empty.
func partition(tp *trace.TP, a trace.U64, lo, hi int) int {
	// Select the median of first/middle/last and move it to lo so the
	// classic Hoare scan invariants (pivot == a[lo]) hold.
	mid := int(uint(lo+hi) >> 1)
	lov, midv, hiv := a.Get(tp, lo), a.Get(tp, mid), a.Get(tp, hi-1)
	tp.Compare(3)
	switch {
	case (midv <= lov) == (lov <= hiv): // lov is the median
	case (lov <= midv) == (midv <= hiv): // midv is the median
		a.Set(tp, lo, midv)
		a.Set(tp, mid, lov)
	default: // hiv is the median
		a.Set(tp, lo, hiv)
		a.Set(tp, hi-1, lov)
	}
	pivot := a.Get(tp, lo)

	i, j := lo-1, hi
	for {
		for {
			j--
			tp.Compare(1)
			if a.Get(tp, j) <= pivot {
				break
			}
		}
		for {
			i++
			tp.Compare(1)
			if a.Get(tp, i) >= pivot {
				break
			}
		}
		if i >= j {
			return j
		}
		x, y := a.Get(tp, i), a.Get(tp, j)
		a.Set(tp, i, y)
		a.Set(tp, j, x)
	}
}

// insertionSort sorts a[lo:hi) in place.
func insertionSort(tp *trace.TP, a trace.U64, lo, hi int) {
	for i := lo + 1; i < hi; i++ {
		x := a.Get(tp, i)
		j := i - 1
		for j >= lo {
			tp.Compare(1)
			v := a.Get(tp, j)
			if v <= x {
				break
			}
			a.Set(tp, j+1, v)
			j--
		}
		a.Set(tp, j+1, x)
	}
}

// IsSorted reports whether a is non-decreasing (untraced; a test helper on
// the hot path of every experiment's verification step).
func IsSorted(a []uint64) bool {
	for i := 1; i < len(a); i++ {
		if a[i-1] > a[i] {
			return false
		}
	}
	return true
}

// Checksum returns an order-independent fingerprint (sum and xor folded
// together) used to verify an algorithm permuted its input rather than
// corrupting it.
func Checksum(a []uint64) uint64 {
	var sum, x uint64
	for _, v := range a {
		sum += v
		x ^= v*0x9e3779b97f4a7c15 + 1
	}
	return sum ^ (x * 0xff51afd7ed558ccd)
}

// lowerBound returns the first index i in sorted a with a[i] >= key,
// tracing its probes. This is the primitive behind bucket-boundary
// extraction ("a multithreaded algorithm that determines bucket boundaries
// in a sorted list", Section V) and run splitting.
func lowerBound(tp *trace.TP, a trace.U64, key uint64) int {
	lo, hi := 0, a.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		tp.Compare(1)
		if a.Get(tp, mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first index i in sorted a with a[i] > key.
func upperBound(tp *trace.TP, a trace.U64, key uint64) int {
	lo, hi := 0, a.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		tp.Compare(1)
		if a.Get(tp, mid) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
