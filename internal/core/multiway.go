package core

import "repro/internal/trace"

// This file implements k-way merging with a tournament (loser) tree and the
// sample-based splitter selection that lets p threads merge disjoint output
// ranges in parallel — the two primitives of the GNU parallel multiway
// mergesort (MCSTL) the paper uses both as its baseline and as the
// in-scratchpad sort.

// loserTree merges k sorted runs. The tree itself is tiny (2k ints) and
// lives in registers/L1; only the run cursor advances touch traced memory.
type loserTree struct {
	runs []trace.U64
	pos  []int
	tree []int    // internal nodes: loser run indices; tree[0] = winner
	key  []uint64 // current head key per run (sentinel ^0 when exhausted)
	done []bool
	k    int
	left int // total elements remaining
}

// newLoserTree builds a tree over the given runs, loading each run's head
// through tp.
func newLoserTree(tp *trace.TP, runs []trace.U64) *loserTree {
	k := len(runs)
	if k == 0 {
		panic("core: LoserTree needs at least one run")
	}
	t := &loserTree{
		runs: runs,
		pos:  make([]int, k),
		tree: make([]int, k),
		key:  make([]uint64, k),
		done: make([]bool, k),
		k:    k,
	}
	for i, r := range runs {
		t.left += r.Len()
		if r.Len() == 0 {
			t.done[i] = true
			t.key[i] = ^uint64(0)
		} else {
			t.key[i] = r.Get(tp, 0)
		}
	}
	t.rebuild(tp)
	return t
}

// rebuild initializes the loser tree by playing all runs (O(k log k)
// comparisons, charged to tp).
func (t *loserTree) rebuild(tp *trace.TP) {
	winner := make([]int, 2*t.k)
	for i := 0; i < t.k; i++ {
		winner[t.k+i] = i
	}
	for n := t.k - 1; n >= 1; n-- {
		a, b := winner[2*n], winner[2*n+1]
		tp.Compare(1)
		if t.less(a, b) {
			winner[n], t.tree[n] = a, b
		} else {
			winner[n], t.tree[n] = b, a
		}
	}
	t.tree[0] = winner[1]
}

// less orders runs by (live, key, run index) so ties resolve
// deterministically and — crucially — an exhausted run (whose key is the
// ^0 sentinel) never beats a live run holding a real ^0 value.
func (t *loserTree) less(a, b int) bool {
	if t.done[a] != t.done[b] {
		return !t.done[a]
	}
	if t.key[a] != t.key[b] {
		return t.key[a] < t.key[b]
	}
	return a < b
}

// next pops the smallest remaining element. Calling next on an empty tree
// panics.
func (t *loserTree) next(tp *trace.TP) uint64 {
	if t.left == 0 {
		panic("core: Next on drained LoserTree")
	}
	w := t.tree[0]
	out := t.key[w]
	t.left--

	// Advance the winner's cursor.
	t.pos[w]++
	if t.pos[w] >= t.runs[w].Len() {
		t.done[w] = true
		t.key[w] = ^uint64(0)
	} else {
		t.key[w] = t.runs[w].Get(tp, t.pos[w])
	}

	// Replay the path from leaf w to the root.
	cur := w
	for n := (t.k + w) / 2; n >= 1; n /= 2 {
		tp.Compare(1)
		if t.less(t.tree[n], cur) {
			cur, t.tree[n] = t.tree[n], cur
		}
	}
	t.tree[0] = cur
	return out
}

// mergeInto drains the tree into dst, which must have exactly Len()
// capacity remaining from offset 0.
func (t *loserTree) mergeInto(tp *trace.TP, dst trace.U64) {
	if dst.Len() != t.left {
		panic("core: MergeInto destination length mismatch")
	}
	for i := 0; t.left > 0; i++ {
		dst.Set(tp, i, t.next(tp))
	}
}

// multiwayMerge merges the sorted runs into dst (len = sum of run lens).
func multiwayMerge(tp *trace.TP, runs []trace.U64, dst trace.U64) {
	t := newLoserTree(tp, runs)
	t.mergeInto(tp, dst)
}

// sampleRuns has each conceptual position i of out filled with an evenly
// spaced sample from run r — the splitter-sampling step. The caller decides
// which thread loads which run.
func sampleRun(tp *trace.TP, run trace.U64, out trace.U64, perRun int) {
	n := run.Len()
	for s := 0; s < perRun; s++ {
		var v uint64
		if n == 0 {
			v = ^uint64(0)
		} else {
			// Evenly spaced, offset to avoid always sampling index 0.
			idx := (2*s + 1) * n / (2 * perRun)
			if idx >= n {
				idx = n - 1
			}
			v = run.Get(tp, idx)
		}
		out.Set(tp, s, v)
	}
}

// partRuns materializes part t's run slices from a cut table: cuts[t][r]
// is the starting index of part t in run r, and a final row cuts[p][r] is
// len(run r).
func partRuns(runs []trace.U64, cuts [][]int, t int) []trace.U64 {
	parts := make([]trace.U64, 0, len(runs))
	for r, run := range runs {
		lo, hi := cuts[t][r], cuts[t+1][r]
		if hi < lo {
			// Sample splitters are monotone, and lowerBound on a sorted
			// run is monotone in the key, so this cannot happen; guard
			// against silent corruption anyway.
			panic("core: non-monotone run cuts")
		}
		parts = append(parts, run.Slice(lo, hi))
	}
	return parts
}

// partLen returns the total number of elements part t merges.
func partLen(cuts [][]int, t int) int {
	n := 0
	for r := range cuts[t] {
		n += cuts[t+1][r] - cuts[t][r]
	}
	return n
}
