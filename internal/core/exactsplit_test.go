package core

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/trace"
	"repro/internal/units"
)

// checkSelection verifies the defining property of exact selection: the
// union of the per-run prefixes is exactly the multiset of the r smallest
// elements.
func checkSelection(t *testing.T, runs []trace.U64, pos []int, r int) {
	t.Helper()
	var all, prefix []uint64
	sum := 0
	for i, run := range runs {
		if pos[i] < 0 || pos[i] > run.Len() {
			t.Fatalf("pos[%d] = %d out of range [0,%d]", i, pos[i], run.Len())
		}
		all = append(all, run.D...)
		prefix = append(prefix, run.D[:pos[i]]...)
		sum += pos[i]
	}
	if sum != r {
		t.Fatalf("selection covers %d elements, want %d", sum, r)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	sort.Slice(prefix, func(a, b int) bool { return prefix[a] < prefix[b] })
	for i := range prefix {
		if prefix[i] != all[i] {
			t.Fatalf("prefix[%d] = %d, want %d (not the r smallest)", i, prefix[i], all[i])
		}
	}
}

func TestExactSelectBasic(t *testing.T) {
	runs, all := sortedRuns(1, []int{10, 20, 5})
	for _, r := range []int{0, 1, 5, 17, 34, len(all)} {
		pos := exactSelect(nil, runs, r)
		checkSelection(t, runs, pos, r)
	}
}

func TestExactSelectEmptyAndSkewedRuns(t *testing.T) {
	runs, all := sortedRuns(2, []int{0, 100, 0, 1, 0})
	for r := 0; r <= len(all); r += 13 {
		checkSelection(t, runs, exactSelect(nil, runs, r), r)
	}
}

func TestExactSelectAllEqual(t *testing.T) {
	runs := []trace.U64{
		{Base: addr.FarBase, D: []uint64{7, 7, 7}},
		{Base: addr.FarBase + 1024, D: []uint64{7, 7}},
		{Base: addr.FarBase + 2048, D: []uint64{7, 7, 7, 7}},
	}
	for r := 0; r <= 9; r++ {
		checkSelection(t, runs, exactSelect(nil, runs, r), r)
	}
}

func TestExactSelectRankBoundsPanic(t *testing.T) {
	runs, _ := sortedRuns(3, []int{4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	exactSelect(nil, runs, 5)
}

func TestExactSelectProperty(t *testing.T) {
	f := func(raw [][]uint64, rankRaw uint16) bool {
		runs := make([]trace.U64, len(raw))
		total := 0
		base := addr.FarBase
		for i, d := range raw {
			d := append([]uint64(nil), d...)
			sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
			runs[i] = trace.U64{Base: base, D: d}
			base += addr.Addr(len(d)*8 + 64)
			total += len(d)
		}
		if total == 0 {
			return true
		}
		r := int(rankRaw) % (total + 1)
		pos := exactSelect(nil, runs, r)
		var all, prefix []uint64
		sum := 0
		for i, run := range runs {
			all = append(all, run.D...)
			prefix = append(prefix, run.D[:pos[i]]...)
			sum += pos[i]
		}
		if sum != r {
			return false
		}
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		sort.Slice(prefix, func(a, b int) bool { return prefix[a] < prefix[b] })
		for i := range prefix {
			if prefix[i] != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGNUSortExact(t *testing.T) {
	for _, n := range []int{100, 1 << 13, 1 << 15} {
		e := pureEnv(8, units.MiB)
		a := e.AllocFar(n)
		copy(a.D, randKeys(n, uint64(n)+5))
		sum := Checksum(a.D)
		GNUSortOpt(e, a, GNUOptions{Exact: true})
		checkSorted(t, "GNUSort exact", a.D, sum)
	}
}

func TestGNUSortExactSkewed(t *testing.T) {
	// Constant keys: sampled splitting degenerates to one giant part;
	// exact splitting must still sort (trivially) with balanced parts.
	e := pureEnv(8, units.MiB)
	n := 1 << 14
	a := e.AllocFar(n)
	for i := range a.D {
		a.D[i] = uint64(i % 2)
	}
	sum := Checksum(a.D)
	GNUSortOpt(e, a, GNUOptions{Exact: true})
	checkSorted(t, "GNUSort exact skew", a.D, sum)
}

func TestPMMergeExactMatchesSampled(t *testing.T) {
	mk := func(exact bool) []uint64 {
		e := pureEnv(4, units.MiB)
		n := 1 << 12
		a := e.AllocFar(n)
		copy(a.D, randKeys(n, 17))
		GNUSortOpt(e, a, GNUOptions{Exact: exact})
		return a.D
	}
	x, s := mk(true), mk(false)
	for i := range x {
		if x[i] != s[i] {
			t.Fatalf("exact and sampled sorts disagree at %d", i)
		}
	}
}
