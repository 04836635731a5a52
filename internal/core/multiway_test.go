package core

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func sortedRuns(seed uint64, lens []int) ([]trace.U64, []uint64) {
	rng := xrand.New(seed)
	var all []uint64
	runs := make([]trace.U64, len(lens))
	base := addr.FarBase
	for i, n := range lens {
		d := make([]uint64, n)
		rng.Keys(d)
		sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
		runs[i] = trace.U64{Base: base, D: d}
		base += addr.Addr(n*8 + 64)
		all = append(all, d...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	return runs, all
}

func TestMultiwayMerge(t *testing.T) {
	for _, lens := range [][]int{
		{10},
		{5, 5},
		{0, 10, 0},
		{1, 100, 3, 50, 7},
		{0, 0, 0},
		{64, 64, 64, 64, 64, 64, 64, 64},
	} {
		runs, want := sortedRuns(uint64(len(lens))+1, lens)
		dst := make([]uint64, len(want))
		multiwayMerge(nil, runs, trace.U64{Base: addr.NearBase, D: dst})
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("lens %v: mismatch at %d", lens, i)
			}
		}
	}
}

func TestMultiwayMergeWithMaxValues(t *testing.T) {
	// Runs containing the ^0 sentinel value must merge correctly (the
	// loser tree must not confuse them with exhausted runs).
	m := ^uint64(0)
	runs := []trace.U64{
		{Base: addr.FarBase, D: []uint64{1, m, m}},
		{Base: addr.FarBase + 1024, D: []uint64{2, m}},
		{Base: addr.FarBase + 2048, D: []uint64{m}},
	}
	dst := make([]uint64, 6)
	multiwayMerge(nil, runs, trace.U64{Base: addr.NearBase, D: dst})
	want := []uint64{1, 2, m, m, m, m}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("got %v, want %v", dst, want)
		}
	}
}

func TestLoserTreeNext(t *testing.T) {
	runs, want := sortedRuns(3, []int{7, 13, 2})
	lt := newLoserTree(nil, runs)
	for i, w := range want {
		if got := lt.next(nil); got != w {
			t.Fatalf("next %d = %d, want %d", i, got, w)
		}
	}
}

func TestLoserTreeDrainedPanics(t *testing.T) {
	lt := newLoserTree(nil, []trace.U64{{Base: addr.FarBase, D: []uint64{1}}})
	lt.next(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	lt.next(nil)
}

func TestLoserTreeSingleRun(t *testing.T) {
	runs, want := sortedRuns(4, []int{20})
	dst := make([]uint64, 20)
	multiwayMerge(nil, runs, trace.U64{Base: addr.NearBase, D: dst})
	for i := range want {
		if dst[i] != want[i] {
			t.Fatal("single-run merge broken")
		}
	}
}

func TestMultiwayMergeProperty(t *testing.T) {
	f := func(raw [][]uint64) bool {
		if len(raw) == 0 {
			return true
		}
		runs := make([]trace.U64, len(raw))
		var all []uint64
		base := addr.FarBase
		for i, d := range raw {
			d := append([]uint64(nil), d...)
			sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
			runs[i] = trace.U64{Base: base, D: d}
			base += addr.Addr(len(d)*8 + 64)
			all = append(all, d...)
		}
		sum := Checksum(all)
		dst := make([]uint64, len(all))
		multiwayMerge(nil, runs, trace.U64{Base: addr.NearBase, D: dst})
		return IsSorted(dst) && Checksum(dst) == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSampleRun(t *testing.T) {
	d := make([]uint64, 100)
	for i := range d {
		d[i] = uint64(i)
	}
	out := trace.U64{Base: addr.NearBase, D: make([]uint64, 8)}
	sampleRun(nil, farView(d), out, 8)
	for i := 1; i < 8; i++ {
		if out.D[i] <= out.D[i-1] {
			t.Fatalf("samples not increasing over sorted run: %v", out.D)
		}
	}
	// Empty run yields sentinels.
	sampleRun(nil, trace.U64{Base: addr.FarBase, D: nil}, out, 8)
	for _, v := range out.D {
		if v != ^uint64(0) {
			t.Fatal("empty run should sample sentinels")
		}
	}
}

func TestMultiwayMergeSort(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, 127, 128, 129, 1000, 1 << 14} {
		d := randKeys(n, uint64(n)+3)
		sum := Checksum(d)
		tmp := make([]uint64, n)
		out := MultiwayMergeSort(nil, farView(d),
			trace.U64{Base: addr.NearBase, D: tmp}, 128, 8)
		if !IsSorted(out.D) || Checksum(out.D) != sum {
			t.Fatalf("n=%d: MultiwayMergeSort failed", n)
		}
	}
}

func TestMultiwayMergeSortOddGeometry(t *testing.T) {
	// Run lengths and fanouts that don't divide n.
	for _, tc := range []struct{ run, fan int }{{1, 2}, {3, 3}, {7, 5}, {100, 2}} {
		n := 1000
		d := randKeys(n, 77)
		sum := Checksum(d)
		tmp := make([]uint64, n)
		out := MultiwayMergeSort(nil, farView(d),
			trace.U64{Base: addr.NearBase, D: tmp}, tc.run, tc.fan)
		if !IsSorted(out.D) || Checksum(out.D) != sum {
			t.Fatalf("run=%d fan=%d: failed", tc.run, tc.fan)
		}
	}
}

func TestCorollary3TransferOrdering(t *testing.T) {
	// Corollary 3/7: for scratchpad-resident sorts much larger than the
	// cache, quicksort's lg(x/Z) passes exceed the multiway mergesort's
	// log_{Z/B}(x/B) passes, so its near-memory transfers must be higher —
	// and the gap must grow with x.
	measure := func(n int, quick bool) float64 {
		rec := trace.NewRecorder(1, trace.L1Geometry{Capacity: 2 * 1024, LineSize: 64, Ways: 2},
			trace.DefaultCosts())
		env := NewEnv(1, 1<<26, rec, 3)
		a := env.MustAllocSP(n)
		tmp := env.MustAllocSP(n)
		copy(a.D, randKeys(n, 9))
		tp := rec.Thread(0)
		if quick {
			QuickSort(tp, a)
		} else {
			MultiwayMergeSort(tp, a, tmp, 128, 8)
		}
		return float64(rec.Finish(nil).Count().Near()) / float64(n)
	}
	const big = 1 << 18
	qBig, mBig := measure(big, true), measure(big, false)
	if qBig <= mBig {
		t.Errorf("quicksort %.2f lines/elem <= mergesort %.2f at n=%d; Corollary 3 ordering violated",
			qBig, mBig, big)
	}
	qSmall, mSmall := measure(1<<15, true), measure(1<<15, false)
	if (qBig - mBig) <= (qSmall - mSmall) {
		t.Errorf("quicksort/mergesort gap must grow with x: small %.2f, big %.2f",
			qSmall-mSmall, qBig-mBig)
	}
}
