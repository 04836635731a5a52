package core

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func farView(d []uint64) trace.U64 {
	return trace.U64{Base: addr.FarBase, D: d}
}

func randKeys(n int, seed uint64) []uint64 {
	d := make([]uint64, n)
	xrand.New(seed).Keys(d)
	return d
}

func checkSorted(t *testing.T, name string, got []uint64, wantSum uint64) {
	t.Helper()
	if !IsSorted(got) {
		t.Fatalf("%s: output not sorted", name)
	}
	if Checksum(got) != wantSum {
		t.Fatalf("%s: output is not a permutation of the input", name)
	}
}

func TestMergeSortInPlace(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000, 4096} {
		d := randKeys(n, uint64(n)+1)
		sum := Checksum(d)
		a := farView(d)
		tmp := trace.U64{Base: addr.FarBase + addr.Addr(n*8+64), D: make([]uint64, n)}
		mergeSortInPlace(nil, a, tmp)
		checkSorted(t, "mergeSortInPlace", d, sum)
	}
}

func TestMergeSortInto(t *testing.T) {
	d := randKeys(1000, 5)
	sum := Checksum(d)
	dst := make([]uint64, 1000)
	tmp := make([]uint64, 1000)
	mergeSortInto(nil, farView(dst), farView(d), trace.U64{Base: addr.NearBase, D: tmp})
	checkSorted(t, "mergeSortInto", dst, sum)
}

func TestMergeSortIntoDstAliasesTmp(t *testing.T) {
	d := randKeys(512, 9)
	sum := Checksum(d)
	buf := trace.U64{Base: addr.NearBase, D: make([]uint64, 512)}
	mergeSortInto(nil, buf, farView(d), buf)
	checkSorted(t, "mergeSortInto(alias)", buf.D, sum)
}

func TestMergeSortStability(t *testing.T) {
	// Equal keys: output must equal sort.Slice result exactly (values
	// equal), trivially true for uint64; check duplicates preserved.
	d := []uint64{5, 3, 5, 1, 3, 3, 9, 0, 5}
	want := append([]uint64(nil), d...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	tmp := make([]uint64, len(d))
	mergeSortInPlace(nil, farView(d), trace.U64{Base: addr.NearBase, D: tmp})
	for i := range d {
		if d[i] != want[i] {
			t.Fatalf("mismatch at %d: %v vs %v", i, d, want)
		}
	}
}

func TestQuickSort(t *testing.T) {
	for _, n := range []int{0, 1, 2, 15, 16, 17, 100, 1000, 5000} {
		d := randKeys(n, uint64(n)*7+3)
		sum := Checksum(d)
		QuickSort(nil, farView(d))
		checkSorted(t, "QuickSort", d, sum)
	}
}

func TestQuickSortAdversarial(t *testing.T) {
	cases := [][]uint64{
		{},
		{1},
		{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		{^uint64(0), 0, ^uint64(0), 0, ^uint64(0)},
	}
	// Sorted, reverse-sorted and constant arrays of awkward lengths.
	for n := 17; n <= 200; n += 61 {
		asc := make([]uint64, n)
		desc := make([]uint64, n)
		same := make([]uint64, n)
		for i := range asc {
			asc[i] = uint64(i)
			desc[i] = uint64(n - i)
			same[i] = 42
		}
		cases = append(cases, asc, desc, same)
	}
	for i, d := range cases {
		sum := Checksum(d)
		QuickSort(nil, farView(d))
		if !IsSorted(d) || Checksum(d) != sum {
			t.Fatalf("case %d failed: %v", i, d)
		}
	}
}

func TestQuickSortProperty(t *testing.T) {
	f := func(d []uint64) bool {
		sum := Checksum(d)
		QuickSort(nil, farView(d))
		return IsSorted(d) && Checksum(d) == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeSortProperty(t *testing.T) {
	f := func(d []uint64) bool {
		sum := Checksum(d)
		tmp := make([]uint64, len(d))
		mergeSortInPlace(nil, farView(d), trace.U64{Base: addr.NearBase, D: tmp})
		return IsSorted(d) && Checksum(d) == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInsertionSort(t *testing.T) {
	d := []uint64{5, 2, 9, 1, 7}
	insertionSort(nil, farView(d), 0, len(d))
	if !IsSorted(d) {
		t.Fatalf("insertionSort failed: %v", d)
	}
	// Partial range.
	e := []uint64{9, 5, 2, 8, 0}
	insertionSort(nil, farView(e), 1, 4)
	want := []uint64{9, 2, 5, 8, 0}
	for i := range e {
		if e[i] != want[i] {
			t.Fatalf("partial insertionSort: %v, want %v", e, want)
		}
	}
}

func TestBounds(t *testing.T) {
	d := []uint64{1, 3, 3, 3, 7, 9}
	a := farView(d)
	cases := []struct {
		key    uint64
		lb, ub int
	}{
		{0, 0, 0}, {1, 0, 1}, {2, 1, 1}, {3, 1, 4}, {5, 4, 4}, {9, 5, 6}, {10, 6, 6},
	}
	for _, c := range cases {
		if got := lowerBound(nil, a, c.key); got != c.lb {
			t.Errorf("lowerBound(%d) = %d, want %d", c.key, got, c.lb)
		}
		if got := upperBound(nil, a, c.key); got != c.ub {
			t.Errorf("upperBound(%d) = %d, want %d", c.key, got, c.ub)
		}
	}
}

func TestBoundsProperty(t *testing.T) {
	f := func(d []uint64, key uint64) bool {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		a := farView(d)
		lb, ub := lowerBound(nil, a, key), upperBound(nil, a, key)
		if lb > ub || lb < 0 || ub > len(d) {
			return false
		}
		for i := 0; i < lb; i++ {
			if d[i] >= key {
				return false
			}
		}
		for i := ub; i < len(d); i++ {
			if d[i] <= key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	d := randKeys(100, 1)
	sum := Checksum(d)
	d[50]++
	if Checksum(d) == sum {
		t.Error("checksum missed a mutation")
	}
	d[50]--
	// Permutation leaves it unchanged.
	d[0], d[99] = d[99], d[0]
	if Checksum(d) != sum {
		t.Error("checksum should be order-independent")
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted(nil) || !IsSorted([]uint64{1}) || !IsSorted([]uint64{1, 1, 2}) {
		t.Error("IsSorted false negatives")
	}
	if IsSorted([]uint64{2, 1}) {
		t.Error("IsSorted false positive")
	}
}
