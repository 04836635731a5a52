package core

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestSeqSortSmallInput(t *testing.T) {
	// Input fits in the scratchpad: single leaf sort, depth 1.
	e := pureEnv(1, 64*units.KiB)
	a := e.AllocFar(1000)
	copy(a.D, randKeys(1000, 1))
	sum := Checksum(a.D)
	st := SeqScratchpadSort(e, a, SeqOptions{})
	checkSorted(t, "SeqSort small", a.D, sum)
	if st.Scans != 0 || st.Depth != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSeqSortRecursive(t *testing.T) {
	// Input much larger than the scratchpad: at least one bucketizing scan.
	e := pureEnv(1, 16*units.KiB) // 2048 elements of scratchpad
	n := 1 << 14
	a := e.AllocFar(n)
	copy(a.D, randKeys(n, 2))
	sum := Checksum(a.D)
	st := SeqScratchpadSort(e, a, SeqOptions{SampleSize: 64})
	checkSorted(t, "SeqSort recursive", a.D, sum)
	if st.Scans < 1 {
		t.Errorf("expected a bucketizing scan: %+v", st)
	}
	if st.Depth < 2 {
		t.Errorf("expected recursion: %+v", st)
	}
	if st.GoodSplits+st.BadSplits == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSeqSortDuplicates(t *testing.T) {
	e := pureEnv(1, 16*units.KiB)
	n := 1 << 13
	a := e.AllocFar(n)
	for i := range a.D {
		a.D[i] = uint64(i % 5)
	}
	sum := Checksum(a.D)
	SeqScratchpadSort(e, a, SeqOptions{SampleSize: 32})
	checkSorted(t, "SeqSort dup", a.D, sum)
}

func TestSeqSortAlreadySorted(t *testing.T) {
	e := pureEnv(1, 16*units.KiB)
	n := 1 << 13
	a := e.AllocFar(n)
	for i := range a.D {
		a.D[i] = uint64(i)
	}
	sum := Checksum(a.D)
	SeqScratchpadSort(e, a, SeqOptions{SampleSize: 32})
	checkSorted(t, "SeqSort sorted", a.D, sum)
}

func TestSeqSortRequiresSingleThread(t *testing.T) {
	e := pureEnv(2, 64*units.KiB)
	a := e.AllocFar(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for P != 1")
		}
	}()
	SeqScratchpadSort(e, a, SeqOptions{})
}

// TestLemma5SplitQuality validates the randomized analysis: with sample
// size m, the probability of a bad split (child > parent/sqrt(m)) is
// roughly e^{-sqrt(m)}, so good splits must dominate overwhelmingly.
func TestLemma5SplitQuality(t *testing.T) {
	e := pureEnv(1, 16*units.KiB)
	n := 1 << 15
	a := e.AllocFar(n)
	copy(a.D, randKeys(n, 44))
	st := SeqScratchpadSort(e, a, SeqOptions{SampleSize: 256})
	if !IsSorted(a.D) {
		t.Fatal("not sorted")
	}
	frac := float64(st.BadSplits) / float64(st.GoodSplits+st.BadSplits)
	// e^{-sqrt(256)} is astronomically small; allow generous slack for the
	// constant-factor differences of a real implementation.
	if frac > 0.05 {
		t.Errorf("bad-split fraction %.4f too high (stats %+v)", frac, st)
	}
}

// TestLemma5ScanCount checks the recursion depth stays within a small
// constant of log_m(N/M) + 1.
func TestLemma5ScanCount(t *testing.T) {
	e := pureEnv(1, 16*units.KiB) // group ≈ 800 elements with m=256
	n := 1 << 15
	a := e.AllocFar(n)
	copy(a.D, randKeys(n, 45))
	st := SeqScratchpadSort(e, a, SeqOptions{SampleSize: 256})
	// log_m(N/group): group ~ 768, N/group ~ 43, log_256(43) < 1, so depth
	// should be 2 (one scan) — allow up to 3 for sampling variance.
	want := 1 + math.Ceil(math.Log(float64(n)/768)/math.Log(256))
	if float64(st.Depth) > want+1 {
		t.Errorf("depth %d exceeds Lemma 5 expectation %v (stats %+v)", st.Depth, want, st)
	}
}

func TestSeqSortTracedTheorem6Shape(t *testing.T) {
	// Block-transfer validation at the trace level: the sequential sort's
	// far traffic should scale ~linearly in N while the input exceeds the
	// scratchpad by a constant factor (a fixed number of scans).
	run := func(n int) uint64 {
		e := tracedEnv(1, 16*units.KiB)
		a := e.AllocFar(n)
		copy(a.D, randKeys(n, uint64(n)))
		SeqScratchpadSort(e, a, SeqOptions{SampleSize: 64})
		if !IsSorted(a.D) {
			t.Fatal("not sorted")
		}
		return e.Rec.Finish(nil).Count().Far()
	}
	f1, f2 := run(1<<13), run(1<<14)
	ratio := float64(f2) / float64(f1)
	if ratio < 1.6 || ratio > 3.2 {
		t.Errorf("far traffic ratio for 2x input = %.2f, want ~2 (f1=%d f2=%d)", ratio, f1, f2)
	}
}
