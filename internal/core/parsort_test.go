package core

import (
	"testing"

	"repro/internal/units"
)

func TestParScratchpadSortBasic(t *testing.T) {
	for _, tc := range []struct {
		n, p int
		m    units.Bytes
	}{
		{1000, 4, 64 * units.KiB},    // single leaf
		{1 << 14, 4, 32 * units.KiB}, // recursion
		{1 << 14, 8, 16 * units.KiB}, // deeper recursion
		{1 << 12, 1, 16 * units.KiB}, // degenerate single thread
		{1, 4, 32 * units.KiB},
		{0, 4, 32 * units.KiB},
	} {
		e := pureEnv(tc.p, tc.m)
		a := e.AllocFar(tc.n)
		copy(a.D, randKeys(tc.n, uint64(tc.n+tc.p)+11))
		sum := Checksum(a.D)
		st := ParScratchpadSort(e, a, SeqOptions{SampleSize: 64})
		checkSorted(t, "ParScratchpadSort", a.D, sum)
		if tc.n > 1<<13 && st.Scans == 0 {
			t.Errorf("n=%d: expected bucketizing scans, stats %+v", tc.n, st)
		}
	}
}

func TestParScratchpadSortDuplicates(t *testing.T) {
	e := pureEnv(8, 16*units.KiB)
	n := 1 << 13
	a := e.AllocFar(n)
	for i := range a.D {
		a.D[i] = uint64(i % 4)
	}
	sum := Checksum(a.D)
	ParScratchpadSort(e, a, SeqOptions{SampleSize: 32})
	checkSorted(t, "ParScratchpadSort dup", a.D, sum)
}

func TestParScratchpadSortMatchesSequential(t *testing.T) {
	// The parallel algorithm must produce identical output to the
	// sequential one (both are correct sorts, so this is mostly a
	// determinism sanity check on the same keys).
	n := 1 << 13
	mk := func(p int) []uint64 {
		e := pureEnv(p, 32*units.KiB)
		a := e.AllocFar(n)
		copy(a.D, randKeys(n, 5))
		if p == 1 {
			SeqScratchpadSort(e, a, SeqOptions{SampleSize: 64})
		} else {
			ParScratchpadSort(e, a, SeqOptions{SampleSize: 64})
		}
		return a.D
	}
	seq, parr := mk(1), mk(8)
	for i := range seq {
		if seq[i] != parr[i] {
			t.Fatalf("outputs differ at %d", i)
		}
	}
}

// TestTheorem10Scaling: the parallel sort's per-thread traced traffic
// should drop roughly as 1/p' — the block-transfer-step claim of Theorem
// 10. Total traffic stays ~constant; the simulated wall time (not measured
// here) divides it across cores.
func TestTheorem10TrafficInvariant(t *testing.T) {
	n := 1 << 14
	measure := func(p int) uint64 {
		e := tracedEnv(p, 32*units.KiB)
		a := e.AllocFar(n)
		copy(a.D, randKeys(n, 7))
		ParScratchpadSort(e, a, SeqOptions{SampleSize: 64})
		if !IsSorted(a.D) {
			t.Fatal("not sorted")
		}
		c := e.Rec.Finish(nil).Count()
		return c.Far() + c.Near()
	}
	t1, t8 := measure(1), measure(8)
	// Total line transfers must be within 2x across thread counts: the
	// work is divided, not multiplied.
	ratio := float64(t8) / float64(t1)
	if ratio > 2 || ratio < 0.5 {
		t.Errorf("total traffic changed %vx from p=1 to p=8 (t1=%d t8=%d)", ratio, t1, t8)
	}
}

func TestParScratchpadSortTracedBarriersBalanced(t *testing.T) {
	e := tracedEnv(4, 32*units.KiB)
	a := e.AllocFar(1 << 13)
	copy(a.D, randKeys(1<<13, 21))
	ParScratchpadSort(e, a, SeqOptions{SampleSize: 64})
	tr := e.Rec.Finish(nil)
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
}

func TestParScratchpadSortScratchpadReleased(t *testing.T) {
	e := pureEnv(4, 32*units.KiB)
	a := e.AllocFar(1 << 12)
	copy(a.D, randKeys(1<<12, 23))
	ParScratchpadSort(e, a, SeqOptions{SampleSize: 64})
	if !spEmpty(e) {
		t.Error("scratchpad leak: an allocation is still live")
	}
}
