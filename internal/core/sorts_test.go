package core

import (
	"testing"

	"repro/internal/par"
	"repro/internal/trace"
	"repro/internal/units"
)

// pureEnv builds an untraced environment.
func pureEnv(p int, m units.Bytes) *Env { return NewEnv(p, m, nil, 42) }

// spEmpty reports whether e's scratchpad holds no live allocation: only
// then can one allocation take all of it.
func spEmpty(e *Env) bool {
	a, ok := e.SP.SPMalloc(uint64(e.M))
	if ok {
		e.SP.SPFree(a)
	}
	return ok
}

// tracedEnv builds a recording environment with a small L1.
func tracedEnv(p int, m units.Bytes) *Env {
	rec := trace.NewRecorder(p, trace.L1Geometry{Capacity: 4 * units.KiB, LineSize: 64, Ways: 2},
		trace.DefaultCosts())
	return NewEnv(p, m, rec, 42)
}

func TestGNUSortPure(t *testing.T) {
	for _, tc := range []struct{ n, p int }{
		{0, 4}, {1, 4}, {100, 1}, {100, 4}, {1000, 3}, {1 << 14, 8}, {1 << 14, 16},
	} {
		e := pureEnv(tc.p, units.MiB)
		a := e.AllocFar(tc.n)
		copy(a.D, randKeys(tc.n, uint64(tc.n+tc.p)))
		sum := Checksum(a.D)
		GNUSort(e, a)
		checkSorted(t, "GNUSort", a.D, sum)
	}
}

func TestGNUSortMoreThreadsThanElements(t *testing.T) {
	e := pureEnv(16, units.MiB)
	a := e.AllocFar(5)
	copy(a.D, []uint64{5, 4, 3, 2, 1})
	sum := Checksum(a.D)
	GNUSort(e, a)
	checkSorted(t, "GNUSort tiny", a.D, sum)
}

func TestGNUSortDuplicateHeavy(t *testing.T) {
	e := pureEnv(8, units.MiB)
	a := e.AllocFar(4096)
	for i := range a.D {
		a.D[i] = uint64(i % 7)
	}
	sum := Checksum(a.D)
	GNUSort(e, a)
	checkSorted(t, "GNUSort dup", a.D, sum)
}

func TestNMSortPure(t *testing.T) {
	for _, tc := range []struct {
		n, p int
		m    units.Bytes
	}{
		{1 << 14, 4, 32 * units.KiB}, // many chunks
		{1 << 14, 8, 64 * units.KiB},
		{1 << 12, 1, 32 * units.KiB}, // sequential NMsort
		{1000, 4, 256 * units.KiB},   // single chunk
		{1, 4, 32 * units.KiB},
		{0, 4, 32 * units.KiB},
	} {
		e := pureEnv(tc.p, tc.m)
		a := e.AllocFar(tc.n)
		copy(a.D, randKeys(tc.n, uint64(tc.n+tc.p)+7))
		sum := Checksum(a.D)
		st := NMSort(e, a, NMOptions{})
		checkSorted(t, "NMSort", a.D, sum)
		if tc.n > 1 && st.Chunks < 1 {
			t.Errorf("n=%d: stats chunks = %d", tc.n, st.Chunks)
		}
	}
}

func TestNMSortMultipleChunksAndBatches(t *testing.T) {
	e := pureEnv(8, 32*units.KiB) // ~4K elements of scratchpad
	n := 1 << 15                  // forces many chunks
	a := e.AllocFar(n)
	copy(a.D, randKeys(n, 99))
	sum := Checksum(a.D)
	st := NMSort(e, a, NMOptions{})
	checkSorted(t, "NMSort multi", a.D, sum)
	if st.Chunks < 4 {
		t.Errorf("expected several chunks, got %d", st.Chunks)
	}
	if st.Batches < 2 {
		t.Errorf("expected several batches, got %d", st.Batches)
	}
	if st.MaxBatchElems > st.ChunkElems {
		t.Errorf("batch %d exceeds scratchpad buffer %d", st.MaxBatchElems, st.ChunkElems)
	}
}

func TestNMSortDuplicateHeavy(t *testing.T) {
	e := pureEnv(8, 32*units.KiB)
	n := 1 << 14
	a := e.AllocFar(n)
	for i := range a.D {
		a.D[i] = uint64(i % 3) // three distinct keys: brutal bucket skew
	}
	sum := Checksum(a.D)
	// With three distinct values, buckets necessarily exceed the chunk
	// buffer; those fall back to direct far-to-far merging and the sort
	// must still be correct.
	st := NMSort(e, a, NMOptions{})
	checkSorted(t, "NMSort skew", a.D, sum)
	if st.Batches == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNMSortExplicitGeometry(t *testing.T) {
	e := pureEnv(4, 128*units.KiB)
	n := 1 << 13
	a := e.AllocFar(n)
	copy(a.D, randKeys(n, 123))
	sum := Checksum(a.D)
	st := NMSort(e, a, NMOptions{Buckets: 64})
	checkSorted(t, "NMSort explicit", a.D, sum)
	if st.Buckets != 64 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNMSortDMA(t *testing.T) {
	e := pureEnv(8, 64*units.KiB)
	n := 1 << 14
	a := e.AllocFar(n)
	copy(a.D, randKeys(n, 321))
	sum := Checksum(a.D)
	NMSort(e, a, NMOptions{DMA: true})
	checkSorted(t, "NMSort DMA", a.D, sum)
}

func TestNMSortMetadataOverheadSmall(t *testing.T) {
	// The paper bounds the metadata overhead below 1% for B=128; with our
	// default geometry it must stay a small fraction.
	e := pureEnv(8, 256*units.KiB)
	n := 1 << 16
	a := e.AllocFar(n)
	copy(a.D, randKeys(n, 55))
	st := NMSort(e, a, NMOptions{})
	if ov := st.MetadataOverhead(); ov > 0.10 {
		t.Errorf("metadata overhead %.3f too large (stats %+v)", ov, st)
	}
}

func TestNMSortScratchpadReleased(t *testing.T) {
	e := pureEnv(4, 64*units.KiB)
	a := e.AllocFar(1 << 12)
	copy(a.D, randKeys(1<<12, 77))
	NMSort(e, a, NMOptions{})
	if !spEmpty(e) {
		t.Error("scratchpad leak: an allocation is still live")
	}
	// A second run on the same Env must work.
	b := e.AllocFar(1 << 12)
	copy(b.D, randKeys(1<<12, 78))
	sum := Checksum(b.D)
	NMSort(e, b, NMOptions{})
	checkSorted(t, "NMSort reuse", b.D, sum)
}

func TestNMSortTraced(t *testing.T) {
	e := tracedEnv(4, 32*units.KiB)
	n := 1 << 13
	a := e.AllocFar(n)
	copy(a.D, randKeys(n, 13))
	sum := Checksum(a.D)
	NMSort(e, a, NMOptions{})
	checkSorted(t, "NMSort traced", a.D, sum)
	tr := e.Rec.Finish(nil)
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	c := tr.Count()
	if c.Near() == 0 {
		t.Error("NMsort must touch near memory")
	}
	if c.Far() == 0 {
		t.Error("NMsort must touch far memory")
	}
}

func TestGNUSortTracedNeverTouchesNear(t *testing.T) {
	e := tracedEnv(4, 32*units.KiB)
	n := 1 << 13
	a := e.AllocFar(n)
	copy(a.D, randKeys(n, 14))
	GNUSort(e, a)
	tr := e.Rec.Finish(nil)
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if c := tr.Count(); c.Near() != 0 {
		t.Errorf("baseline touched near memory %d times", c.Near())
	}
}

func TestNMSortHalvesFarTraffic(t *testing.T) {
	// The headline Table I observation: NMsort makes roughly half the far
	// accesses of the baseline because every comparison pass runs against
	// the scratchpad. Check the L1-filtered far line counts.
	n := 1 << 14
	gnu := tracedEnv(4, 32*units.KiB)
	ag := gnu.AllocFar(n)
	copy(ag.D, randKeys(n, 15))
	GNUSort(gnu, ag)
	gc := gnu.Rec.Finish(nil).Count()

	nm := tracedEnv(4, 32*units.KiB)
	an := nm.AllocFar(n)
	copy(an.D, randKeys(n, 15))
	NMSort(nm, an, NMOptions{})
	nc := nm.Rec.Finish(nil).Count()

	if ratio := float64(nc.Far()) / float64(gc.Far()); ratio > 0.7 {
		t.Errorf("NMsort far traffic ratio %.2f; want well below 1 (gnu=%d nm=%d)",
			ratio, gc.Far(), nc.Far())
	}
}

func TestDeterministicTraces(t *testing.T) {
	mk := func() trace.LevelCounts {
		e := tracedEnv(4, 32*units.KiB)
		a := e.AllocFar(1 << 12)
		copy(a.D, randKeys(1<<12, 200))
		NMSort(e, a, NMOptions{})
		return e.Rec.Finish(nil).Count()
	}
	if a, b := mk(), mk(); a != b {
		t.Errorf("recorded traffic not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestPMSortStandalone(t *testing.T) {
	// PMSort via GNUSort is covered above; exercise it directly with
	// p > n and odd lengths.
	e := pureEnv(8, units.MiB)
	for _, n := range []int{3, 17, 255, 1024} {
		src := e.AllocFar(n)
		dst := e.AllocFar(n)
		sample := e.AllocFar(SampleLen(8))
		sampleTmp := e.AllocFar(SampleLen(8))
		copy(src.D, randKeys(n, uint64(n)))
		sum := Checksum(src.D)
		ps := NewPMSort(8, src, dst, dst, sample, sampleTmp, par.NewBarrier(8))
		runAll(8, ps.Run)
		checkSorted(t, "PMSort", dst.D, sum)
	}
}

// runAll drives a phase function from p logical threads in pure mode
// (nil recorder, so every probe is nil) through the par.Run fork-join.
func runAll(p int, f func(tid int, tp *trace.TP)) {
	par.Run(p, nil, f)
}

func TestNMSortSmallAppendsCorrect(t *testing.T) {
	for _, tc := range []struct {
		n, p int
		m    units.Bytes
	}{
		{1 << 13, 4, 64 * units.KiB},
		{1 << 14, 8, 64 * units.KiB},
		{1 << 12, 1, 32 * units.KiB},
		{100, 4, 64 * units.KiB},
	} {
		e := pureEnv(tc.p, tc.m)
		a := e.AllocFar(tc.n)
		copy(a.D, randKeys(tc.n, uint64(tc.n)+31))
		sum := Checksum(a.D)
		st := NMSortSmallAppends(e, a, NMOptions{})
		checkSorted(t, "NMSortSmallAppends", a.D, sum)
		if tc.n > 1 && st.Buckets < 2 {
			t.Errorf("stats = %+v", st)
		}
	}
}

func TestNMSortSmallAppendsCostsMore(t *testing.T) {
	// The whole point of the ablation: the scattered variant must record
	// more atomics (cursor bumps) and at least as much far traffic as the
	// metadata-batched NMsort on the same input.
	n := 1 << 14
	run := func(scatter bool) trace.LevelCounts {
		e := tracedEnv(8, 64*units.KiB)
		a := e.AllocFar(n)
		copy(a.D, randKeys(n, 77))
		if scatter {
			NMSortSmallAppends(e, a, NMOptions{})
		} else {
			NMSort(e, a, NMOptions{})
		}
		if !IsSorted(a.D) {
			t.Fatal("not sorted")
		}
		return e.Rec.Finish(nil).Count()
	}
	batched, scattered := run(false), run(true)
	if scattered.Atomics == 0 {
		t.Error("scattered variant must use atomic cursor reservations")
	}
	if batched.Atomics >= scattered.Atomics {
		t.Errorf("batched NMsort uses %d atomics vs scattered %d; ablation inverted",
			batched.Atomics, scattered.Atomics)
	}
}

func TestNMSortSmallAppendsScratchpadReleased(t *testing.T) {
	e := pureEnv(4, 64*units.KiB)
	a := e.AllocFar(1 << 12)
	copy(a.D, randKeys(1<<12, 9))
	NMSortSmallAppends(e, a, NMOptions{})
	if !spEmpty(e) {
		t.Error("scratchpad leak: an allocation is still live")
	}
}
