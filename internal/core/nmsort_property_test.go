package core

import (
	"testing"
	"testing/quick"

	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestNMSortGeometryProperty drives NMSort across randomized geometry
// (input size, thread count, scratchpad size, bucket count, DMA on/off) and
// requires a correct sort every time.
func TestNMSortGeometryProperty(t *testing.T) {
	f := func(nRaw uint16, pRaw, mRaw, bRaw uint8, dma bool) bool {
		n := int(nRaw)%20000 + 2
		p := int(pRaw)%12 + 1
		m := units.Bytes(int(mRaw)%96+32) * units.KiB
		opt := NMOptions{DMA: dma}
		if bRaw%2 == 0 {
			opt.Buckets = int(bRaw)%120 + 2
		}
		e := NewEnv(p, m, nil, uint64(nRaw)+1)
		a := e.AllocFar(n)
		xrand.New(uint64(n * p)).Keys(a.D)
		sum := Checksum(a.D)
		NMSort(e, a, opt)
		if !IsSorted(a.D) || Checksum(a.D) != sum {
			t.Logf("n=%d p=%d m=%v opt=%+v", n, p, m, opt)
			return false
		}
		return spEmpty(e) // no scratchpad leaks either
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAllSortsAgreeOnAllDistributions cross-checks every sorting algorithm
// against every key distribution: identical outputs across algorithms.
func TestAllSortsAgreeOnAllDistributions(t *testing.T) {
	const n = 1 << 12
	for _, d := range workload.All() {
		keys := make([]uint64, n)
		workload.Fill(keys, d, 77)

		var ref []uint64
		run := func(name string, sortFn func(e *Env, a trace.U64)) {
			t.Helper()
			e := NewEnv(4, 48*units.KiB, nil, 9)
			a := e.AllocFar(n)
			copy(a.D, keys)
			sum := Checksum(a.D)
			sortFn(e, a)
			checkSorted(t, string(d)+"/"+name, a.D, sum)
			if ref == nil {
				ref = append([]uint64(nil), a.D...)
				return
			}
			for i := range ref {
				if a.D[i] != ref[i] {
					t.Fatalf("%s/%s: disagrees with reference at %d", d, name, i)
				}
			}
		}
		run("gnusort", func(e *Env, a trace.U64) { GNUSort(e, a) })
		run("gnusort-exact", func(e *Env, a trace.U64) { GNUSortOpt(e, a, GNUOptions{Exact: true}) })
		run("nmsort", func(e *Env, a trace.U64) { NMSort(e, a, NMOptions{}) })
		run("nmsort-dma", func(e *Env, a trace.U64) { NMSort(e, a, NMOptions{DMA: true}) })
		run("nmsort-scatter", func(e *Env, a trace.U64) { NMSortSmallAppends(e, a, NMOptions{}) })
		run("parsort", func(e *Env, a trace.U64) { ParScratchpadSort(e, a, SeqOptions{SampleSize: 64}) })
	}
}
