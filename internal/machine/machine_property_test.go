package machine

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/trace"
	"repro/internal/units"
)

// randomTrace builds a structurally valid trace from fuzz input: every
// thread performs the same number of barriers and the addresses stay
// inside the memory windows. withDMA mixes in background bulk copies;
// the monotonicity property excludes them because a copy occupies every
// channel of both devices, so its contention with demand fills is not
// monotone in channel count.
func randomTrace(ops []uint32, threads int, withDMA bool) *trace.Trace {
	rec := trace.NewRecorder(threads, tinyL1(), trace.DefaultCosts())
	barriers := 0
	for i, o := range ops {
		tp := rec.Thread(i % threads)
		a := addr.FarBase + addr.Addr(o%(1<<22))*8
		if o%3 == 0 {
			a = addr.NearBase + addr.Addr(o%(1<<20))*8
		}
		switch o % 6 {
		case 0, 1:
			tp.Load(a, 8)
		case 2:
			tp.Store(a, 8)
		case 3:
			tp.Compute(int64(o % 4096))
		case 4:
			tp.Atomic(a)
		case 5:
			if !withDMA {
				tp.Compute(int64(o % 512))
				break
			}
			// Background bulk copies in both directions, sometimes waited
			// on, sometimes left outstanding at stream end (the replay
			// must drain them either way).
			n := int(o%256+1) * 64
			far := addr.FarBase + addr.Addr(o%4096)*64
			near := addr.NearBase + addr.Addr(o%4096)*64
			if o%2 == 0 {
				tp.DMA(far, near, n)
			} else {
				tp.DMA(near, far, n)
			}
			if o%7 == 0 {
				tp.DMAWait()
			}
		}
		if o%97 == 0 {
			// Global barrier: every thread must cross it.
			for t := 0; t < threads; t++ {
				rec.Thread(t).Barrier()
			}
			barriers++
		}
	}
	_ = barriers
	return rec.Finish()
}

// TestReplayPropertyInvariants replays fuzzed traces and checks structural
// invariants of the result.
func TestReplayPropertyInvariants(t *testing.T) {
	f := func(ops []uint32, threadsRaw uint8) bool {
		threads := int(threadsRaw%8) + 1
		tr := randomTrace(ops, threads, true)
		m := New(TinyConfig(8, 64*units.MiB))
		res, err := m.Replay(tr)
		if err != nil {
			t.Logf("replay error: %v", err)
			return false
		}
		// (1) Simulated time advances iff the trace has content.
		if tr.Ops() > threads && res.SimTime <= 0 {
			t.Logf("no time advanced for %d ops", tr.Ops())
			return false
		}
		// (2) Device accesses cannot exceed the trace's line ops plus L2
		// writebacks (the L2 only filters, never amplifies reads). Each
		// DMA copy adds its line count on both the source (reads) and the
		// destination (writes) device.
		c := tr.Count()
		dec, err := tr.Decoded()
		if err != nil {
			t.Logf("decode error: %v", err)
			return false
		}
		var dmaLines uint64
		for _, s := range dec.Streams {
			for _, op := range s {
				if op.Kind == trace.OpDMA {
					dmaLines += uint64(op.Size+63) / 64
				}
			}
		}
		maxDev := c.Far() + c.Near() + c.Atomics + res.L2.Writebacks + 2*dmaLines
		if res.FarAccesses+res.NearAccesses > maxDev {
			t.Logf("device accesses %d exceed trace lines %d",
				res.FarAccesses+res.NearAccesses, maxDev)
			return false
		}
		// (3) Atomics bypass caches entirely: device writes at least the
		// atomic count.
		if res.FarStats.Writes+res.NearStats.Writes < c.Atomics {
			t.Logf("atomics lost: %d device writes < %d atomics",
				res.FarStats.Writes+res.NearStats.Writes, c.Atomics)
			return false
		}
		// (4) Utilization is a fraction of elapsed time: 0 <= u <= 1 for
		// every device. Values above 1 mean Run() returned before posted
		// traffic drained.
		for _, u := range []float64{res.FarUtilization, res.NearUtilization, res.NoCUtilization} {
			if u < 0 || u > 1 {
				t.Logf("utilization %v outside [0,1] (far=%v near=%v noc=%v)",
					u, res.FarUtilization, res.NearUtilization, res.NoCUtilization)
				return false
			}
		}
		// (5) The replay drained: no resource is still busy past SimTime.
		if res.SimTime < m.far.BusyUntil() || res.SimTime < m.near.BusyUntil() ||
			res.SimTime < m.nw.BusyUntil() {
			t.Logf("SimTime %v before busy end (far=%v near=%v noc=%v)",
				res.SimTime, m.far.BusyUntil(), m.near.BusyUntil(), m.nw.BusyUntil())
			return false
		}
		// (6) Every recorded barrier must have released.
		wantBarriers := 0
		for _, op := range dec.Streams[0] {
			if op.Kind == trace.OpBarrier {
				wantBarriers++
			}
		}
		return len(res.BarrierTimes) == wantBarriers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestReplayMonotoneInBandwidth: for a fixed trace, more near-memory
// channels can never make the replay slower.
func TestReplayMonotoneInBandwidth(t *testing.T) {
	f := func(ops []uint32) bool {
		if len(ops) == 0 {
			return true
		}
		tr := randomTrace(ops, 4, false)
		var prev units.Time
		first := true
		for _, ch := range []int{2, 8, 32} {
			res, err := Run(TinyConfig(ch, 64*units.MiB), tr)
			if err != nil {
				return false
			}
			if !first && res.SimTime > prev {
				t.Logf("channels %d slower: %v > %v", ch, res.SimTime, prev)
				return false
			}
			prev, first = res.SimTime, false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestReplayTimeLowerBound: the simulated time is at least the slowest
// single thread's pure compute (gaps can only be extended by memory
// stalls, never compressed).
func TestReplayTimeLowerBound(t *testing.T) {
	tr := record(3, func(tid int, tp *trace.TP) {
		tp.Compute(int64(1000 * (tid + 1)))
		tp.Load(addr.FarBase+addr.Addr(tid*4096), 8)
	})
	res, err := Run(TinyConfig(8, units.MiB), tr)
	if err != nil {
		t.Fatal(err)
	}
	period := units.Hz(1.7e9).Period()
	if res.SimTime < 3000*period {
		t.Errorf("SimTime %v below slowest thread's compute %v", res.SimTime, 3000*period)
	}
}

// TestMSHRLimitRespected: with MaxOutstanding=1 a burst of independent
// loads serializes; deeper MSHRs overlap them.
func TestMSHRLimitRespected(t *testing.T) {
	mk := func() *trace.Trace {
		return record(1, func(tid int, tp *trace.TP) {
			for i := 0; i < 64; i++ {
				tp.Load(addr.FarBase+addr.Addr(i*4096), 8)
			}
		})
	}
	shallow := TinyConfig(8, units.MiB)
	shallow.MaxOutstanding = 1
	deep := TinyConfig(8, units.MiB)
	deep.MaxOutstanding = 16
	rs, err := Run(shallow, mk())
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Run(deep, mk())
	if err != nil {
		t.Fatal(err)
	}
	if speedup := float64(rs.SimTime) / float64(rd.SimTime); speedup < 3 {
		t.Errorf("MSHR depth 16 vs 1 only sped up %.1fx", speedup)
	}
}

// TestL2SharingWithinGroup: cores of one group share an L2; cores of
// different groups do not.
func TestL2SharingWithinGroup(t *testing.T) {
	// Threads 0 and 1 are in group 0 (4 cores/group); thread 4 would be
	// group 1. Same-line loads from the same group hit; from different
	// groups both miss.
	sameGroup := record(2, func(tid int, tp *trace.TP) {
		tp.Load(addr.FarBase, 8)
	})
	res, err := Run(TinyConfig(8, units.MiB), sameGroup)
	if err != nil {
		t.Fatal(err)
	}
	if res.FarAccesses != 1 {
		t.Errorf("same-group sharing broken: %d far accesses", res.FarAccesses)
	}

	rec := trace.NewRecorder(5, tinyL1(), trace.DefaultCosts())
	rec.Thread(0).Load(addr.FarBase, 8)
	rec.Thread(4).Load(addr.FarBase, 8) // different quad-core group
	tr := rec.Finish()
	res, err = Run(TinyConfig(8, units.MiB), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.FarAccesses != 2 {
		t.Errorf("cross-group isolation broken: %d far accesses, want 2", res.FarAccesses)
	}
}
