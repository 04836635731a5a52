package machine

import (
	"math/rand"
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

// monotoneSlack is how much slower a replay may get when only near-memory
// channels are added: one worst-case far access — precharge, activate, CAS
// and the line's burst. More near bandwidth moves near fills earlier, which
// can reorder two cores' requests at the shared far channel; the one that now
// loses the race can find its row closed and wait out a full row miss, and if
// that happens on the critical path's last far access nothing later absorbs
// it. Strict monotonicity is therefore not a property of the model.
func monotoneSlack(cfg Config) units.Time {
	return cfg.Far.TRp + cfg.Far.TRcd + cfg.Far.TCas + cfg.Far.ChannelBW.TransferTime(cfg.Far.LineSize)
}

// bandwidthLadder replays tr on the tiny node at 2, 8 and 32 near channels.
func bandwidthLadder(t *testing.T, tr *trace.Trace) (times [3]units.Time) {
	t.Helper()
	for i, ch := range []int{2, 8, 32} {
		res, err := Run(TinyConfig(ch, 64*units.MiB), tr)
		if err != nil {
			t.Fatal(err)
		}
		times[i] = res.SimTime
	}
	return times
}

// TestReplayMonotoneInBandwidth: for a fixed trace, more near-memory
// channels never make the replay slower by more than monotoneSlack. The
// inputs come from a fixed source: a suite that gates merges does not draw a
// fresh sample of a property known to have counterexamples.
func TestReplayMonotoneInBandwidth(t *testing.T) {
	slack := monotoneSlack(TinyConfig(2, 64*units.MiB))
	f := func(ops []uint32) bool {
		if len(ops) == 0 {
			return true
		}
		times := bandwidthLadder(t, randomTrace(ops, 4, false))
		for i := 1; i < len(times); i++ {
			if times[i] > times[i-1]+slack {
				t.Logf("rung %d slower by more than %v: %v > %v", i, slack, times[i], times[i-1])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(2015))}); err != nil {
		t.Error(err)
	}
}

// TestReplayBandwidthAnomaly pins the counterexample to strict monotonicity
// — the worst of 113 found in 150 000 generated traces, where about one in
// 1 300 has one: 8 near channels replay it 43.959 ns slower than 2, within
// monotoneSlack (46.505 ns). If a kernel change makes it vanish, find the
// next one before tightening the property above.
func TestReplayBandwidthAnomaly(t *testing.T) {
	ops := []uint32{
		0x53b90152, 0xfed17ae8, 0x969136e5, 0xfa954775, 0x296b6974, 0xad85905a, 0xc6b9a55c, 0x4e69e788,
		0xe10bc166, 0xd5b86168, 0x6bea39aa, 0x883f1c57, 0xd80b73e8, 0x196c7c61, 0x16c5dcca, 0x552eecfd,
		0x73125e, 0x9c7419b6, 0xd3693f4, 0xcc45d7b, 0xd4bf4503, 0x30db6197, 0x126a13b, 0xa1878682,
		0xd8d40071, 0xe3b547c8, 0x44226f6, 0x8b813648, 0x2075563, 0x9fc5f30f, 0x833ddde4, 0xbff8af2c,
		0x214f8148, 0x5d8882af, 0x9d631f17, 0x63a40d5e, 0x7fea9c7b, 0x7148214d, 0x2af7b157, 0xc9335327,
		0x4b0b475f, 0x73445975, 0x2dd242e9, 0x5eb3eeb8, 0x5d29086a, 0x67034255,
	}
	times := bandwidthLadder(t, randomTrace(ops, 4, false))
	slack := monotoneSlack(TinyConfig(2, 64*units.MiB))
	if d := times[1] - times[0]; d <= 0 || d > slack {
		t.Fatalf("8 channels vs 2: %v vs %v (%+v); want slower, by at most %v", times[1], times[0], d, slack)
	}
	if times[2] > times[1] {
		t.Fatalf("32 channels slower than 8: %v > %v", times[2], times[1])
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
