package machine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/trace"
	"repro/internal/units"
)

func tinyL1() trace.L1Geometry {
	return trace.L1Geometry{Capacity: 256, LineSize: 64, Ways: 2}
}

// record builds a trace with p threads by running body per thread
// sequentially (deterministic, no goroutines needed for these tests).
func record(p int, body func(tid int, tp *trace.TP)) *trace.Trace {
	rec := trace.NewRecorder(p, tinyL1(), trace.DefaultCosts())
	for i := 0; i < p; i++ {
		body(i, rec.Thread(i))
	}
	return rec.Finish()
}

func TestConfigValidate(t *testing.T) {
	cfg := TinyConfig(8, units.MiB)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("TinyConfig invalid: %v", err)
	}
	p := PaperConfig(16, 64*units.MiB)
	if err := p.Validate(); err != nil {
		t.Fatalf("PaperConfig invalid: %v", err)
	}
	bad := p
	bad.Cores = 255 // not divisible by 4
	if err := bad.Validate(); err == nil {
		t.Error("expected validation error")
	}
	bad = p
	bad.NoC.Groups = 3
	if err := bad.Validate(); err == nil {
		t.Error("expected NoC mismatch error")
	}
}

// TestConfigValidateL2Geometry: a bad shared-L2 geometry is a Validate error
// that names the fields and carries cachesim's reason — not a panic from
// inside cachesim.New that names neither.
func TestConfigValidateL2Geometry(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero capacity", func(c *Config) { c.L2Capacity = 0 }, "non-positive geometry"},
		{"zero ways", func(c *Config) { c.L2Ways = 0 }, "non-positive geometry"},
		{"too many ways", func(c *Config) { c.L2Ways = 32 }, "at most 16"},
		{"capacity not a whole number of sets", func(c *Config) { c.L2Ways = 3 }, "not divisible"},
		{"set count not a power of two", func(c *Config) { c.L2Capacity = 48 * units.KiB }, "power of two"},
		{"line size not a power of two", func(c *Config) {
			c.LineSize, c.Far.LineSize, c.Near.LineSize = 48, 48, 48
		}, "line size 48"},
	} {
		cfg := TinyConfig(8, units.MiB)
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
			continue
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "machine: L2Capacity/LineSize/L2Ways: cachesim: ") || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: error %q, want the L2 fields named and %q", tc.name, msg, tc.want)
		}
	}
}

func TestBandwidthExpansion(t *testing.T) {
	for _, tc := range []struct {
		channels int
		want     float64
	}{{8, 2}, {16, 4}, {32, 8}} {
		cfg := PaperConfig(tc.channels, 64*units.MiB)
		if got := cfg.BandwidthExpansion(); got != tc.want {
			t.Errorf("%d near channels: rho = %v, want %v", tc.channels, got, tc.want)
		}
	}
}

func TestSingleFillTiming(t *testing.T) {
	tr := record(1, func(tid int, tp *trace.TP) {
		tp.Load(addr.FarBase, 8)
	})
	res, err := Run(TinyConfig(8, units.MiB), tr)
	if err != nil {
		t.Fatal(err)
	}
	// One fill: L2 port+latency, NoC hop, DRAM closed-row access
	// (tRCD+tCAS = 26ns) + 64B bus, NoC hop back. Must land in a
	// plausible 40–200ns window.
	if res.SimTime < 40*units.Nanosecond || res.SimTime > 200*units.Nanosecond {
		t.Errorf("single fill took %v", res.SimTime)
	}
	if res.FarAccesses != 1 {
		t.Errorf("FarAccesses = %d, want 1", res.FarAccesses)
	}
	if res.NearAccesses != 0 {
		t.Errorf("NearAccesses = %d, want 0", res.NearAccesses)
	}
}

func TestL2HitFasterThanMiss(t *testing.T) {
	// Two threads in the same group touching the same line: the second
	// thread's fill should hit in the shared L2.
	tr := record(2, func(tid int, tp *trace.TP) {
		tp.Load(addr.FarBase, 8)
	})
	res, err := Run(TinyConfig(8, units.MiB), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.FarAccesses != 1 {
		t.Errorf("FarAccesses = %d, want 1 (second fill is an L2 hit)", res.FarAccesses)
	}
	if res.L2.Hits != 1 || res.L2.Misses != 1 {
		t.Errorf("L2 stats = %+v", res.L2)
	}
}

func TestNearAndFarRouted(t *testing.T) {
	tr := record(1, func(tid int, tp *trace.TP) {
		tp.Load(addr.FarBase, 8)
		tp.Load(addr.NearBase, 8)
	})
	res, err := Run(TinyConfig(8, units.MiB), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.FarAccesses != 1 || res.NearAccesses != 1 {
		t.Errorf("far=%d near=%d, want 1/1", res.FarAccesses, res.NearAccesses)
	}
}

func TestWritebackReachesDevice(t *testing.T) {
	// Store then evict through the tiny L1 (2 sets): lines 128B apart
	// share a set; two more fills evict the dirty line. The L2 in
	// TinyConfig is big enough to hold all lines, so the dirty line
	// parks in L2 — it reaches the device only via L1->L2 writeback
	// then L2 remains dirty. Use a store whose final flush pushes it out.
	tr := record(1, func(tid int, tp *trace.TP) {
		tp.Store(addr.FarBase, 8)
	})
	res, err := Run(TinyConfig(8, units.MiB), tr)
	if err != nil {
		t.Fatal(err)
	}
	// The L1 flush at Finish emits a writeback; it lands in L2 (dirty)
	// and never reaches DRAM in this short run. Far sees only the
	// write-allocate fill.
	if res.FarStats.Reads != 1 {
		t.Errorf("FarReads = %d, want 1", res.FarStats.Reads)
	}
	if res.L2.Writebacks != 0 {
		t.Errorf("L2 writebacks = %d, want 0 (line still resident)", res.L2.Writebacks)
	}
}

func TestNearBandwidthScalesTime(t *testing.T) {
	// Stream 64KiB of near-memory lines from 8 threads; quadrupling the
	// near channels should cut the bandwidth-bound portion ~4x.
	mk := func() *trace.Trace {
		return record(8, func(tid int, tp *trace.TP) {
			base := addr.NearBase + addr.Addr(tid*65536)
			for off := 0; off < 65536; off += 64 {
				tp.Load(base+addr.Addr(off), 8)
			}
		})
	}
	// Deep MLP so 8 cores can offer more than the 2-channel capacity.
	slowCfg := TinyConfig(2, 16*units.MiB)
	slowCfg.MaxOutstanding = 16
	fastCfg := TinyConfig(8, 16*units.MiB)
	fastCfg.MaxOutstanding = 16
	slow, err := Run(slowCfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(fastCfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(slow.SimTime) / float64(fast.SimTime)
	if ratio < 1.5 {
		t.Errorf("4x near bandwidth only sped up %vx (slow=%v fast=%v)",
			ratio, slow.SimTime, fast.SimTime)
	}
	if slow.NearUtilization < 0.5 {
		t.Errorf("slow config near utilization %v; workload should saturate it",
			slow.NearUtilization)
	}
}

func TestFarBandwidthUnaffectedByNearChannels(t *testing.T) {
	mk := func() *trace.Trace {
		return record(4, func(tid int, tp *trace.TP) {
			base := addr.FarBase + addr.Addr(tid*65536)
			for off := 0; off < 65536; off += 64 {
				tp.Load(base+addr.Addr(off), 8)
			}
		})
	}
	a, _ := Run(TinyConfig(2, units.MiB), mk())
	b, _ := Run(TinyConfig(32, units.MiB), mk())
	if a.SimTime != b.SimTime {
		t.Errorf("far-only workload changed with near channels: %v vs %v", a.SimTime, b.SimTime)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// Thread 0 computes 1000 cycles then hits the barrier; thread 1 hits
	// it immediately, then both load. Total time must include thread 0's
	// compute before any post-barrier op of thread 1 matters.
	tr := record(2, func(tid int, tp *trace.TP) {
		if tid == 0 {
			tp.Compute(100000)
		}
		tp.Barrier()
		tp.Load(addr.FarBase+addr.Addr(tid*4096), 8)
	})
	res, err := Run(TinyConfig(8, units.MiB), tr)
	if err != nil {
		t.Fatal(err)
	}
	period := units.Hz(1.7e9).Period()
	if res.SimTime < 100000*period {
		t.Errorf("SimTime %v shorter than thread 0's pre-barrier compute %v",
			res.SimTime, 100000*period)
	}
}

func TestDeterministicReplay(t *testing.T) {
	mk := func() *trace.Trace {
		return record(8, func(tid int, tp *trace.TP) {
			for i := 0; i < 100; i++ {
				tp.Load(addr.FarBase+addr.Addr((tid*997+i*131)%8192*64), 8)
				tp.Compute(int64(i % 7))
			}
			tp.Barrier()
			tp.Store(addr.NearBase+addr.Addr(tid*4096), 8)
		})
	}
	a, err := Run(TinyConfig(8, units.MiB), mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(TinyConfig(8, units.MiB), mk())
	if err != nil {
		t.Fatal(err)
	}
	if a.SimTime != b.SimTime || a.FarStats != b.FarStats || a.NearStats != b.NearStats ||
		a.L2 != b.L2 || a.Events != b.Events {
		t.Errorf("replay not deterministic:\n%+v\n%+v", a, b)
	}
	if len(a.BarrierTimes) != len(b.BarrierTimes) {
		t.Fatalf("barrier timelines differ in length")
	}
	for i := range a.BarrierTimes {
		if a.BarrierTimes[i] != b.BarrierTimes[i] {
			t.Errorf("barrier %d released at %v vs %v", i, a.BarrierTimes[i], b.BarrierTimes[i])
		}
	}
}

func TestBarrierTimeline(t *testing.T) {
	tr := record(2, func(tid int, tp *trace.TP) {
		tp.Barrier()
		tp.Compute(1000)
		tp.Barrier()
	})
	res, err := Run(TinyConfig(8, units.MiB), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BarrierTimes) != 2 {
		t.Fatalf("barrier releases = %d, want 2", len(res.BarrierTimes))
	}
	if res.BarrierTimes[1] <= res.BarrierTimes[0] {
		t.Errorf("barrier times not increasing: %v", res.BarrierTimes)
	}
}

func TestAtomicsReachDevice(t *testing.T) {
	tr := record(2, func(tid int, tp *trace.TP) {
		for i := 0; i < 3; i++ {
			tp.Atomic(addr.NearBase)
		}
	})
	res, err := Run(TinyConfig(8, units.MiB), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.NearStats.Writes != 6 {
		t.Errorf("near writes = %d, want 6 (atomics bypass caches)", res.NearStats.Writes)
	}
}

func TestDMAOverlapsCompute(t *testing.T) {
	// A core kicks off a 1MiB far->near DMA, computes for a long time,
	// then waits. With DMA the copy hides under compute; the explicit
	// copy (load+store per line) would serialize.
	const n = 1 << 20
	dmaTrace := record(1, func(tid int, tp *trace.TP) {
		tp.DMA(addr.FarBase, addr.NearBase, n)
		tp.Compute(3_000_000) // ~1.7ms at 1.7GHz
		tp.DMAWait()
	})
	res, err := Run(TinyConfig(8, 16*units.MiB), dmaTrace)
	if err != nil {
		t.Fatal(err)
	}
	period := units.Hz(1.7e9).Period()
	compute := 3_000_000 * period
	// 1MiB over one far channel at 8.5GB/s is ~123us < 1.7ms of compute,
	// so the copy must hide entirely (within 5% slack).
	if res.SimTime > compute+compute/20 {
		t.Errorf("DMA did not overlap: total %v vs compute %v", res.SimTime, compute)
	}
}

func TestDMAWaitBlocks(t *testing.T) {
	const n = 1 << 20
	tr := record(1, func(tid int, tp *trace.TP) {
		tp.DMA(addr.FarBase, addr.NearBase, n)
		tp.DMAWait() // no compute: must wait the full transfer
	})
	res, err := Run(TinyConfig(8, 16*units.MiB), tr)
	if err != nil {
		t.Fatal(err)
	}
	// 1MiB at 8.5GB/s ≈ 123us minimum.
	if res.SimTime < 100*units.Microsecond {
		t.Errorf("DMAWait returned too fast: %v", res.SimTime)
	}
}

func TestTooManyThreadsRejected(t *testing.T) {
	tr := record(9, func(tid int, tp *trace.TP) { tp.Compute(1) })
	if _, err := Run(TinyConfig(8, units.MiB), tr); err == nil {
		t.Error("expected error for 9 threads on 8 cores")
	}
}

func TestMachineSingleUse(t *testing.T) {
	tr := record(1, func(tid int, tp *trace.TP) { tp.Load(addr.FarBase, 8) })
	m := New(TinyConfig(8, units.MiB))
	if _, err := m.Replay(tr); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Replay(tr); err == nil {
		t.Error("expected single-use error")
	}
}

func TestInvalidTraceRejected(t *testing.T) {
	rec := trace.NewRecorder(2, tinyL1(), trace.DefaultCosts())
	rec.Thread(0).Barrier() // thread 1 never reaches it
	tr := rec.Finish()
	if _, err := Run(TinyConfig(8, units.MiB), tr); err == nil {
		t.Error("expected barrier-mismatch rejection")
	}
}

func TestRowBufferLocalityVisible(t *testing.T) {
	// Sequential lines in one row should mostly row-hit; random far lines
	// spread over many rows should not.
	seq := record(1, func(tid int, tp *trace.TP) {
		for off := 0; off < 8192; off += 64 {
			tp.Load(addr.FarBase+addr.Addr(off), 8)
		}
	})
	rnd := record(1, func(tid int, tp *trace.TP) {
		for i := 0; i < 128; i++ {
			tp.Load(addr.FarBase+addr.Addr((i*7919)%1024*8192), 8)
		}
	})
	rs, _ := Run(TinyConfig(8, units.MiB), seq)
	rr, _ := Run(TinyConfig(8, units.MiB), rnd)
	if rs.FarStats.RowHitRate() <= rr.FarStats.RowHitRate() {
		t.Errorf("sequential row-hit rate %v not above random %v",
			rs.FarStats.RowHitRate(), rr.FarStats.RowHitRate())
	}
}

func TestDMADirectionStats(t *testing.T) {
	// A far->near copy streams out of the far device (reads) and into the
	// near device (writes); the reverse copy mirrors it. Before the
	// direction fix both devices counted their configured default
	// regardless of which side of the copy they were on.
	const n = 1 << 16
	lines := uint64(n / 64)
	run := func(src, dst addr.Addr) Result {
		t.Helper()
		tr := record(1, func(tid int, tp *trace.TP) {
			tp.DMA(src, dst, n)
			tp.DMAWait()
		})
		res, err := Run(TinyConfig(8, 16*units.MiB), tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	fwd := run(addr.FarBase, addr.NearBase)
	if fwd.FarStats.Reads != lines || fwd.FarStats.Writes != 0 {
		t.Errorf("far->near: far stats %+v, want %d reads / 0 writes", fwd.FarStats, lines)
	}
	if fwd.NearStats.Writes != lines || fwd.NearStats.Reads != 0 {
		t.Errorf("far->near: near stats %+v, want %d writes / 0 reads", fwd.NearStats, lines)
	}

	rev := run(addr.NearBase, addr.FarBase)
	if rev.NearStats.Reads != lines || rev.NearStats.Writes != 0 {
		t.Errorf("near->far: near stats %+v, want %d reads / 0 writes", rev.NearStats, lines)
	}
	if rev.FarStats.Writes != lines || rev.FarStats.Reads != 0 {
		t.Errorf("near->far: far stats %+v, want %d writes / 0 reads", rev.FarStats, lines)
	}

	// Round-trip symmetry: source reads equal destination writes.
	if fwd.FarStats.Reads != fwd.NearStats.Writes || rev.NearStats.Reads != rev.FarStats.Writes {
		t.Errorf("DMA read/write accounting asymmetric: %+v / %+v", fwd, rev)
	}
}

func TestPostedWriteDrain(t *testing.T) {
	// Stream dirty lines through the tiny L1 and L2 so the trace ends in a
	// burst of posted writebacks, then check the replay ran until every
	// resource drained. Before the drain fix Run() returned while device
	// buses were still busy, so SimTime undershot and Utilization could
	// exceed 1.
	tr := record(1, func(tid int, tp *trace.TP) {
		// 1024 distinct far lines (64KiB) overflow the 16KiB L2.
		for i := 0; i < 1024; i++ {
			tp.Store(addr.FarBase+addr.Addr(i*64), 8)
		}
	})
	m := New(TinyConfig(8, units.MiB))
	res, err := m.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.FarStats.Writes == 0 {
		t.Fatal("workload produced no posted writes; test is vacuous")
	}
	drained := func(name string, b units.Time) {
		t.Helper()
		if res.SimTime < b {
			t.Errorf("SimTime %v inside %s busy period ending %v", res.SimTime, name, b)
		}
	}
	drained("far", m.far.BusyUntil())
	drained("near", m.near.BusyUntil())
	drained("noc", m.nw.BusyUntil())
	for g := range m.l2bus {
		drained(fmt.Sprintf("l2bus[%d]", g), m.l2bus[g].BusyUntil())
	}
	bounded := func(name string, u float64) {
		t.Helper()
		if u < 0 || u > 1 {
			t.Errorf("%s utilization %v outside [0,1]", name, u)
		}
	}
	bounded("far", res.FarUtilization)
	bounded("near", res.NearUtilization)
	bounded("noc", res.NoCUtilization)
}

func TestDMAStatsReported(t *testing.T) {
	tr := record(1, func(tid int, tp *trace.TP) {
		tp.DMA(addr.FarBase, addr.NearBase, 4096)
		tp.DMA(addr.NearBase, addr.FarBase+65536, 8192)
		tp.DMAWait()
	})
	res, err := Run(TinyConfig(8, 16*units.MiB), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.DMACopies != 2 || res.DMABytes != 4096+8192 {
		t.Errorf("DMA stats: copies=%d bytes=%d", res.DMACopies, res.DMABytes)
	}
}
