package dram

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/engine"
	"repro/internal/units"
)

func dev() (*engine.Sim, *Device) {
	s := engine.New()
	return s, New(s, DDR1066(4), addr.FarBase)
}

func TestDDR1066Shape(t *testing.T) {
	c := DDR1066(4)
	if c.Channels != 4 || c.Banks != 8 {
		t.Errorf("config = %+v", c)
	}
	// 4 channels of 1066MT/s x 8B ≈ 34GB/s aggregate.
	if bw := c.TotalBandwidth(); bw < units.GBps(30) || bw > units.GBps(40) {
		t.Errorf("aggregate bandwidth = %v", bw)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	s, d := dev()
	cfg := d.cfg
	// First access opens a row (row miss).
	t1 := d.Access(0, addr.FarBase, false)
	// Same row, next line on the same channel: channels interleave by
	// line, so +4 lines returns to channel 0 at channel-local line 1,
	// still inside channel-local row 0.
	t2 := d.Access(t1, addr.FarBase+4*64, false) - t1
	// A distant line on the same channel lands in a different
	// channel-local row (and possibly a different bank).
	off := addr.Addr(uint64(cfg.RowBytes) * uint64(cfg.Banks))
	t3 := d.Access(2*t1, addr.FarBase+off, false) // may also be a fresh bank
	_ = t3
	burst := cfg.ChannelBW.TransferTime(cfg.LineSize)
	if want := cfg.TCas + burst; t2 != want {
		t.Errorf("row hit latency = %v, want %v", t2, want)
	}
	_ = s
}

func TestRowStateTracking(t *testing.T) {
	_, d := dev()
	d.Access(0, addr.FarBase, false)         // opens row 0 on ch0/bank0
	d.Access(1000, addr.FarBase+4*64, false) // row hit (same row, ch0)
	st := d.Stats()
	if st.RowMisses != 1 || st.RowHits != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Now a conflicting row on the same channel and bank. With 4 channels
	// the channel-local row spans RowBytes*Channels of the global space:
	// off = rowBytes*banks*4 -> line = off/64 (line%4 == 0 -> channel 0),
	// channel-local line = line/4, row = chLine/(rowBytes/64) = banks,
	// bank = banks%banks = 0. Same bank as row 0, different row: conflict.
	cfg := d.cfg
	conflict := addr.FarBase + addr.Addr(uint64(cfg.RowBytes)*uint64(cfg.Banks)*4)
	d.Access(2000, conflict, false)
	if st := d.Stats(); st.RowConflicts != 1 {
		t.Errorf("conflicts = %d, want 1 (stats %+v)", st.RowConflicts, st)
	}
}

func TestChannelParallelism(t *testing.T) {
	// Simultaneous requests to different channels should finish together;
	// to the same channel, serially.
	_, d := dev()
	a := d.Access(0, addr.FarBase, false)    // ch 0
	b := d.Access(0, addr.FarBase+64, false) // ch 1
	if a != b {
		t.Errorf("parallel channels should finish together: %v vs %v", a, b)
	}
	_, d2 := dev()
	a = d2.Access(0, addr.FarBase, false)       // ch 0
	c := d2.Access(0, addr.FarBase+4*64, false) // ch 0 again
	if c <= a {
		t.Errorf("same-channel requests must serialize: %v then %v", a, c)
	}
}

func TestReadWriteCounting(t *testing.T) {
	_, d := dev()
	d.Access(0, addr.FarBase, false)
	d.Access(0, addr.FarBase+64, true)
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Accesses() != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSustainedBandwidthNearPeak(t *testing.T) {
	// Stream 1MiB sequentially; sustained bandwidth should be within 2x of
	// peak (row hits dominate, latency amortizes).
	s, d := dev()
	var last units.Time
	for off := addr.Addr(0); off < 1<<20; off += 64 {
		if done := d.Access(0, addr.FarBase+off, false); done > last {
			last = done
		}
	}
	bw := float64(1<<20) / last.Seconds()
	peak := float64(d.cfg.TotalBandwidth())
	if bw < peak/2 {
		t.Errorf("sustained %v of peak %v", units.BytesPerSecond(bw), units.BytesPerSecond(peak))
	}
	if bw > peak {
		t.Errorf("sustained %v exceeds peak %v", units.BytesPerSecond(bw), units.BytesPerSecond(peak))
	}
	_ = s
}

func TestRowMappingChannelLocal(t *testing.T) {
	// The row buffer is channel-local: global offsets 0 and RowBytes both
	// map to channel 0 (line%4 == 0) and, because a channel only sees
	// every 4th line, both fall in channel-local row 0 — a row hit. The
	// old global mapping (row = off/RowBytes) called the second access a
	// different row on a different bank.
	_, d := dev()
	cfg := d.cfg
	d.Access(0, addr.FarBase, false)
	d.Access(1000, addr.FarBase+addr.Addr(cfg.RowBytes), false)
	st := d.Stats()
	if st.RowMisses != 1 || st.RowHits != 1 {
		t.Errorf("channel-local row mapping broken: stats = %+v", st)
	}
}

func TestBulkAcquire(t *testing.T) {
	s, d := dev()
	done := d.BulkAcquire(0, units.MiB, false)
	// 1MiB over 34GB/s aggregate ≈ 31us.
	if done < 25*units.Microsecond || done > 45*units.Microsecond {
		t.Errorf("bulk 1MiB took %v", done)
	}
	_ = s
}

func TestBulkAcquireDirectionStats(t *testing.T) {
	_, d := dev()
	lines := uint64(units.MiB / 64)
	d.BulkAcquire(0, units.MiB, false) // device is the copy's source
	if st := d.Stats(); st.Reads != lines || st.Writes != 0 {
		t.Errorf("source bulk transfer miscounted: %+v", st)
	}
	d.BulkAcquire(0, units.MiB, true) // device is the copy's destination
	if st := d.Stats(); st.Reads != lines || st.Writes != lines {
		t.Errorf("destination bulk transfer miscounted: %+v", st)
	}
	if d.BusyUntil() == 0 {
		t.Error("BusyUntil should reflect the reserved bus time")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(engine.New(), Config{}, addr.FarBase)
}
