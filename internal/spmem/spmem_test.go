package spmem

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/engine"
	"repro/internal/units"
)

func TestPaperConfigs(t *testing.T) {
	// 8/16/32 channels must give 2X/4X/8X the 4-channel far bandwidth.
	farBW := units.BytesPerSecond(4 * 1066e6 * 8)
	for _, tc := range []struct {
		ch  int
		rho float64
	}{{8, 2}, {16, 4}, {32, 8}} {
		c := Paper(tc.ch, 64*units.MiB)
		if got := float64(c.TotalBandwidth()) / float64(farBW); got != tc.rho {
			t.Errorf("%d channels: expansion %v, want %v", tc.ch, got, tc.rho)
		}
		if c.Latency != 50*units.Nanosecond {
			t.Errorf("latency = %v, want 50ns", c.Latency)
		}
	}
}

func TestConstantLatency(t *testing.T) {
	s := engine.New()
	d := New(s, Paper(8, units.MiB), addr.NearBase)
	cfg := d.cfg
	burst := cfg.ChannelBW.TransferTime(cfg.LineSize)
	for i := 0; i < 4; i++ {
		// Each access goes to a different channel: no queueing, so the
		// completion is exactly latency + burst.
		at := units.Time(i) * units.Microsecond
		got := d.Access(at, addr.NearBase+addr.Addr(i*64), false) - at
		if got != cfg.Latency+burst {
			t.Errorf("access %d latency = %v, want %v", i, got, cfg.Latency+burst)
		}
	}
}

func TestChannelInterleaving(t *testing.T) {
	s := engine.New()
	d := New(s, Paper(8, units.MiB), addr.NearBase)
	// 8 simultaneous accesses to 8 consecutive lines: all parallel.
	var max units.Time
	for i := 0; i < 8; i++ {
		if done := d.Access(0, addr.NearBase+addr.Addr(i*64), false); done > max {
			max = done
		}
	}
	cfg := d.cfg
	if want := cfg.Latency + cfg.ChannelBW.TransferTime(cfg.LineSize); max != want {
		t.Errorf("8-wide parallel access finished at %v, want %v", max, want)
	}
	// A 9th access to line 8 (channel 0 again) must queue.
	if done := d.Access(0, addr.NearBase+addr.Addr(8*64), false); done <= max {
		t.Errorf("same-channel access should queue: %v", done)
	}
}

func TestStatsAndUtilization(t *testing.T) {
	s := engine.New()
	d := New(s, Paper(8, units.MiB), addr.NearBase)
	d.Access(0, addr.NearBase, false)
	d.Access(0, addr.NearBase+64, true)
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Accesses() != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBulkAcquireDirectionStats(t *testing.T) {
	s := engine.New()
	d := New(s, Paper(8, units.MiB), addr.NearBase)
	lines := uint64(units.MiB / 64)
	d.BulkAcquire(0, units.MiB, true) // device is the copy's destination
	if st := d.Stats(); st.Writes != lines || st.Reads != 0 {
		t.Errorf("destination bulk transfer miscounted: %+v", st)
	}
	d.BulkAcquire(0, units.MiB, false) // device is the copy's source
	if st := d.Stats(); st.Writes != lines || st.Reads != lines {
		t.Errorf("source bulk transfer miscounted: %+v", st)
	}
	if d.BusyUntil() == 0 {
		t.Error("BusyUntil should reflect the reserved bus time")
	}
}

func TestBulkAcquireScalesWithChannels(t *testing.T) {
	mk := func(ch int) units.Time {
		s := engine.New()
		d := New(s, Paper(ch, 64*units.MiB), addr.NearBase)
		return d.BulkAcquire(0, 8*units.MiB, true)
	}
	t8, t32 := mk(8), mk(32)
	ratio := float64(t8) / float64(t32)
	if ratio < 3 || ratio > 5 {
		t.Errorf("32 vs 8 channels bulk speedup = %v, want ~4", ratio)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(engine.New(), Config{}, addr.NearBase)
}
