package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/engine"
	"repro/internal/units"
)

// TestAccessCompletionMonotone: for requests arriving in non-decreasing
// time order, completions never precede arrivals and per-channel service
// is work-conserving (completion >= arrival + minimal latency).
func TestAccessCompletionMonotone(t *testing.T) {
	f := func(offsets []uint32) bool {
		s := engine.New()
		d := New(s, DDR1066(4), addr.FarBase)
		cfg := d.Config()
		minLat := cfg.TCas + cfg.ChannelBW.TransferTime(cfg.LineSize)
		at := units.Time(0)
		for i, off := range offsets {
			at += units.Time(off % 1000)
			done := d.Access(at, addr.FarBase+addr.Addr(off%(1<<24))*64, i%4 == 0)
			if done < at+minLat {
				t.Logf("request %d: done %v < arrival %v + min %v", i, done, at, minLat)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestStatsConservation: hits + misses + conflicts == accesses.
func TestStatsConservation(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := engine.New()
		d := New(s, DDR1066(2), addr.FarBase)
		for i, off := range offsets {
			d.Access(units.Time(i)*100, addr.FarBase+addr.Addr(off)*64, false)
		}
		st := d.Stats()
		return st.RowHits+st.RowMisses+st.RowConflicts == st.Accesses()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMoreChannelsNeverSlower: the same request stream, every request
// arriving at once, finishes on eight channels no later than on one plus one
// row conflict's penalty over a row hit (TRp + TRcd).
//
// Eight channels can finish later than one. The row and bank come from the
// channel-local line index, so two lines one channel keeps in different banks
// can share a bank on eight: a row miss there becomes a conflict. Offsets
// {0x6fda, 0xacba} do it: two banks on one channel, two misses; one bank of
// channel 2 on eight, a miss and then a conflict. What holds is the bound:
// each access waits between a row hit's TCas and a conflict's
// TRp + TRcd + TCas, then holds its channel's bus for one line. So k accesses
// on one channel end within TRp + TRcd + TCas + k lines, and n accesses on
// one bus end no sooner than TCas + n lines.
func TestMoreChannelsNeverSlower(t *testing.T) {
	cfg := DDR1066(1)
	slack := cfg.TRp + cfg.TRcd
	run := func(channels int, offsets []uint16) units.Time {
		s := engine.New()
		d := New(s, DDR1066(channels), addr.FarBase)
		var last units.Time
		for _, off := range offsets {
			if done := d.Access(0, addr.FarBase+addr.Addr(off)*64, false); done > last {
				last = done
			}
		}
		return last
	}
	pinned := []uint16{0x6fda, 0xacba}
	if one, eight := run(1, pinned), run(8, pinned); eight <= one || eight > one+slack {
		t.Errorf("offsets %#x: %v on eight channels, %v on one; want later, by at most %v", pinned, eight, one, slack)
	}
	f := func(offsets []uint16) bool { return run(8, offsets) <= run(1, offsets)+slack }
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2015))}); err != nil {
		t.Error(err)
	}
}

func TestRowHitRateZeroOnEmpty(t *testing.T) {
	var st Stats
	if st.RowHitRate() != 0 {
		t.Error("empty stats should report 0 hit rate")
	}
}
