package noc

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/units"
)

func TestPaperConfig(t *testing.T) {
	c := Paper(64)
	if c.Groups != 64 || c.LinkBW != units.GBps(72) || c.HopLat != 20*units.Nanosecond {
		t.Errorf("config = %+v", c)
	}
}

func TestCommandPaysOnlyLatency(t *testing.T) {
	s := engine.New()
	n := New(s, Paper(2))
	if got := n.Send(0, 0, 0); got != 20*units.Nanosecond {
		t.Errorf("command arrival = %v, want 20ns", got)
	}
}

func TestPayloadOccupiesLink(t *testing.T) {
	s := engine.New()
	n := New(s, Paper(2))
	// Two back-to-back 64B responses on one link: second queues behind the
	// first's bus time (889ps at 72GB/s).
	a := n.Deliver(0, 0, 64)
	b := n.Deliver(0, 0, 64)
	if b-a != units.GBps(72).TransferTime(64) {
		t.Errorf("second response not serialized: %v then %v", a, b)
	}
}

func TestLinksIndependent(t *testing.T) {
	s := engine.New()
	n := New(s, Paper(2))
	a := n.Deliver(0, 0, 64)
	b := n.Deliver(0, 1, 64)
	if a != b {
		t.Errorf("different groups should not contend: %v vs %v", a, b)
	}
}

func TestDirectionsIndependent(t *testing.T) {
	s := engine.New()
	n := New(s, Paper(2))
	a := n.Send(0, 0, 64)
	b := n.Deliver(0, 0, 64)
	if a != b {
		t.Errorf("tx and rx should not contend: %v vs %v", a, b)
	}
}

func TestCounters(t *testing.T) {
	s := engine.New()
	n := New(s, Paper(2))
	n.Send(0, 0, 0)
	n.Deliver(0, 1, 64)
	if n.msgs != 2 || n.bytes != 64 {
		t.Errorf("msgs=%d bytes=%d", n.msgs, n.bytes)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(engine.New(), Config{})
}

func TestUtilizationAfterTraffic(t *testing.T) {
	s := engine.New()
	n := New(s, Paper(2))
	s.At(0, func() {
		for i := 0; i < 100; i++ {
			n.Deliver(0, 0, 64)
		}
	})
	s.At(10*units.Microsecond, func() {})
	s.Run()
	if u := n.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %v", u)
	}
}
