// Package noc models the on-chip network connecting core groups to the
// memory directory controllers — the role Merlin plays in the paper's SST
// setup (Figure 5). Each quad-core group has its own injection/ejection
// link (72 GB/s in Figure 4); a hop costs a fixed 20ns latency plus
// bandwidth occupancy for the 64-byte payload. The NoC's job in this study
// is to add realistic latency without being the bottleneck, and a
// bandwidth-accounted crossbar reproduces exactly that.
package noc

import (
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Config describes the network.
type Config struct {
	Groups int                  // number of endpoints (core groups)
	LinkBW units.BytesPerSecond // per-group link bandwidth, per direction
	HopLat units.Time           // one-way latency
}

// Paper returns the Figure 4 network: 72GB/s per group connection and
// 20ns hop latency.
func Paper(groups int) Config {
	return Config{
		Groups: groups,
		LinkBW: units.GBps(72),
		HopLat: 20 * units.Nanosecond,
	}
}

// Network is an instantiated NoC.
type Network struct {
	cfg   Config
	tx    []*engine.Resource // group -> memory direction
	rx    []*engine.Resource // memory -> group direction
	msgs  uint64
	bytes uint64
	inj   *fault.Injector // nil or disabled: lossless network
}

// New builds the network on sim.
func New(sim *engine.Sim, cfg Config) *Network {
	if cfg.Groups <= 0 {
		panic("noc: need at least one group")
	}
	n := &Network{cfg: cfg,
		tx: make([]*engine.Resource, cfg.Groups),
		rx: make([]*engine.Resource, cfg.Groups),
	}
	for i := 0; i < cfg.Groups; i++ {
		n.tx[i] = engine.NewResource(sim, cfg.LinkBW)
		n.rx[i] = engine.NewResource(sim, cfg.LinkBW)
	}
	return n
}

// Send delivers a request of n payload bytes from group g toward the
// memory side, arriving at the returned time. Requests without payload
// (read commands) pass n = 0 and pay only latency. A message the fault
// layer marks corrupted is retransmitted: each retransmission re-occupies
// the link and pays the hop latency again (corruption is detected at the
// receiver), keyed by the global message index so the schedule is fixed up
// front.
func (nw *Network) Send(at units.Time, g int, n units.Bytes) units.Time {
	return nw.transfer(nw.tx[g], at, n)
}

// Deliver returns a response of n payload bytes from the memory side to
// group g, arriving at the returned time; it retransmits corrupted
// messages like Send.
func (nw *Network) Deliver(at units.Time, g int, n units.Bytes) units.Time {
	return nw.transfer(nw.rx[g], at, n)
}

// transfer moves one message over link, then once per fault-injected
// retransmission; each pass occupies the link and pays the hop latency.
func (nw *Network) transfer(link *engine.Resource, at units.Time, n units.Bytes) units.Time {
	nw.msgs++
	nw.bytes += uint64(n)
	resends := nw.inj.NoCResends(nw.msgs - 1)
	arr := at
	for k := 0; k <= resends; k++ {
		if n > 0 {
			arr = link.AcquireAt(arr, n)
		}
		arr += nw.cfg.HopLat
	}
	return arr
}

// SetFaults attaches a fault injector; nil (the default) models a lossless
// network. Call before the first message.
func (nw *Network) SetFaults(in *fault.Injector) { nw.inj = in }

// RegisterProbes registers the network's telemetry counters on the "noc"
// track: messages, payload bytes, and summed link busy time. Per-link
// tracks would add hundreds of columns for a 64-group node, so the network
// reports aggregates.
func (nw *Network) RegisterProbes(tel *telemetry.Recorder) {
	tel.Counter("noc", "msgs", func() uint64 { return nw.msgs })
	tel.Counter("noc", "bytes", func() uint64 { return nw.bytes })
	tel.Counter("noc", "busy_ps", func() uint64 { return uint64(nw.BusyTime()) })
}

// BusyTime returns the summed busy time across all links, both directions.
func (nw *Network) BusyTime() units.Time {
	var t units.Time
	for i := range nw.tx {
		t += nw.tx[i].BusyTime() + nw.rx[i].BusyTime()
	}
	return t
}

// Utilization returns the mean link utilization across both directions.
func (nw *Network) Utilization() float64 {
	var u float64
	for i := range nw.tx {
		u += nw.tx[i].Utilization() + nw.rx[i].Utilization()
	}
	return u / float64(2*len(nw.tx))
}

// BusyUntil returns the latest time any link in either direction is
// occupied. A drained replay must report SimTime at or after this point.
func (nw *Network) BusyUntil() units.Time {
	var t units.Time
	for i := range nw.tx {
		if b := nw.tx[i].BusyUntil(); b > t {
			t = b
		}
		if b := nw.rx[i].BusyUntil(); b > t {
			t = b
		}
	}
	return t
}
