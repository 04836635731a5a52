// Package spmem models the near memory — the scratchpad of the paper's
// Figure 4: a stacked-DRAM part with a constant device latency (50ns at a
// 500MHz clock) and 8, 16, or 32 line-interleaved channels giving 2X, 4X,
// or 8X the far memory's bandwidth. The scratchpad's defining property in
// the co-design study is exactly this: latency comparable to DRAM,
// bandwidth a ρ factor higher.
package spmem

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Config describes a near-memory device.
type Config struct {
	Channels  int                  // line-interleaved channels
	LineSize  units.Bytes          // transfer granularity
	ChannelBW units.BytesPerSecond // per-channel bandwidth
	Latency   units.Time           // constant device access latency
	Capacity  units.Bytes          // scratchpad size M
}

// Paper returns the Figure 4 near memory with the given channel count
// (8, 16, or 32 for 2X/4X/8X) and capacity. Per-channel bandwidth matches
// a far-memory DDR-1066 channel, so the bandwidth expansion factor is
// channels/4 when the far memory has its standard 4 channels.
func Paper(channels int, capacity units.Bytes) Config {
	return Config{
		Channels:  channels,
		LineSize:  64,
		ChannelBW: units.BytesPerSecond(1066e6 * 8),
		Latency:   50 * units.Nanosecond,
		Capacity:  capacity,
	}
}

// TotalBandwidth returns the aggregate bandwidth across channels.
func (c Config) TotalBandwidth() units.BytesPerSecond {
	return c.ChannelBW * units.BytesPerSecond(c.Channels)
}

// Stats counts device activity.
type Stats struct {
	Reads  uint64
	Writes uint64
}

// Accesses returns total device requests.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Device is a scratchpad instance attached to a simulation.
type Device struct {
	cfg      Config
	base     addr.Addr
	channels []*engine.Resource
	stats    Stats
	inj      *fault.Injector // nil or disabled: perfect memory
}

// New builds a device servicing the window starting at base.
func New(sim *engine.Sim, cfg Config, base addr.Addr) *Device {
	if cfg.Channels <= 0 {
		panic("spmem: need at least one channel")
	}
	d := &Device{cfg: cfg, base: base, channels: make([]*engine.Resource, cfg.Channels)}
	for i := range d.channels {
		d.channels[i] = engine.NewResource(sim, cfg.ChannelBW)
	}
	return d
}

// Access services one line transfer arriving at time at and returns its
// completion time: the constant device latency followed by channel bus
// occupancy. With a fault layer attached, an access that lands in a
// degraded (channel, epoch) window is served at a fraction of the channel
// bandwidth — the fault model of thermal throttling or refresh storms in a
// stacked part; the degradation schedule is a pure function of
// (seed, channel, epoch), fixed up front for all simulated time.
func (d *Device) Access(at units.Time, a addr.Addr, write bool) units.Time {
	line := uint64(a-d.base) / uint64(d.cfg.LineSize)
	ch := int(line % uint64(len(d.channels)))
	bus := d.channels[ch]
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	return bus.AcquireAtFactor(at+d.cfg.Latency, d.cfg.LineSize, d.inj.NearFactor(ch, at))
}

// SetFaults attaches a fault injector; nil (the default) models perfect
// memory. Call before the first access.
func (d *Device) SetFaults(in *fault.Injector) { d.inj = in }

// BulkAcquire reserves channel bandwidth for n bytes spread evenly across
// all channels starting at time at (DMA streaming). write selects the
// accounting direction: the device a copy streams out of counts the
// transfer as Reads, the device it lands in counts it as Writes. DMA
// streams bypass the channel-degradation fault model (see DESIGN.md's
// fault-model section).
func (d *Device) BulkAcquire(at units.Time, n units.Bytes, write bool) units.Time {
	//nmlint:ignore escape-check inlined CeilDiv panic string; the escape is on the cold divide-by-zero exit
	per := units.Bytes(units.CeilDiv(int64(n), int64(len(d.channels))))
	var done units.Time
	for _, bus := range d.channels {
		if t := bus.AcquireAt(at+d.cfg.Latency, per); t > done {
			done = t
		}
	}
	//nmlint:ignore escape-check inlined CeilDiv panic string; cold exit only
	lines := uint64(units.CeilDiv(int64(n), int64(d.cfg.LineSize)))
	if write {
		d.stats.Writes += lines
	} else {
		d.stats.Reads += lines
	}
	return done
}

// Stats returns a copy of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// RegisterProbes registers the device's telemetry counters: device-level
// request counters on the "near" track and per-channel bytes/busy time on
// "near.ch<i>" tracks.
func (d *Device) RegisterProbes(tel *telemetry.Recorder) {
	tel.Counter("near", "reads", func() uint64 { return d.stats.Reads })
	tel.Counter("near", "writes", func() uint64 { return d.stats.Writes })
	for i, bus := range d.channels {
		bus := bus
		track := fmt.Sprintf("near.ch%d", i)
		tel.Counter(track, "bytes", bus.Bytes)
		tel.Counter(track, "busy_ps", func() uint64 { return uint64(bus.BusyTime()) })
	}
}

// BytesMoved returns the total bytes transferred across all channels.
func (d *Device) BytesMoved() uint64 {
	var n uint64
	for _, bus := range d.channels {
		n += bus.Bytes()
	}
	return n
}

// BusyTime returns the summed busy time across all channels.
func (d *Device) BusyTime() units.Time {
	var t units.Time
	for _, bus := range d.channels {
		t += bus.BusyTime()
	}
	return t
}

// Channels returns the channel count.
func (d *Device) Channels() int { return len(d.channels) }

// Utilization returns the mean channel utilization.
func (d *Device) Utilization() float64 {
	var u float64
	for _, bus := range d.channels {
		u += bus.Utilization()
	}
	return u / float64(len(d.channels))
}

// BusyUntil returns the latest time any channel bus is occupied. A drained
// replay must report SimTime at or after this point.
func (d *Device) BusyUntil() units.Time {
	var t units.Time
	for _, bus := range d.channels {
		if b := bus.BusyUntil(); b > t {
			t = b
		}
	}
	return t
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }
