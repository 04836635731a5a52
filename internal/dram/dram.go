// Package dram models the far (capacity) memory of the two-level system —
// the role DRAMSim2 plays in the paper's SST configuration. It captures
// the properties the co-design study depends on: a small number of
// channels, each with a bounded data bus, and bank/row-buffer state that
// makes access latency depend on locality (row hit vs row miss vs row
// conflict, with DDR-1066-derived timing).
//
// Requests are serviced per channel in arrival order (FCFS) with an
// open-page row-buffer policy. The event loop's deterministic ordering
// makes the whole device deterministic.
package dram

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Config describes a far-memory device.
type Config struct {
	Channels  int                  // independent channels, line-interleaved
	Banks     int                  // banks per channel
	RowBytes  units.Bytes          // row-buffer size
	LineSize  units.Bytes          // transfer granularity (cache line)
	ChannelBW units.BytesPerSecond // per-channel data-bus bandwidth
	TCas      units.Time           // column access (row already open)
	TRcd      units.Time           // row activate
	TRp       units.Time           // precharge (row conflict adds this)
}

// DDR1066 returns the paper's far-memory configuration (Figure 4): a
// 1066MHz DDR part with the given number of channels. Per-channel peak is
// 1066 MT/s x 8 bytes ≈ 8.5 GB/s; the paper uses 4 channels.
func DDR1066(channels int) Config {
	return Config{
		Channels:  channels,
		Banks:     8,
		RowBytes:  8 * units.KiB,
		LineSize:  64,
		ChannelBW: units.BytesPerSecond(1066e6 * 8),
		TCas:      13 * units.Nanosecond,
		TRcd:      13 * units.Nanosecond,
		TRp:       13 * units.Nanosecond,
	}
}

// TotalBandwidth returns the aggregate peak bandwidth across channels.
func (c Config) TotalBandwidth() units.BytesPerSecond {
	return c.ChannelBW * units.BytesPerSecond(c.Channels)
}

type bank struct {
	openRow uint64
	open    bool
}

type channel struct {
	bus   *engine.Resource
	banks []bank
}

// Stats counts device activity.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64
	RowConflicts uint64
}

// Accesses returns total device requests.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// RowHitRate returns the fraction of accesses that hit an open row.
func (s Stats) RowHitRate() float64 {
	t := s.Accesses()
	if t == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(t)
}

// Device is a far-memory instance attached to a simulation.
type Device struct {
	cfg      Config
	base     addr.Addr
	channels []channel
	stats    Stats
	inj      *fault.Injector // nil or disabled: perfect memory
}

// New builds a device servicing the window starting at base.
func New(sim *engine.Sim, cfg Config, base addr.Addr) *Device {
	if cfg.Channels <= 0 || cfg.Banks <= 0 {
		panic("dram: need at least one channel and bank")
	}
	if cfg.LineSize <= 0 || cfg.RowBytes < cfg.LineSize {
		panic("dram: row buffer must hold at least one line")
	}
	d := &Device{cfg: cfg, base: base, channels: make([]channel, cfg.Channels)}
	for i := range d.channels {
		d.channels[i] = channel{
			bus:   engine.NewResource(sim, cfg.ChannelBW),
			banks: make([]bank, cfg.Banks),
		}
	}
	return d
}

// Access services one line transfer arriving at time at and returns its
// completion time. The request experiences the bank's row-buffer latency
// followed by the channel data-bus occupancy.
//
// Address mapping: lines are interleaved across channels (channel =
// line mod Channels), so a channel sees every Channels-th line. Each
// channel has its own banks and row buffers, so the row index derives from
// the channel-local line index (line div Channels): channel-local row
// RowBytes/LineSize lines wide, bank = row mod Banks. Deriving the row
// from the global offset instead would smear one "row" across all
// channels and misattribute row hits.
func (d *Device) Access(at units.Time, a addr.Addr, write bool) units.Time {
	off := uint64(a - d.base)
	line := off / uint64(d.cfg.LineSize)
	nch := uint64(len(d.channels))
	ch := &d.channels[line%nch]
	chLine := line / nch
	row := chLine / (uint64(d.cfg.RowBytes) / uint64(d.cfg.LineSize))
	bk := &ch.banks[row%uint64(d.cfg.Banks)]

	var lat units.Time
	switch {
	case bk.open && bk.openRow == row:
		lat = d.cfg.TCas
		d.stats.RowHits++
	case bk.open:
		lat = d.cfg.TRp + d.cfg.TRcd + d.cfg.TCas
		d.stats.RowConflicts++
	default:
		lat = d.cfg.TRcd + d.cfg.TCas
		d.stats.RowMisses++
	}
	bk.open, bk.openRow = true, row

	if write {
		d.stats.Writes++
		return ch.bus.AcquireAt(at+lat, d.cfg.LineSize)
	}
	d.stats.Reads++
	done := ch.bus.AcquireAt(at+lat, d.cfg.LineSize)

	// ECC SECDED on the read path: a corrected single-bit error costs fixed
	// controller latency; an uncorrectable error triggers re-reads with
	// bounded exponential backoff, each re-occupying the channel bus (the
	// row stays open, so only the column access repeats). A read that
	// exhausts its retry budget returns poisoned data — recorded here and
	// surfaced by the machine as a MemFault outcome. The decision is keyed
	// by the read index, so the fault schedule is fixed up front.
	plan := d.inj.FarRead(d.stats.Reads - 1)
	if plan.Corrected {
		done += d.inj.CorrectLatency()
	}
	for k := 0; k < plan.Retries; k++ {
		done = ch.bus.AcquireAt(done+d.inj.Backoff(k)+d.cfg.TCas, d.cfg.LineSize)
	}
	if plan.Fatal {
		d.inj.NoteMemFault(uint64(a), done, plan.Retries)
	}
	return done
}

// SetFaults attaches a fault injector; nil (the default) models perfect
// memory. Call before the first access.
func (d *Device) SetFaults(in *fault.Injector) { d.inj = in }

// BulkAcquire reserves channel bandwidth for n bytes spread evenly across
// all channels starting at time at, returning when the slowest channel
// finishes. Used by the DMA engines, which stream large extents without
// per-line commands. write selects the accounting direction: the device a
// copy streams out of counts the transfer as Reads, the device it lands in
// counts it as Writes, so Table I access counts stay direction-faithful.
// DMA streams bypass the per-read ECC retry model: the engines are assumed
// to carry transfer-level CRC with end-to-end recovery (see DESIGN.md's
// fault-model section).
func (d *Device) BulkAcquire(at units.Time, n units.Bytes, write bool) units.Time {
	per := units.Bytes(units.CeilDiv(int64(n), int64(len(d.channels))))
	var done units.Time
	for i := range d.channels {
		if t := d.channels[i].bus.AcquireAt(at+d.cfg.TRcd+d.cfg.TCas, per); t > done {
			done = t
		}
	}
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
// request and row-buffer counters on the "far" track, and per-channel bytes
// and busy time on "far.ch<i>" tracks. Probe closures read simulator-owned
// counters only.
func (d *Device) RegisterProbes(tel *telemetry.Recorder) {
	tel.Counter("far", "reads", func() uint64 { return d.stats.Reads })
	tel.Counter("far", "writes", func() uint64 { return d.stats.Writes })
	tel.Counter("far", "row_hits", func() uint64 { return d.stats.RowHits })
	tel.Counter("far", "row_misses", func() uint64 { return d.stats.RowMisses })
	tel.Counter("far", "row_conflicts", func() uint64 { return d.stats.RowConflicts })
	for i := range d.channels {
		bus := d.channels[i].bus
		track := fmt.Sprintf("far.ch%d", i)
		tel.Counter(track, "bytes", bus.Bytes)
		tel.Counter(track, "busy_ps", func() uint64 { return uint64(bus.BusyTime()) })
	}
}

// BytesMoved returns the total bytes transferred across all channel buses.
func (d *Device) BytesMoved() uint64 {
	var n uint64
	for i := range d.channels {
		n += d.channels[i].bus.Bytes()
	}
	return n
}

// BusyTime returns the summed busy time across all channel buses (the raw
// material for per-phase utilization: divide a delta by duration x channels).
func (d *Device) BusyTime() units.Time {
	var t units.Time
	for i := range d.channels {
		t += d.channels[i].bus.BusyTime()
	}
	return t
}

// Channels returns the channel count.
func (d *Device) Channels() int { return len(d.channels) }

// Utilization returns the mean data-bus utilization across channels.
func (d *Device) Utilization() float64 {
	var u float64
	for i := range d.channels {
		u += d.channels[i].bus.Utilization()
	}
	return u / float64(len(d.channels))
}

// BusyUntil returns the latest time any channel data bus is occupied. A
// drained replay must report SimTime at or after this point.
func (d *Device) BusyUntil() units.Time {
	var t units.Time
	for i := range d.channels {
		if b := d.channels[i].bus.BusyUntil(); b > t {
			t = b
		}
	}
	return t
}
