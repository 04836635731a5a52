package engine

import "repro/internal/units"

// Resource models a serially-occupied, bandwidth-limited facility — a NoC
// link, a DRAM channel data bus, a scratchpad channel. A request occupies
// the resource for a service time derived from its size and the resource
// bandwidth; requests queue FIFO behind the busy period. This is the
// standard busy-until abstraction: cheap (no queue data structure needed —
// arrival order is event order) yet it produces the queueing delays that
// make bandwidth-bound workloads bandwidth-bound.
type Resource struct {
	sim       *Sim
	bw        units.BytesPerSecond
	busyUntil units.Time

	// Stats.
	busyTime units.Time // total occupied time
	bytes    uint64     // bytes transferred
}

// NewResource returns a resource of the given bandwidth attached to sim.
func NewResource(sim *Sim, bw units.BytesPerSecond) *Resource {
	return &Resource{sim: sim, bw: bw}
}

// Acquire claims the resource for n bytes starting no earlier than the
// current simulated time, and returns the time at which the transfer
// completes. The caller schedules its continuation at the returned time.
func (r *Resource) Acquire(n units.Bytes) units.Time {
	start := r.sim.Now()
	if r.busyUntil > start {
		start = r.busyUntil
	}
	svc := r.bw.TransferTime(n)
	r.busyUntil = start + svc
	r.busyTime += svc
	r.bytes += uint64(n)
	return r.busyUntil
}

// AcquireAt is Acquire but with an explicit earliest-start time (used when
// a request reaches this resource only after an upstream latency).
func (r *Resource) AcquireAt(earliest units.Time, n units.Bytes) units.Time {
	return r.AcquireAtFactor(earliest, n, 1)
}

// AcquireAtFactor is AcquireAt with the service time stretched by factor
// (>= 1): the request occupies the resource as if it ran at bandwidth/factor.
// The fault layer uses it to model a degraded channel; the byte count is
// unaffected, only occupancy grows.
func (r *Resource) AcquireAtFactor(earliest units.Time, n units.Bytes, factor int64) units.Time {
	if factor < 1 {
		panic("engine: resource slowdown factor must be >= 1")
	}
	start := earliest
	if start < r.sim.Now() {
		start = r.sim.Now()
	}
	if r.busyUntil > start {
		start = r.busyUntil
	}
	svc := r.bw.TransferTime(n) * units.Time(factor)
	r.busyUntil = start + svc
	r.busyTime += svc
	r.bytes += uint64(n)
	return r.busyUntil
}

// Utilization returns busy time divided by total elapsed time (0 when no
// time has passed).
func (r *Resource) Utilization() float64 {
	if r.sim.Now() == 0 {
		return 0
	}
	return float64(r.busyTime) / float64(r.sim.Now())
}

// BusyUntil returns the time the current busy period ends (zero when the
// resource was never acquired). A fully drained simulation satisfies
// BusyUntil() <= sim.Now() for every resource; callers use this to verify
// that posted traffic was run to completion.
func (r *Resource) BusyUntil() units.Time { return r.busyUntil }

// BusyTime returns the total time the resource has been occupied — the
// numerator of Utilization, exposed for telemetry probes and per-phase
// utilization deltas.
func (r *Resource) BusyTime() units.Time { return r.busyTime }

// Bytes returns the number of bytes transferred through the resource.
func (r *Resource) Bytes() uint64 { return r.bytes }
