// Package telemetry is the simulator's deterministic observability layer —
// the role SST's statistics subsystem plays in the paper's experimental
// setup. A Recorder collects three kinds of evidence about one replay:
//
//   - Time series: devices register named counters (probes) at machine
//     construction; an epoch sampler driven from the engine's event loop
//     reads every probe at each multiple of the epoch in simulated time.
//     Probes are pull-based closures over simulator-owned counters, so a
//     machine built without a Recorder pays nothing — no scheduled events,
//     no allocations, one nil check per event.
//
//   - Phase attribution: trace.OpPhase markers recorded by the algorithms
//     map simulated time onto algorithm phases (NMsort's pivot selection,
//     chunk sorting, and batch merging vs. the baseline's run formation and
//     merge); the machine snapshots device totals at each marker and the
//     deltas become per-phase bandwidth/utilization breakdowns (PhaseUsage).
//
//   - Discrete events: spans (barrier waits, DMA copies) and instants
//     (MemFaults) on named tracks.
//
// Everything a Recorder stores is derived from simulated time and
// simulator-owned counters inside the single-threaded event loop, so its
// exports — Chrome trace-event JSON (chrome.go) and CSV time series
// (csv.go) — are bit-identical across runs and GOMAXPROCS settings, the
// same guarantee the replay results themselves carry.
package telemetry

import (
	"repro/internal/units"
)

// probe is one registered counter: a pull closure over a device's counter.
type probe struct {
	track string // device/channel grouping, e.g. "far.ch0"
	name  string // counter name within the track, e.g. "bytes"
	fn    func() uint64
}

// phaseMark is one algorithm phase boundary.
type phaseMark struct {
	name string
	at   units.Time
}

// span is one closed interval on a named track.
type span struct {
	track, name string
	start, end  units.Time
}

// instant is one point event on a named track.
type instant struct {
	track, name string
	at          units.Time
}

// Recorder collects one replay's telemetry. Recorders are single-use (one
// machine, one replay) and single-threaded: every method runs either during
// machine construction or inside the event loop. The zero value is not
// usable; use New.
type Recorder struct {
	epoch    units.Time
	attached bool
	finished bool
	end      units.Time

	probes []probe
	times  []units.Time // sample timestamps
	values []uint64     // row-major: len(times) rows x len(probes) columns

	phases   []phaseMark
	spans    []span
	instants []instant
}

// New returns a Recorder sampling every probe at each multiple of epoch in
// simulated time. New panics on a non-positive epoch.
func New(epoch units.Time) *Recorder {
	if epoch <= 0 {
		panic("telemetry: epoch must be positive")
	}
	return &Recorder{epoch: epoch}
}

// Epoch returns the sampling resolution.
func (r *Recorder) Epoch() units.Time { return r.epoch }

// Attach marks the recorder as bound to a machine. It panics on a second
// call: a Recorder interleaving two machines' samples would be garbage.
func (r *Recorder) Attach() {
	if r.attached {
		panic("telemetry: Recorder attached to a second machine; recorders are single-use")
	}
	r.attached = true
}

// Counter registers one probe. fn must be a pure read of simulator-owned
// state; it is called once per sample epoch from inside the event loop.
// Registration order fixes column order in every export, so devices must
// register in a deterministic order (machine construction order).
func (r *Recorder) Counter(track, name string, fn func() uint64) {
	if len(r.times) > 0 {
		panic("telemetry: Counter registered after sampling started")
	}
	//nmlint:ignore hotpath probes are registered at machine construction, before sampling; Sample only reads them
	r.probes = append(r.probes, probe{track: track, name: name, fn: fn})
}

// Samples returns the number of sample rows recorded so far.
func (r *Recorder) Samples() int { return len(r.times) }

// Sample records one row: the value of every probe at simulated time t.
// The engine's sampler hook calls it at each epoch boundary — the telemetry
// fast path that the idle-overhead bench gate (<5%) protects.
//
//nmlint:hotpath
func (r *Recorder) Sample(t units.Time) {
	//nmlint:ignore hotpath amortized time-series growth; the telemetry-active cost is accepted and bench-gated
	r.times = append(r.times, t)
	for i := range r.probes {
		//nmlint:ignore hotpath amortized row growth; same telemetry-active trade as times
		r.values = append(r.values, r.probes[i].fn())
	}
}

// MarkPhase records an algorithm phase starting at time at. Phases are
// half-open: each runs until the next mark or the end of the replay.
func (r *Recorder) MarkPhase(name string, at units.Time) {
	//nmlint:ignore hotpath one append per phase marker; bounded by the trace's marker count
	r.phases = append(r.phases, phaseMark{name: name, at: at})
}

// Span records one closed interval on a track (e.g. a core's barrier wait,
// a DMA copy in flight).
func (r *Recorder) Span(track, name string, start, end units.Time) {
	//nmlint:ignore hotpath one span per barrier wait or DMA copy; telemetry-active trade, bench-gated
	r.spans = append(r.spans, span{track: track, name: name, start: start, end: end})
}

// Instant records one point event on a track (e.g. a MemFault).
func (r *Recorder) Instant(track, name string, at units.Time) {
	r.instants = append(r.instants, instant{track: track, name: name, at: at})
}

// Finish seals the recorder at the replay's end time, recording one final
// sample row there (so the last partial epoch is not lost). Finishing twice
// panics.
func (r *Recorder) Finish(end units.Time) {
	if r.finished {
		panic("telemetry: Recorder.Finish called twice")
	}
	r.finished = true
	r.end = end
	if n := len(r.times); n == 0 || r.times[n-1] < end {
		r.Sample(end)
	}
}

// row returns sample row i as a slice of len(probes) values.
func (r *Recorder) row(i int) []uint64 {
	np := len(r.probes)
	return r.values[i*np : (i+1)*np]
}

// sliceTracks returns the ordered list of non-counter track names: the
// phase track first (when phases were marked), then span and instant tracks
// in order of first appearance. The order is a pure function of recorded
// data, so exports are deterministic.
func (r *Recorder) sliceTracks() []string {
	var tracks []string
	seen := map[string]bool{}
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			tracks = append(tracks, name)
		}
	}
	if len(r.phases) > 0 {
		add(phaseTrack)
	}
	for i := range r.spans {
		add(r.spans[i].track)
	}
	for i := range r.instants {
		add(r.instants[i].track)
	}
	return tracks
}

// phaseTrack is the track name carrying algorithm phase slices.
const phaseTrack = "phases"

// PhaseUsage is one algorithm phase's share of the memory traffic: the
// device-byte and busy-time deltas between consecutive phase snapshots.
// The machine produces one PhaseUsage per trace.OpPhase marker (plus an
// "(init)" head segment when the first marker arrives after time zero).
type PhaseUsage struct {
	Name       string
	Start, End units.Time

	FarBytes  uint64 // bytes through the far channels during the phase
	NearBytes uint64 // bytes through the near channels during the phase

	FarBusy  units.Time // summed far-channel busy time within the phase
	NearBusy units.Time // summed near-channel busy time within the phase

	FarChannels  int
	NearChannels int
}

// Duration returns the phase length.
func (p PhaseUsage) Duration() units.Time { return p.End - p.Start }

// FarGBps returns the phase's aggregate far-memory bandwidth in GB/s.
func (p PhaseUsage) FarGBps() float64 { return gbps(p.FarBytes, p.Duration()) }

// NearGBps returns the phase's aggregate near-memory bandwidth in GB/s.
func (p PhaseUsage) NearGBps() float64 { return gbps(p.NearBytes, p.Duration()) }

// FarUtil returns mean far-channel utilization within the phase, in [0, 1].
func (p PhaseUsage) FarUtil() float64 { return util(p.FarBusy, p.Duration(), p.FarChannels) }

// NearUtil returns mean near-channel utilization within the phase, in [0, 1].
func (p PhaseUsage) NearUtil() float64 { return util(p.NearBusy, p.Duration(), p.NearChannels) }

func gbps(bytes uint64, d units.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e9
}

func util(busy, d units.Time, channels int) float64 {
	if d <= 0 || channels <= 0 {
		return 0
	}
	return float64(busy) / (float64(d) * float64(channels))
}
