package harness

import (
	"fmt"

	"repro/internal/fault"
)

// FaultRates is the default fault-sweep axis: per-read transient error rates
// from a healthy part to one on its way out.
var FaultRates = []float64{1e-5, 1e-4, 1e-3, 1e-2}

// RunFaultSweep is the robustness experiment the perfect-memory harness
// could not ask: how the co-design claims degrade as the far memory's error
// rate rises — slowdown from ECC corrections, controller retries, degraded
// near channels, and NoC retransmissions, and the rate at which replays
// start returning uncorrected data (MemFaults).
//
// It records NMsort and the merge baseline once each, then replays both
// under the fault environment fault.Profile(seed, rate) for every rate, on
// nodes with the given near-memory channel count. A rate of zero (always
// included as the first point per algorithm) anchors the slowdown column.
// Replays that end in a MemFault outcome are reported as data, not
// failures. The result is an ordinary Sweep with the fault axis switched
// on, so fault and plain sweeps render through the same table path.
func RunFaultSweep(w Workload, nearChannels int, seed uint64, rates []float64) (Sweep, error) {
	s := Sweep{Title: fmt.Sprintf(
		"Fault sweep, N=%d keys, %d cores, %dX near bandwidth, fault seed %d",
		w.N, w.Threads, nearChannels/4, seed),
		FaultAxis: true}
	if len(rates) == 0 {
		rates = FaultRates
	}

	// Record each algorithm once, beside the (algorithm, rate) replays of the
	// other. The rate-0 anchor leads each algorithm's job run; slowdowns are
	// computed after the schedule drains, from the anchor's slot.
	axis := append([]float64{0}, rates...)
	var jobs []replayJob
	var points []SweepPoint
	for _, alg := range []Algorithm{AlgGNUSort, AlgNMSort} {
		rec := recordingOf(alg, w)
		for _, rate := range axis {
			cfg := NodeFor(w.Threads, nearChannels, w.SP)
			if rate > 0 {
				cfg.Fault = fault.Profile(seed, rate)
			}
			jobs = append(jobs, replayJob{cfg: cfg, rec: rec})
			points = append(points, SweepPoint{
				Label: string(alg),
				Cores: w.Threads,
				Rho:   float64(nearChannels) / 4,
				Rate:  rate,
			})
		}
	}
	s, err := s.collect(w.Sup, replayPar(w.Par, len(jobs)), jobs, points)
	if err != nil {
		return s, err
	}
	var base float64
	for i := range s.Points {
		if s.Points[i].Rate == 0 {
			base = s.Points[i].Result.SimTime.Seconds()
		}
		if base > 0 {
			// A supervised sweep can carry a failed anchor (base 0, from a
			// panicking or cancelled cell); its Slowdown column stays 0
			// instead of dividing by zero.
			s.Points[i].Slowdown = s.Points[i].Result.SimTime.Seconds() / base
		}
	}
	return s, nil
}
