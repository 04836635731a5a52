package harness

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// RunTimeline records the algorithm once and replays it on a NodeFor node
// with a telemetry recorder attached, sampling every probe at the given
// epoch, under the fault environment fc (the zero config for perfect
// memory). It returns the replay result and the sealed recorder, ready for
// ExportChrome/WriteCSV. A MemFault outcome is tolerated like everywhere
// else in the harness (the timeline of a faulting run is exactly what one
// wants to look at).
func RunTimeline(alg Algorithm, w Workload, nearChannels int, epoch units.Time, fc fault.Config) (machine.Result, *telemetry.Recorder, error) {
	tel := telemetry.New(epoch)
	cfg := NodeFor(w.Threads, nearChannels, w.SP)
	cfg.Fault = fc
	cfg.Telemetry = tel
	// One-job schedule: this replay is a supervised cell like any sweep's
	// (sliced, panic-contained, cancellable); telemetry cells never use the
	// manifest, so the recorder always actually records.
	jobs := []replayJob{{cfg: cfg, rec: recordingOf(alg, w), label: string(alg)}}
	o := runReplays(w.Sup, 1, jobs)[0]
	if err := recordErr(jobs); err != nil {
		return machine.Result{}, nil, err
	}
	if o.err != nil {
		return o.res, nil, o.err
	}
	return o.res, tel, nil
}

// TimelineSweep runs the timeline experiment: NMsort and the merge baseline
// replayed with telemetry attached, reported as an ordinary sweep — whose
// phase breakdown is the experiment's point. The recorders are discarded;
// use RunTimeline to keep one for export.
func TimelineSweep(w Workload, nearChannels int, epoch units.Time) (Sweep, error) {
	s := Sweep{Title: fmt.Sprintf("Timeline sweep, N=%d keys, %d cores, %dX near bandwidth, epoch %s",
		w.N, w.Threads, nearChannels/4, epoch)}
	// Each point owns a private recorder (they are single-use, like
	// machines), so telemetry-instrumented replays pool like any other.
	attach := func(cfg *machine.Config) { cfg.Telemetry = telemetry.New(epoch) }
	return s.onOneNode(w, nearChannels, attach, AlgGNUSort, AlgNMSort)
}
