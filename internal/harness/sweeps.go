package harness

import (
	"fmt"
	"strings"

	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// SweepPoint is one (configuration, result) pair of a sweep. The fault-axis
// fields (Rate, Slowdown, MemFault) are meaningful only in sweeps with
// FaultAxis set; elsewhere they stay zero.
type SweepPoint struct {
	Label  string
	Cores  int
	Rho    float64
	Result machine.Result

	Rate     float64 // far-memory bit error rate (fault sweeps)
	Slowdown float64 // sim time over the same algorithm's fault-free run
	MemFault bool    // the replay returned uncorrected data

	// Fail is the supervised failure kind ("panic", "cancelled",
	// "budget", "stall", "error") when this point's replay did not
	// complete; empty on success. Failed points keep their place in the
	// series with a marked label instead of aborting the sweep.
	Fail string
}

// Sweep is a labelled series of simulation results. Plain sweeps and fault
// sweeps share this one type — and therefore one table path — so the fault
// counters appear in every report and the fault-axis columns switch on.
type Sweep struct {
	Title     string
	FaultAxis bool // points vary a fault rate: add rate/slowdown/degraded/retrans columns
	Points    []SweepPoint
}

// Failed counts points whose supervised replay did not complete.
func (s Sweep) Failed() int {
	n := 0
	for _, p := range s.Points {
		if p.Fail != "" {
			n++
		}
	}
	return n
}

// pointLabel renders a point's label with its MemFault and failure marks.
func pointLabel(p SweepPoint) string {
	return report.FailMark(mark(p.Label, p.MemFault), p.Fail)
}

// Report converts the sweep into a renderable table (text/CSV/markdown).
// Fault counters are always present; fault-axis sweeps additionally carry
// the rate, slowdown, and the fault-layer detail columns.
func (s Sweep) Report() *report.Table {
	cols := []string{"config", "cores", "rho"}
	if s.FaultAxis {
		cols = append(cols, "rate", "slowdown")
	}
	cols = append(cols, "sim_time", "near_acc", "far_acc", "far_util", "near_util",
		"corrected", "retries", "mem_faults")
	if s.FaultAxis {
		cols = append(cols, "degraded", "retrans")
	}
	t := report.New(s.Title, cols...)
	for _, p := range s.Points {
		f := p.Result.Faults
		row := []any{pointLabel(p), p.Cores, p.Rho}
		if s.FaultAxis {
			row = append(row, fmt.Sprintf("%.0e", p.Rate), fmt.Sprintf("%.3f", p.Slowdown))
		}
		row = append(row, p.Result.SimTime.String(),
			p.Result.NearAccesses, p.Result.FarAccesses,
			fmt.Sprintf("%.3f", p.Result.FarUtilization),
			fmt.Sprintf("%.3f", p.Result.NearUtilization),
			f.FarCorrected, f.FarRetries, f.MemFaults)
		if s.FaultAxis {
			row = append(row, f.NearDegraded, f.NoCRetransmits)
		}
		t.AddRowf(row...)
	}
	return t
}

// String renders the sweep as an aligned series followed by the per-phase
// traffic breakdown of every point whose replay carried phase markers.
func (s Sweep) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Title)
	fmt.Fprintf(&b, "%-24s %8s %6s", "config", "cores", "rho")
	if s.FaultAxis {
		fmt.Fprintf(&b, " %8s %9s", "rate", "slowdown")
	}
	fmt.Fprintf(&b, " %14s %14s %14s %8s %8s %10s %8s %10s",
		"sim time", "near acc", "far acc", "farU", "nearU",
		"corrected", "retries", "mem faults")
	if s.FaultAxis {
		fmt.Fprintf(&b, " %9s %8s", "degraded", "retrans")
	}
	b.WriteByte('\n')
	for _, p := range s.Points {
		f := p.Result.Faults
		fmt.Fprintf(&b, "%-24s %8d %6.1f", pointLabel(p), p.Cores, p.Rho)
		if s.FaultAxis {
			fmt.Fprintf(&b, " %8.0e %8.3fx", p.Rate, p.Slowdown)
		}
		fmt.Fprintf(&b, " %14s %14d %14d %7.1f%% %7.1f%% %10d %8d %10d",
			p.Result.SimTime,
			p.Result.NearAccesses, p.Result.FarAccesses,
			100*p.Result.FarUtilization, 100*p.Result.NearUtilization,
			f.FarCorrected, f.FarRetries, f.MemFaults)
		if s.FaultAxis {
			fmt.Fprintf(&b, " %9d %8d", f.NearDegraded, f.NoCRetransmits)
		}
		b.WriteByte('\n')
	}
	b.WriteString(s.phaseBreakdown())
	return b.String()
}

// phaseBreakdown renders one aligned block attributing each point's
// bandwidth and channel utilization to its algorithm phases. Points whose
// traces carried no markers are skipped; an empty string means none did.
func (s Sweep) phaseBreakdown() string {
	var b strings.Builder
	for _, p := range s.Points {
		if len(p.Result.Phases) == 0 {
			continue
		}
		if b.Len() == 0 {
			fmt.Fprintf(&b, "\nphase breakdown\n")
			fmt.Fprintf(&b, "  %-24s %-18s %6s %9s %6s %9s %6s\n",
				"config", "phase", "time%", "far GB/s", "farU", "near GB/s", "nearU")
		}
		label := p.Label
		if s.FaultAxis {
			label = fmt.Sprintf("%s@%.0e", p.Label, p.Rate)
		}
		total := p.Result.SimTime
		for _, ph := range p.Result.Phases {
			share := 0.0
			if total > 0 {
				share = 100 * float64(ph.Duration()) / float64(total)
			}
			fmt.Fprintf(&b, "  %-24s %-18s %5.1f%% %9.2f %5.1f%% %9.2f %5.1f%%\n",
				report.FailMark(mark(label, p.MemFault), p.Fail), ph.Name, share,
				ph.FarGBps(), 100*ph.FarUtil(), ph.NearGBps(), 100*ph.NearUtil())
		}
	}
	return b.String()
}

// PhaseTable converts a phase-attribution series into a renderable table —
// the same numbers as the sweep's phase-breakdown block, for standalone
// export (nmsim's telemetry report, the timeline experiment).
func PhaseTable(title string, total units.Time, phases []telemetry.PhaseUsage) *report.Table {
	t := report.New(title, "phase", "start", "duration", "time_pct",
		"far_gbps", "far_util", "near_gbps", "near_util")
	for _, ph := range phases {
		share := 0.0
		if total > 0 {
			share = 100 * float64(ph.Duration()) / float64(total)
		}
		t.AddRowf(ph.Name, ph.Start.String(), ph.Duration().String(),
			fmt.Sprintf("%.1f", share),
			fmt.Sprintf("%.2f", ph.FarGBps()), fmt.Sprintf("%.3f", ph.FarUtil()),
			fmt.Sprintf("%.2f", ph.NearGBps()), fmt.Sprintf("%.3f", ph.NearUtil()))
	}
	return t
}

// BandwidthSweep reproduces claim C1 (§I-A: "a linear reduction in running
// time ... when increasing the bandwidth from two to eight times"): NMsort
// replayed at 2X/4X/8X near bandwidth, beside the far-only baseline on the
// same three nodes. The baseline never reaches the scratchpad, so the pool
// replays it once and fills its other two cells from that replay
// (representatives); TestBandwidthSweep still measures all three.
func BandwidthSweep(w Workload) (Sweep, error) {
	s := Sweep{Title: fmt.Sprintf("Bandwidth sweep, N=%d keys, %d cores", w.N, w.Threads)}
	return s.overBandwidth(w, AlgGNUSort, AlgNMSort)
}

// overBandwidth records each algorithm on w and replays it at 2X/4X/8X near
// bandwidth, node by node — the body of the bandwidth and k-means sweeps.
func (s Sweep) overBandwidth(w Workload, algs ...Algorithm) (Sweep, error) {
	recs := make([]*recording, len(algs))
	for i, alg := range algs {
		recs[i] = recordingOf(alg, w)
	}
	var jobs []replayJob
	var points []SweepPoint // point metadata, parallel to jobs
	for _, ch := range []int{8, 16, 32} {
		for _, rec := range recs {
			cfg := NodeFor(w.Threads, ch, w.SP)
			jobs = append(jobs, replayJob{cfg: cfg, rec: rec})
			points = append(points, SweepPoint{
				Label: fmt.Sprintf("%s@%dX", rec.name, ch/4), Cores: w.Threads,
				Rho: cfg.BandwidthExpansion(),
			})
		}
	}
	return s.collect(w.Sup, replayPar(w.Par, len(jobs)), jobs, points)
}

// collect runs the jobs' recordings and replays as one schedule and merges
// each outcome into its pre-built point, in job order. A recording that fails
// aborts the sweep; a cell that fails stays in the series with its failure
// kind recorded, and callers inspect Sweep.Failed().
func (s Sweep) collect(sup *Supervisor, workers int, jobs []replayJob, points []SweepPoint) (Sweep, error) {
	for i := range jobs {
		// Jobs and points are parallel; carry the report label onto the
		// job so supervised failures name their cell.
		jobs[i].label = points[i].Label
	}
	outs := runReplays(sup, workers, jobs)
	if err := recordErr(jobs); err != nil {
		return s, err
	}
	for i, o := range outs {
		p := points[i]
		p.Result = o.res
		p.MemFault = o.memFault
		p.Fail = FailKind(o.err)
		s.Points = append(s.Points, p)
	}
	return s, nil
}

// CoreSweep reproduces claim C2 (§V: "sorting is memory bound if the
// number of cores is 256 and not memory bound when that number is reduced
// to 128"): both algorithms at 8X bandwidth across core counts. In the
// memory-bound regime NMsort wins; below it the scratchpad buys little.
func CoreSweep(w Workload, coreCounts []int) (Sweep, error) {
	s := Sweep{Title: fmt.Sprintf("Core-count sweep, N=%d keys, 8X near bandwidth", w.N)}
	var jobs []replayJob
	var points []SweepPoint
	for _, cores := range coreCounts {
		cw := w
		cw.Threads = cores
		for _, rec := range []*recording{recordingOf(AlgGNUSort, cw), recordingOf(AlgNMSort, cw)} {
			cfg := NodeFor(cores, 32, w.SP)
			jobs = append(jobs, replayJob{cfg: cfg, rec: rec})
			points = append(points, SweepPoint{Label: rec.name, Cores: cores, Rho: 8})
		}
	}
	return s.collect(w.Sup, replayPar(w.Par, len(jobs)), jobs, points)
}

// ablationSmallAppends compares NMsort against the scattered
// per-bucket-append variant the paper abandoned (experiment A1). Both
// variants run with the paper's Θ(M/B) bucket count, where the average
// (chunk, bucket) segment is a handful of elements — the regime in which
// "these appends can be inefficient".
func ablationSmallAppends(w Workload, nearChannels int) (Sweep, error) {
	if w.Buckets == 0 {
		w.Buckets = int(w.SP / 256) // Θ(M/B) with a modest constant
		if w.Buckets < 16 {
			w.Buckets = 16
		}
	}
	s := Sweep{Title: fmt.Sprintf("Small-appends ablation, N=%d keys, %d cores, %dX, %d buckets", w.N, w.Threads, nearChannels/4, w.Buckets)}
	return s.onOneNode(w, nearChannels, nil, AlgNMSort, AlgNMScatter)
}

// ablationDMA compares NMsort with and without the §VII DMA engines at the
// given bandwidth expansion (experiment A2).
func ablationDMA(w Workload, nearChannels int) (Sweep, error) {
	s := Sweep{Title: fmt.Sprintf("DMA ablation, N=%d keys, %d cores, %dX", w.N, w.Threads, nearChannels/4)}
	return s.onOneNode(w, nearChannels, nil, AlgNMSort, AlgNMSortDM)
}

// onOneNode records each algorithm and replays them on identical nodes,
// each finished by tweak when it is non-nil, as one schedule — the shared
// body of the two ablations and the timeline sweep.
func (s Sweep) onOneNode(w Workload, nearChannels int, tweak func(*machine.Config), algs ...Algorithm) (Sweep, error) {
	var jobs []replayJob
	var points []SweepPoint
	for _, alg := range algs {
		cfg := NodeFor(w.Threads, nearChannels, w.SP)
		if tweak != nil {
			tweak(&cfg)
		}
		jobs = append(jobs, replayJob{cfg: cfg, rec: recordingOf(alg, w)})
		points = append(points, SweepPoint{Label: string(alg), Cores: w.Threads, Rho: float64(nearChannels) / 4})
	}
	return s.collect(w.Sup, replayPar(w.Par, len(jobs)), jobs, points)
}
