package harness

import (
	"io"

	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/units"
)

// The experiment registry: the single catalogue of the paper's sweeps, its
// model-side results and its Table I, shared by cmd/sweep and cmd/nmsim
// (flags) and internal/serve (JSON requests) so the front ends can never
// drift on what an experiment name means. Each entry maps parsed parameters plus a workload to an
// Output; front ends own only the string-to-parameter parsing.

// ExperimentParams carries the per-experiment knobs beyond the workload,
// already parsed. Zero values select the registry's defaults, which are
// the same defaults cmd/sweep has always had — so an empty params struct
// renders byte-identically to a flagless sweep run.
type ExperimentParams struct {
	// CoreList is the -exp=cores axis; empty means DefaultCoreList.
	CoreList []int
	// FaultSeed seeds -exp=faults injection (0 disables injection).
	FaultSeed uint64
	// FaultRates is the -exp=faults error-rate axis; empty means the
	// FaultRates default axis.
	FaultRates []float64
	// Epoch is the -exp=timeline sampling epoch; 0 means DefaultEpoch.
	Epoch units.Time
	// DMA makes table1's NMsort use the §VII DMA engines.
	DMA bool
	// Fault is the fault environment every table1 node carries; the zero
	// value injects nothing.
	Fault fault.Config
}

// DefaultCoreList is the -exp=cores axis when none is given — the
// paper's §V core counts.
func DefaultCoreList() []int { return []int{64, 128, 192, 256} }

// DefaultEpoch is the -exp=timeline sampling epoch when none is given.
const DefaultEpoch = 10 * units.Microsecond

// Experiment is one registered experiment: a stable name (the -exp value
// and the serving API's exp field), a one-line description (usage text is
// generated from these), and the runner.
type Experiment struct {
	Name string
	Desc string
	Run  func(p ExperimentParams, w Workload) (Output, error)
}

// Output is what an experiment leaves to print — a Sweep, Table I's Table,
// or a model-side row's one grid: its own text layout, the same data as a renderable grid, and the
// count of cells whose supervised replay did not complete.
type Output interface {
	String() string
	Report() *report.Table
	Failed() int
}

// Render writes o in format f: the experiment's own layout for text, its
// grid for everything else.
func Render(w io.Writer, o Output, f report.Format) error {
	if f == report.Text {
		_, err := io.WriteString(w, o.String())
		return err
	}
	return o.Report().Render(w, f)
}

// Experiments is the registry, in display order. Adding an experiment
// here is the whole job: flag validation, usage text, and the serving
// API's experiment set all follow.
var Experiments = []Experiment{
	{"bandwidth", "claim C1 — NMsort's runtime falls as near bandwidth rises 2X→8X; the baseline is insensitive",
		func(p ExperimentParams, w Workload) (Output, error) {
			return BandwidthSweep(w)
		}},
	{"cores", "claim C2 — the scratchpad pays off in the memory-bound regime (256 cores) and not below it",
		func(p ExperimentParams, w Workload) (Output, error) {
			cc := p.CoreList
			if len(cc) == 0 {
				cc = DefaultCoreList()
			}
			return CoreSweep(w, cc)
		}},
	{"dma", "experiment A2 — the §VII DMA-engine extension",
		func(p ExperimentParams, w Workload) (Output, error) {
			return AblationDMA(w, 16)
		}},
	{"appends", "experiment A1 — bucket-metadata batching ablation",
		func(p ExperimentParams, w Workload) (Output, error) {
			return AblationSmallAppends(w, 16)
		}},
	{"kmeans", "the §VII k-means extension",
		func(p ExperimentParams, w Workload) (Output, error) {
			kw := DefaultKMeans()
			kw.Th = w.Threads
			kw.Par = w.Par
			kw.Sup = w.Sup
			return KMeansSweep(kw)
		}},
	{"faults", "experiment F1 — slowdown, retry counts, and MemFault outcomes vs. the far memory's error rate",
		func(p ExperimentParams, w Workload) (Output, error) {
			return RunFaultSweep(w, 16, p.FaultSeed, p.FaultRates)
		}},
	{"timeline", "telemetry-instrumented replay at 4X — per-phase bandwidth and utilization, NMsort vs. the baseline",
		func(p ExperimentParams, w Workload) (Output, error) {
			epoch := p.Epoch
			if epoch <= 0 {
				epoch = DefaultEpoch
			}
			return TimelineSweep(w, 16, epoch)
		}},
	// The model-side rows (paper.go) take no parameters.
	{"membound", "claim C4 — Section V-A's y·lgZ < x on the paper's node, and the crossover core count (model only)", memBound},
	{"codesign", "vendor guidance — rho*, speedups and ceiling from the paper's Table I profile and from Table I's cells on this workload", coDesign},
	{"m1", "experiment M1 — Theorem 6: the sequential sort's line transfers vs the model, six doublings of N up to -n", blockTransfers},
	{"m2", "experiment M2 — Lemma 5: split quality and recursion depth, six doublings of N up to -n", lemma5},
	{"m3", "experiment M3 — Corollaries 3/7: in-scratchpad mergesort vs quicksort near lines, x = n/64, n/16, n/4, n", innerSort},
	{"pem", "experiment M-PEM — Theorem 8: PEM sort of n scratchpad-resident keys at p' = 4, 16, 64 threads, 4X", pemSweep},
	{"table1", "the paper's Table I (cmd/nmsim parity); dma/dist/fault_rate apply",
		func(p ExperimentParams, w Workload) (Output, error) {
			return Table1Faults(w, p.DMA, p.Fault)
		}},
}

// FindExperiment looks a name up in the registry.
func FindExperiment(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// ExperimentNames returns the registered names in display order.
func ExperimentNames() []string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return names
}
