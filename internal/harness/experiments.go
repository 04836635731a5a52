package harness

import (
	"io"

	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/units"
)

// The experiment registry: the single catalogue of the paper's sweeps, its
// model-side results and its Table I. Each entry maps parsed parameters plus
// a workload to an Output; serve.RunSweep is the one place a request — from
// cmd/sweep's or cmd/nmsim's flags, or a /v1/sweeps body — becomes those.

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
// generated from these), what it reproduces — the paper's table, theorem or
// section and EXPERIMENTS.md's heading id, "Table I", "§V claim C1",
// "Theorem 6" — and the runner.
type Experiment struct {
	Name  string
	Desc  string
	Paper string
	Run   func(p ExperimentParams, w Workload) (Output, error)
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
	{"bandwidth", "claim C1 — NMsort's runtime falls as near bandwidth rises 2X→8X; the baseline is insensitive", "§V claim C1",
		func(p ExperimentParams, w Workload) (Output, error) {
			return BandwidthSweep(w)
		}},
	{"cores", "claim C2 — the scratchpad pays off in the memory-bound regime (256 cores) and not below it", "§V claim C2",
		func(p ExperimentParams, w Workload) (Output, error) {
			cc := p.CoreList
			if len(cc) == 0 {
				cc = DefaultCoreList()
			}
			return CoreSweep(w, cc)
		}},
	{"dma", "experiment A2 — the §VII DMA-engine extension", "§VII A2",
		func(p ExperimentParams, w Workload) (Output, error) {
			return AblationDMA(w, 16)
		}},
	{"appends", "experiment A1 — bucket-metadata batching ablation", "§IV-D A1",
		func(p ExperimentParams, w Workload) (Output, error) {
			return AblationSmallAppends(w, 16)
		}},
	{"kmeans", "the §VII k-means extension", "§VII K1",
		func(p ExperimentParams, w Workload) (Output, error) {
			// The row pins its recording: 8MiB of points, more than a 256-core
			// node's 2MiB of L2 and less than the 12MiB scratchpad. Only the
			// node and the replay knobs come from w (Dist would split its key).
			return KMeansSweep(Workload{N: 1 << 18, Seed: 31, Threads: w.Threads, SP: 12 * units.MiB,
				Par: w.Par, Sup: w.Sup})
		}},
	{"faults", "experiment F1 — slowdown, retry counts, and MemFault outcomes vs. the far memory's error rate", "F1, beyond the paper",
		func(p ExperimentParams, w Workload) (Output, error) {
			return RunFaultSweep(w, 16, p.FaultSeed, p.FaultRates)
		}},
	{"timeline", "telemetry-instrumented replay at 4X — per-phase bandwidth and utilization, NMsort vs. the baseline", "Table I, TL",
		func(p ExperimentParams, w Workload) (Output, error) {
			epoch := p.Epoch
			if epoch <= 0 {
				epoch = DefaultEpoch
			}
			return TimelineSweep(w, 16, epoch)
		}},
	// The model-side rows (paper.go) take no parameters.
	{"membound", "claim C4 — Section V-A's y·lgZ < x on the paper's node, and the crossover core count (model only)", "§V-A claim C4", memBound},
	{"codesign", "vendor guidance — rho*, speedups and ceiling from the paper's Table I profile and from Table I's cells on this workload", "§I-A and §VII vendor guidance", coDesign},
	{"m1", "experiment M1 — Theorem 6: the sequential sort's line transfers vs the model, six doublings of N up to -n", "Theorem 6", blockTransfers},
	{"m2", "experiment M2 — Lemma 5: split quality and recursion depth, six doublings of N up to -n", "Lemma 5", lemma5},
	{"m3", "experiment M3 — Corollaries 3/7: in-scratchpad mergesort vs quicksort near lines, x = n/64, n/16, n/4, n", "Corollary 7", innerSort},
	{"pem", "experiment M-PEM — Theorem 8: PEM sort of n scratchpad-resident keys at p' = 4, 16, 64 threads, 4X", "Theorem 8", pemSweep},
	{"table1", "the paper's Table I (cmd/nmsim parity); dma/dist/fault_rate apply", "Table I",
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
