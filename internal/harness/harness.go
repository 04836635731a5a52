// Package harness drives the paper's experiments end to end: it records an
// algorithm's trace once (native execution + instrumentation, the Ariel
// role), replays it on simulated nodes with varying near-memory bandwidth
// and core counts (the SST role), and formats the results as the paper's
// Table I and the sweeps behind the Section V claims.
package harness

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/par"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// The harness simulates a cache hierarchy scaled down 8x from Figure 4
// (2KiB L1, 32KiB L2 per quad-core group) together with a scaled workload,
// preserving the ratios that drive the paper's effects: a per-thread run
// exceeds its L2 share (so the baseline's run formation spills to far
// memory) and an NMsort chunk exceeds the aggregate L2 (so in-scratchpad
// sorting really exercises the near-memory channels). EXPERIMENTS.md
// documents the scaling argument.
var (
	// ScaledL1 is the record-time private cache.
	ScaledL1 = trace.L1Geometry{Capacity: 2 * units.KiB, LineSize: 64, Ways: 2}
	// ScaledL2 is the replay-time shared cache per quad-core group.
	ScaledL2 units.Bytes = 32 * units.KiB
)

// Algorithm names a recordable program: a sort, a k-means variant, or the
// PEM sort.
type Algorithm string

// The algorithms under study.
const (
	AlgGNUSort   Algorithm = "gnusort"        // baseline: far-memory-only parallel multiway mergesort
	AlgNMSort    Algorithm = "nmsort"         // the paper's near-memory sort
	AlgNMSortDM  Algorithm = "nmsort-dma"     // NMsort with §VII DMA engines
	AlgNMScatter Algorithm = "nmsort-scatter" // ablation A1: per-bucket small appends, no metadata batching
	AlgParSort   Algorithm = "parsort"        // the Theorem 10 recursive parallel scratchpad sort
	AlgGNUExact  Algorithm = "gnusort-exact"  // baseline with exact multisequence splitting
	AlgKMeansFar Algorithm = "kmeans-far"     // §VII k-means, the point set in far memory
	AlgKMeansSP  Algorithm = "kmeans-sp"      // §VII k-means, the point set pinned in the scratchpad
	AlgPEM       Algorithm = "pem"            // Theorem 8: PEM sort of scratchpad-resident keys
)

// Workload describes one recording, and how the sweeps built on it replay.
type Workload struct {
	N       int           // keys to sort (points to cluster, for k-means)
	Seed    uint64        // input generation seed (pivot seed, for PEM)
	Threads int           // logical threads (= simulated cores used)
	SP      units.Bytes   // scratchpad capacity M
	Buckets int           // NMsort bucket count override (0 = automatic)
	Dist    workload.Dist // key distribution of the sorts ("" = uniform, the paper's)

	// Par is the replay worker count for sweeps: independent sweep points
	// replay concurrently on up to Par workers, each writing its result into
	// its pre-assigned slot, so output stays byte-identical at any value.
	// 0 means GOMAXPROCS; 1 means one replay at a time. Recordings are not
	// under it: they run beside the replays, on every CPU.
	Par int

	// Sup is the supervised runtime every recording and replay runs under:
	// cancellation polling every DefaultSlice events, panic containment
	// (failed cells become marked report rows instead of aborting the
	// sweep), deterministic MemFault retries, and manifest checkpointing.
	// Nil means the zero Supervisor.
	Sup *Supervisor
}

// RecordResult is one recorded algorithm run — made only once its program
// checked its own output — and is its trace: sealed v3 columns, fresh from the
// recorder's builder or mapped from a cache file, that replay in place.
type RecordResult struct {
	Trace *trace.Trace
}

// RecordKey normalizes a workload for Record memoization: only the fields
// that shape the recorded trace remain, each in one spelling. Replay-only
// knobs (Par, the supervisor pointer) are zeroed — they change
// how a trace is replayed, never what gets recorded — and Uniform is "".
func RecordKey(w Workload) Workload {
	w.Par = 0
	w.Sup = nil
	if w.Dist == workload.Uniform {
		w.Dist = ""
	}
	return w
}

// Record executes the algorithm natively under instrumentation and returns
// its trace. The input is regenerated deterministically from the workload
// seed, so equal workloads yield byte-identical traces. Equal (algorithm,
// RecordKey) pairs under one supervisor share one recorded trace: the
// supervisor's own memo, then its RecordCache — byte-neutral, since a
// re-recording would be identical.
func Record(alg Algorithm, w Workload) (RecordResult, error) {
	res, _, err := record(alg, w)
	return res, err
}

// record is Record, also saying whether the recording was found rather
// than made.
func record(alg Algorithm, w Workload) (RecordResult, bool, error) {
	if w.N < 0 || w.Threads <= 0 || w.SP <= 0 {
		// Only the checked fields: the message must not carry the supervisor's
		// address, or equal requests would get unequal errors.
		return RecordResult{}, false, fmt.Errorf("harness: bad workload (n %d, threads %d, sp %v)", w.N, w.Threads, w.SP)
	}
	sup := w.Sup
	if sup == nil {
		sup = new(Supervisor)
	}
	return sup.record(alg, w)
}

// A program is one recordable algorithm. run, on an Env whose recorder and
// seed come from w, allocates its own input (in an order that is part of the
// trace's bytes), runs, checks its own output, and refuses a w it cannot run.
type program struct {
	alg Algorithm
	run func(env *core.Env, w Workload) error
}

// programs is every recordable algorithm, in the order usage text lists them.
var programs = []program{
	{AlgGNUSort, sorting(func(e *core.Env, a trace.U64, _ Workload) { core.GNUSort(e, a) })},
	{AlgNMSort, sorting(func(e *core.Env, a trace.U64, w Workload) { core.NMSort(e, a, core.NMOptions{Buckets: w.Buckets}) })},
	{AlgNMSortDM, sorting(func(e *core.Env, a trace.U64, w Workload) {
		core.NMSort(e, a, core.NMOptions{Buckets: w.Buckets, DMA: true})
	})},
	{AlgNMScatter, sorting(func(e *core.Env, a trace.U64, w Workload) {
		core.NMSortSmallAppends(e, a, core.NMOptions{Buckets: w.Buckets})
	})},
	{AlgParSort, sorting(func(e *core.Env, a trace.U64, _ Workload) { core.ParScratchpadSort(e, a, core.SeqOptions{}) })},
	{AlgGNUExact, sorting(func(e *core.Env, a trace.U64, _ Workload) { core.GNUSortOpt(e, a, core.GNUOptions{Exact: true}) })},
	{AlgKMeansFar, clustering(false)},
	{AlgKMeansSP, clustering(true)},
	{AlgPEM, pemSort},
}

// AlgorithmNames returns the recordable algorithms' names in table order.
func AlgorithmNames() (names []string) {
	for _, p := range programs {
		names = append(names, string(p.alg))
	}
	return names
}

// sorting is the run of one sort: w.N far-memory keys drawn from w.Dist,
// seeded from w.Seed, sorted in place, in order and a permutation after.
func sorting(sort func(env *core.Env, a trace.U64, w Workload)) func(*core.Env, Workload) error {
	return func(env *core.Env, w Workload) error {
		a := env.AllocFar(w.N)
		workload.Fill(a.D, w.Dist, w.Seed^0xDA7A)
		sum := core.Checksum(a.D)
		sort(env, a, w)
		if !core.IsSorted(a.D) || core.Checksum(a.D) != sum {
			return errors.New("corrupted its input")
		}
		return nil
	}
}

// recordNative runs the algorithm's program under instrumentation: the
// recording itself, with no memo or cache in front of it, and the one place a
// trace that is replayed gets recorded.
func recordNative(alg Algorithm, w Workload) (RecordResult, error) {
	i := slices.IndexFunc(programs, func(p program) bool { return p.alg == alg })
	if i < 0 {
		return RecordResult{}, fmt.Errorf("harness: unknown algorithm %q", alg)
	}
	rec := trace.NewRecorder(w.Threads, ScaledL1, trace.DefaultCosts())
	if err := programs[i].run(core.NewEnv(w.Threads, w.SP, rec, w.Seed), w); err != nil {
		return RecordResult{}, fmt.Errorf("harness: %s %w", alg, err)
	}
	// Seal on every host CPU: the seal and the sealed image's first walk are
	// per-thread, and together they are the only O(ops) work left between
	// the program and the first replay. The walk validates, counts and
	// digests at once, so cell keys, the trace cache and the daemon's store
	// find the digest already there.
	tr := rec.Finish(par.Each)
	if err := tr.Validate(); err != nil {
		return RecordResult{}, fmt.Errorf("harness: invalid trace: %w", err)
	}
	return RecordResult{Trace: tr}, nil
}

// NodeFor builds the simulated node: the Figure 4 machine with the given
// core count (a multiple of 4) and near-memory channel count (8/16/32 for
// 2X/4X/8X), scratchpad capacity to match the workload, and DMA engines
// enabled iff the recorded algorithm issued DMA descriptors.
func NodeFor(cores, nearChannels int, sp units.Bytes) machine.Config {
	cfg := machine.PaperConfig(nearChannels, sp)
	cfg.Cores = cores
	cfg.L2Capacity = ScaledL2
	cfg.NoC = noc.Paper(cores / cfg.CoresPerGroup)
	return cfg
}

// Row is one line of a Table-I-style report.
type Row struct {
	Name    string
	Rho     float64 // near/far bandwidth expansion (0 for the baseline's n/a)
	Result  machine.Result
	RelTime float64 // time relative to the first (baseline) row

	// Fail is the supervised failure kind ("panic", "cancelled", ...) when
	// this row's replay did not complete; empty on success. Failed rows
	// keep their place in the table with a marked name.
	Fail string
}

// Table is a Table-I-style report.
type Table struct {
	Title string
	Rows  []Row
}

// Failed counts rows whose supervised replay did not complete.
func (t Table) Failed() int {
	n := 0
	for _, r := range t.Rows {
		if r.Fail != "" {
			n++
		}
	}
	return n
}

// Table1Faults reproduces the paper's Table I on the given workload: the GNU
// baseline plus NMsort under 2X, 4X, and 8X near-memory bandwidth, all on
// nodes with w.Threads cores. Traces are recorded once per algorithm and
// replayed per configuration, exactly as the paper replays one binary
// against varying memory systems. Every node carries fc, so the table shows
// how the co-design comparison shifts when the memory system is imperfect;
// a zero (or Seed == 0) config is perfect memory. Replays ending in a
// MemFault outcome keep their row — the timing is valid, the simulated
// program's output is not — and are marked with a trailing "!"; replays that
// fail keep their row marked with the failure kind (Table.Failed). A
// recording that fails is the returned error.
func Table1Faults(w Workload, dma bool, fc fault.Config) (Table, error) {
	t := Table{Title: fmt.Sprintf("SST-style simulation, N=%d keys, %d cores", w.N, w.Threads)}

	alg := AlgNMSort
	if dma {
		alg = AlgNMSortDM
	}
	gnu, nm := recordingOf(AlgGNUSort, w), recordingOf(alg, w)

	// Replays are declared in row order: the baseline on the 2X node (it
	// never touches near memory, so its result is identical on any near
	// configuration), then NMsort at 2X/4X/8X — all sharing the two traces
	// read-only. NMsort has three cells waiting on it, so it is recorded
	// first and the baseline's recording hides behind its replays.
	channels := []int{8, 8, 16, 32}
	traces := []*recording{gnu, nm, nm, nm}
	labels := []string{"GNU Sort", "NMsort (2X)", "NMsort (4X)", "NMsort (8X)"}
	jobs := make([]replayJob, len(channels))
	for i, ch := range channels {
		cfg := NodeFor(w.Threads, ch, w.SP)
		cfg.Fault = fc
		jobs[i] = replayJob{cfg: cfg, rec: traces[i], label: labels[i]}
	}
	outs := runReplays(w.Sup, replayPar(w.Par, len(jobs)), jobs)
	if err := recordErr(jobs); err != nil {
		return t, err
	}
	baseTime := outs[0].res.SimTime.Seconds()
	for i, o := range outs {
		r := Row{
			Name:   report.FailMark(mark(labels[i], o.memFault), FailKind(o.err)),
			Fail:   FailKind(o.err),
			Result: o.res,
		}
		if i > 0 {
			r.Rho = jobs[i].cfg.BandwidthExpansion()
		}
		switch {
		case i == 0:
			r.RelTime = 1
		case baseTime > 0:
			r.RelTime = o.res.SimTime.Seconds() / baseTime
		}
		t.Rows = append(t.Rows, r)
	}
	return t, nil
}

// mark appends the MemFault marker to a row name.
func mark(name string, faulted bool) string {
	if faulted {
		return name + " !"
	}
	return name
}

// Report converts the table into a renderable grid (text/CSV/markdown):
// one row per algorithm configuration, the transposed layout that suits
// CSV consumers better than the paper's row-per-metric layout.
func (t Table) Report() *report.Table {
	rt := report.New(t.Title, "config", "rho", "sim_time", "scratchpad_acc", "dram_acc", "rel_time",
		"corrected", "retries", "mem_faults")
	for _, r := range t.Rows {
		rho := "-"
		if r.Rho > 0 {
			rho = fmt.Sprintf("%g", r.Rho)
		}
		f := r.Result.Faults
		rt.AddRowf(r.Name, rho, r.Result.SimTime.String(),
			r.Result.NearAccesses, r.Result.FarAccesses,
			fmt.Sprintf("%.3f", r.RelTime),
			f.FarCorrected, f.FarRetries, f.MemFaults)
	}
	return rt
}

// String renders the table in the layout of the paper's Table I.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-22s", "")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%16s", r.Name)
	}
	b.WriteByte('\n')

	fmt.Fprintf(&b, "%-22s", "Sim Time")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%16s", r.Result.SimTime)
	}
	b.WriteByte('\n')

	fmt.Fprintf(&b, "%-22s", "Scratchpad Accesses")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%16d", r.Result.NearAccesses)
	}
	b.WriteByte('\n')

	fmt.Fprintf(&b, "%-22s", "DRAM Accesses")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%16d", r.Result.FarAccesses)
	}
	b.WriteByte('\n')

	fmt.Fprintf(&b, "%-22s", "Relative Time")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%15.3fx", r.RelTime)
	}
	b.WriteByte('\n')
	return b.String()
}
