package harness

import (
	"runtime"
	"sort"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/trace"
)

// Sweep points are independent replays of immutable recorded traces: each
// point owns a private engine, machine, and fault injector, and the fault
// injector is counter-keyed (order-independent by construction), so points
// may run concurrently in any order. runReplays is the deterministic worker
// pool every sweep goes through — each job writes only its pre-assigned
// output slot, so a sweep's rendered report is byte-identical at any worker
// count, including 1.

// replayJob is one independent sweep point: a machine configuration plus
// the recorded trace to replay on it. The trace is shared read-only across
// jobs — replay never mutates a stream — and may be a decoded *Trace or a
// columnar v3 file replayed in place. label is the point's report label,
// carried so supervised failures name their cell.
type replayJob struct {
	cfg   machine.Config
	tr    trace.Source
	label string
}

// replayOut is one job's outcome, written into the job's slot.
type replayOut struct {
	res      machine.Result
	memFault bool // the replay completed but returned uncorrected data
	attempts int  // supervised replay attempts (0 on the unsupervised path)
	shared   bool // filled from its representative's replay, not replayed (see representatives)
	err      error
}

// replayPar resolves a Workload.Par knob against a job count: 0 means
// GOMAXPROCS, and a pool never has more workers than jobs.
func replayPar(p, n int) int {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// claimOrder is the order in which a pool's workers claim jobs: longest
// first, by recorded op count (replay time tracks it closely; the machine
// configuration matters far less), ties in slot order. A sweep lists its
// cells in report order, which tends to put a long NMsort cell last, where it
// would run alone while the other workers sit idle; handing the long cells
// out first is the classic longest-processing-time-first rule.
func claimOrder(jobs []replayJob) []int {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].tr.Ops() > jobs[order[b]].tr.Ops() })
	return order
}

// representatives maps every job to the job whose replay it shares: itself,
// or the first earlier job on the same trace whose machine differs at most in
// cfg.Near, when that trace is near-blind. A machine whose near device serves
// no request runs the same steps under any Near (machine.Result.ForNear), so
// the two are one replay and only the representative needs a worker. An
// alias carries no telemetry recorder, which must actually record (the
// equality below then rules one out on the representative too).
func representatives(jobs []replayJob) []int {
	rep := make([]int, len(jobs))
	for i, j := range jobs {
		rep[i] = i
		if j.cfg.Telemetry != nil {
			continue
		}
		for k, r := range jobs[:i] {
			cfg := j.cfg
			cfg.Near = r.cfg.Near
			if rep[k] == k && r.tr == j.tr && r.cfg == cfg && j.tr.NearBlind() {
				rep[i] = k
				break
			}
		}
	}
	return rep
}

// aliasOf returns the outcome a replay on cfg would have had, given its
// representative's, or false when this run does not prove the two equal: the
// representative failed or was cancelled, needed a retry (retry reseeding
// mixes the cell's own config key, so retried outcomes differ per cell), or
// — whatever the trace's near-blind bit promised — reports near-device
// requests or a DMA copy. The caller then replays the alias for real.
func aliasOf(rep replayOut, cfg machine.Config) (replayOut, bool) {
	if rep.err != nil || rep.attempts > 1 || rep.res.NearStats.Accesses() != 0 || rep.res.DMACopies != 0 {
		return replayOut{}, false
	}
	rep.res = rep.res.ForNear(cfg.Near)
	rep.shared = true
	return rep, true
}

// runReplays replays every job on a pool of `workers` goroutines (via
// par.Run, the module's one sanctioned fork-join). Workers pull the next
// unclaimed job from a shared cursor over claimOrder — dynamic scheduling,
// because sweep points differ wildly in event count — and write results by
// slot index, never by claim or completion order, so the claim order shows
// in wall time only. One worker walks the slots in order.
//
// Only representatives are claimed. Each alias is then filled from its
// representative's outcome, checkpointed under its own cell key; the aliases
// aliasOf refuses go through the pool as a second batch.
//
// With a nil supervisor each job is one undivided replay and errors are
// the caller's to handle (the historical path — byte-identical to every
// pre-supervision release). With a supervisor, each job runs as a
// supervised cell: sliced, panic-contained, retried, checkpointed.
func runReplays(sup *Supervisor, workers int, jobs []replayJob) []replayOut {
	return runShared(sup, workers, jobs, representatives(jobs))
}

// runShared is runReplays under a given job-to-representative map; the
// identity map replays every job for real.
func runShared(sup *Supervisor, workers int, jobs []replayJob, rep []int) []replayOut {
	out := make([]replayOut, len(jobs))
	run := func(i int) { out[i] = runJob(jobs[i]) }
	fill := func(i int, o replayOut) { out[i] = o }
	if sup != nil {
		keys, err := sup.cellKeys(jobs)
		if err != nil {
			for i := range out {
				out[i] = replayOut{err: err}
			}
			return out
		}
		run = func(i int) { out[i] = sup.runCell(jobs[i], keys[i]) }
		fill = func(i int, o replayOut) {
			out[i] = sup.cell(jobs[i], keys[i], func() replayOut { return o })
		}
	}
	var reps, redo []int
	for i, r := range rep {
		if r == i {
			reps = append(reps, i)
		}
	}
	runPool(workers, jobs, reps, run)
	for i, r := range rep {
		if r == i {
			continue
		}
		if o, ok := aliasOf(out[r], jobs[i].cfg); ok {
			fill(i, o)
		} else {
			redo = append(redo, i)
		}
	}
	runPool(workers, jobs, redo, run)
	return out
}

// runPool calls run(i) for every i in idx, on at most `workers` goroutines
// and never more than there are calls to make.
func runPool(workers int, jobs []replayJob, idx []int, run func(int)) {
	if workers > len(idx) {
		workers = len(idx)
	}
	if workers <= 1 {
		for _, i := range idx {
			run(i)
		}
		return
	}
	batch := make([]replayJob, len(idx))
	for k, i := range idx {
		batch[k] = jobs[i]
	}
	order := claimOrder(batch)
	var next atomic.Int64
	par.Run(workers, nil, func(int, *trace.TP) {
		for {
			k := int(next.Add(1)) - 1
			if k >= len(order) {
				return
			}
			run(idx[order[k]])
		}
	})
}

// runJob replays one job with the harness's usual MemFault tolerance.
func runJob(j replayJob) replayOut {
	res, memFault, err := runTolerant(j.cfg, j.tr)
	return replayOut{res: res, memFault: memFault, err: err}
}
