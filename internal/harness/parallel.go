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

// runReplays replays every job on a pool of `workers` goroutines (via
// par.Run, the module's one sanctioned fork-join). Workers pull the next
// unclaimed job from a shared cursor over claimOrder — dynamic scheduling,
// because sweep points differ wildly in event count — and write results by
// slot index, never by claim or completion order, so the claim order shows
// in wall time only. One worker walks the slots in order.
//
// With a nil supervisor each job is one undivided replay and errors are
// the caller's to handle (the historical path — byte-identical to every
// pre-supervision release). With a supervisor, each job runs as a
// supervised cell: sliced, panic-contained, retried, checkpointed.
func runReplays(sup *Supervisor, workers int, jobs []replayJob) []replayOut {
	out := make([]replayOut, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	run := func(i int) { out[i] = runJob(jobs[i]) }
	if sup != nil {
		keys, err := sup.cellKeys(jobs)
		if err != nil {
			for i := range out {
				out[i] = replayOut{err: err}
			}
			return out
		}
		run = func(i int) { out[i] = sup.runCell(jobs[i], keys[i]) }
	}
	if workers <= 1 {
		for i := range jobs {
			run(i)
		}
		return out
	}
	order := claimOrder(jobs)
	var next atomic.Int64
	par.Run(workers, nil, func(int, *trace.TP) {
		for {
			k := int(next.Add(1)) - 1
			if k >= len(order) {
				return
			}
			run(order[k])
		}
	})
	return out
}

// runJob replays one job with the harness's usual MemFault tolerance.
func runJob(j replayJob) replayOut {
	res, memFault, err := runTolerant(j.cfg, j.tr)
	return replayOut{res: res, memFault: memFault, err: err}
}
