package harness

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/prof"
	"repro/internal/trace"
)

// Sweep points are independent replays of immutable recorded traces: each
// point owns a private engine, machine, and fault injector, and the fault
// injector is counter-keyed (order-independent by construction), so points
// may run concurrently in any order, and beside the recordings of traces they
// do not replay. runReplays is the deterministic schedule every sweep goes
// through — each job writes only its pre-assigned output slot, so a sweep's
// rendered report is byte-identical at any worker count, including 1.

// replayJob is one independent sweep point: a machine configuration plus
// the recorded trace to replay on it — one the caller already holds (tr), or
// the declared recording (rec) whose trace runReplays stores in tr when the
// recorder lane has sealed it. The trace is shared read-only across jobs —
// replay never mutates a stream — as sealed or mapped columns, replayed in
// place. label is the point's report label, carried so
// supervised failures name their cell.
type replayJob struct {
	cfg   machine.Config
	tr    trace.Source
	rec   *recording
	label string
}

// replayOut is one job's outcome, written into the job's slot.
type replayOut struct {
	res      machine.Result
	memFault bool // the replay completed but returned uncorrected data
	attempts int  // supervised replay attempts (0 on the unsupervised path)
	shared   bool // filled from its representative's replay, not replayed (see representatives)
	cached   bool // found in the supervisor's CellCache, not replayed
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
	rep.shared, rep.cached = true, false
	return rep, true
}

// recording is one recording a sweep declares: record runs once, on the
// recorder lane, and its trace is published to the cells that name it. tr and
// err are the lane's to write and the sweep's to read once runReplays returns.
type recording struct {
	name   string
	record func() (tr *trace.Trace, cached bool, err error)
	tr     *trace.Trace
	err    error
}

// recordingOf declares the recording of alg on w.
func recordingOf(alg Algorithm, w Workload) *recording {
	return &recording{name: string(alg), record: func() (*trace.Trace, bool, error) {
		res, cached, err := record(alg, w)
		return res.Trace, cached, err
	}}
}

// recordErr is the error of the first declared recording that failed; a
// sweep that has one has no report, supervised or not.
func recordErr(jobs []replayJob) error {
	for _, j := range jobs {
		if j.rec != nil && j.rec.err != nil {
			return j.rec.err
		}
	}
	return nil
}

// runReplays runs a sweep's dependency graph — the recordings its jobs
// declare and the replays of their traces — as one schedule under one par.Run
// (the module's one sanctioned fork-join): a recorder lane beside `workers`
// replay lanes, so a cell starts the moment its trace is sealed and every
// recording but the first hides behind replays (DESIGN.md §10). Results are
// written by slot index, so the schedule shows in wall time only.
//
// The recorder lane performs the recordings one at a time, most dependent
// cells first, of equals the later declared (sweeps list their control
// first, and it is the shorter trace). It is not a replay worker — at most
// `workers` replays are in flight — and it never looks at cancellation: a
// cancelled sweep still leaves every trace in the RecordCache. A recording
// that fails ends the lane, and no cell of its trace or a later one starts.
//
// As a trace is published its cells get their keys, then their
// representatives, then join the one ready set, which replay lanes claim from
// in claimOrder (one lane walks the slots in order). Only representatives are
// claimed; the lane that finishes one fills its aliases from the outcome,
// each under its own key, and releases those aliasOf refuses to be replayed.
//
// With a nil supervisor each job is one undivided replay and errors are the
// caller's to handle; with one, each job runs as a supervised cell: sliced,
// panic-contained, retried, checkpointed.
func runReplays(sup *Supervisor, workers int, jobs []replayJob) []replayOut {
	return driver(sup, workers, jobs, nil)
}

// driver is runShared; schedule_test.go swaps in the record-then-pool driver
// it replaced, the oracle every sweep's bytes are held to.
var driver = runShared

// schedule is one runReplays in flight. mu guards the fields below it; out,
// keys and a job's tr are written before the cell is released (or its done
// bit set) under mu and read only after.
type schedule struct {
	sup     *Supervisor
	stages  *prof.Stages // sup.Timings; nil records nothing
	workers int
	jobs    []replayJob
	cells   map[*recording][]int
	out     []replayOut
	keys    []CellKey
	given   bool // rep came from the caller

	mu        sync.Mutex
	wake      *sync.Cond
	rep       []int  // job → representative; -1 until the job's trace is published
	avail     []int  // the ready set: released, unclaimed cells in claim order
	done      []bool // the cell's own replay has finished
	recording bool   // the recorder lane may still publish
	running   int    // cells claimed whose aliases are not settled yet
}

// runShared is runReplays under a given job-to-representative map (nil:
// representatives, trace by trace as they are published); the identity map
// replays every job for real.
func runShared(sup *Supervisor, workers int, jobs []replayJob, rep []int) []replayOut {
	s := &schedule{sup: sup, workers: workers, jobs: jobs, rep: rep, given: rep != nil, cells: make(map[*recording][]int),
		out: make([]replayOut, len(jobs)), keys: make([]CellKey, len(jobs)), done: make([]bool, len(jobs))}
	s.wake = sync.NewCond(&s.mu)
	if sup != nil {
		s.stages = sup.Timings
	}
	var recs []*recording // declared recordings; cells[nil] are the cells whose trace the caller holds
	for i, j := range jobs {
		if !s.given {
			s.rep = append(s.rep, -1)
		}
		if j.rec != nil && len(s.cells[j.rec]) == 0 {
			recs = append(recs, j.rec)
		}
		s.cells[j.rec] = append(s.cells[j.rec], i)
	}
	sort.Slice(recs, func(a, b int) bool {
		ca, cb := s.cells[recs[a]], s.cells[recs[b]]
		if len(ca) != len(cb) {
			return len(ca) > len(cb)
		}
		return ca[0] > cb[0]
	})
	s.publish(0, s.cells[nil])
	s.recording = len(recs) > 0
	lanes := workers
	if s.recording {
		lanes++
	}
	par.Run(lanes, nil, func(lane int, _ *trace.TP) {
		if lane == workers {
			s.recordLane(recs)
		} else {
			s.replayLane(lane + 1)
		}
	})
	return s.out
}

// recordLane is the recorder lane. Its exit — a panic's included, which
// par.Run re-raises on the caller — wakes the replay lanes to drain and leave.
func (s *schedule) recordLane(recs []*recording) {
	defer func() {
		s.mu.Lock()
		s.recording = false
		s.wake.Broadcast()
		s.mu.Unlock()
	}()
	for _, r := range recs {
		sp := s.stages.Start(0, "record", r.name)
		var cached bool
		r.tr, cached, r.err = r.record()
		sp.End(prof.MarkIf(cached, "cached"))
		if r.err != nil {
			return
		}
		for _, i := range s.cells[r] {
			s.jobs[i].tr = r.tr
		}
		s.publish(0, s.cells[r])
	}
}

// pick copies out the jobs at idx.
func (s *schedule) pick(idx []int) []replayJob {
	batch := make([]replayJob, len(idx))
	for k, i := range idx {
		batch[k] = s.jobs[i]
	}
	return batch
}

// publish makes cells, whose traces are now there, claimable: keys, then
// representatives, then the ready set — in that order, so no lane ever holds
// a cell it cannot checkpoint or one a finished replay already answers.
func (s *schedule) publish(lane int, cells []int) {
	if s.sup != nil {
		keys, err := s.sup.cellKeys(s.pick(cells))
		for k, i := range cells {
			if err != nil {
				s.out[i] = replayOut{err: err}
			} else {
				s.keys[i] = keys[k]
			}
		}
		if err != nil {
			return
		}
	}
	s.mu.Lock()
	if !s.given {
		// Published representatives go first: two recordings may yield one
		// trace (the supervisor's record memo), and its cells are one group.
		var group []int
		for i, r := range s.rep {
			if r == i {
				group = append(group, i)
			}
		}
		group = append(group, cells...)
		for k, r := range representatives(s.pick(group)) {
			if s.rep[group[k]] < 0 {
				s.rep[group[k]] = group[r]
			}
		}
	}
	var own, late []int
	for _, i := range cells {
		if r := s.rep[i]; r == i {
			own = append(own, i)
		} else if s.done[r] {
			late = append(late, i) // its representative finished before it arrived
		}
	}
	s.release(own)
	s.mu.Unlock()
	for _, a := range late {
		s.settle(lane, a)
	}
}

// release adds cells to the ready set. Callers hold s.mu.
func (s *schedule) release(cells []int) {
	s.avail = append(s.avail, cells...)
	sort.Ints(s.avail)
	if s.workers > 1 {
		slots := s.avail
		s.avail = nil
		for _, k := range claimOrder(s.pick(slots)) {
			s.avail = append(s.avail, slots[k])
		}
	}
	s.wake.Broadcast()
}

// replayLane claims ready cells until none is left and none can arrive.
func (s *schedule) replayLane(lane int) {
	for {
		s.mu.Lock()
		for len(s.avail) == 0 && (s.recording || s.running > 0) {
			s.wake.Wait()
		}
		if len(s.avail) == 0 {
			s.mu.Unlock()
			return
		}
		i := s.avail[0]
		s.avail = s.avail[1:]
		s.running++
		s.mu.Unlock()
		s.replay(lane, i)
	}
}

// replay runs claimed cell i and settles the aliases waiting on it. The
// deferred bookkeeping runs on a panic too (an unsupervised replay's, which
// par.Run re-raises once every lane has left), or the others would wait on
// this cell forever.
func (s *schedule) replay(lane, i int) {
	defer func() {
		s.mu.Lock()
		s.running--
		s.wake.Broadcast()
		s.mu.Unlock()
	}()
	s.out[i] = s.cell(lane, i, nil)
	s.mu.Lock()
	s.done[i] = true
	var aliases []int
	for a, r := range s.rep {
		if r == i && a != i {
			aliases = append(aliases, a)
		}
	}
	s.mu.Unlock()
	for _, a := range aliases {
		s.settle(lane, a)
	}
}

// settle resolves alias a now that its representative has finished: filled
// from that outcome, or released to be replayed for real.
func (s *schedule) settle(lane, a int) {
	if o, ok := aliasOf(s.out[s.rep[a]], s.jobs[a].cfg); ok {
		s.out[a] = s.cell(lane, a, &o)
		return
	}
	s.mu.Lock()
	s.release([]int{a})
	s.mu.Unlock()
}

// cell produces cell i's outcome on the given lane: its own replay, or
// (fill) its representative's outcome under its own checkpoint.
func (s *schedule) cell(lane, i int, fill *replayOut) (o replayOut) {
	j := s.jobs[i]
	sp := s.stages.Start(lane, "cell", j.label)
	defer func() { sp.End(prof.MarkIf(o.cached, "cached"), prof.MarkIf(o.shared, "shared")) }()
	switch {
	case s.sup == nil && fill != nil:
		return *fill
	case s.sup == nil:
		return runJob(j)
	case fill != nil:
		return s.sup.cell(j, s.keys[i], func() replayOut { return *fill })
	}
	return s.sup.runCell(j, s.keys[i])
}

// runJob replays one job with the harness's usual MemFault tolerance.
func runJob(j replayJob) replayOut {
	res, memFault, err := runTolerant(j.cfg, j.tr)
	return replayOut{res: res, memFault: memFault, err: err}
}
