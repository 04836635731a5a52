package harness

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/units"
)

// TestReplayPar pins the knob-resolution rules: 0 means GOMAXPROCS, the
// pool never exceeds the job count, and the floor is one worker.
func TestReplayPar(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	auto := procs
	if auto > 100 {
		auto = 100
	}
	cases := []struct {
		p, n, want int
	}{
		{0, 100, auto},
		{0, 1, 1},
		{1, 100, 1},
		{8, 4, 4},
		{3, 100, 3},
		{-2, 100, auto},
		{5, 0, 1},
	}
	for _, tc := range cases {
		if got := replayPar(tc.p, tc.n); got != tc.want {
			t.Errorf("replayPar(%d, %d) = %d, want %d", tc.p, tc.n, got, tc.want)
		}
	}
}

// TestRunReplaysMatchesSequential replays one batch sequentially and on an
// oversubscribed pool: every output slot must hold the identical result —
// the slot-indexed write discipline the sweeps' byte-identity rests on.
func TestRunReplaysMatchesSequential(t *testing.T) {
	w := Workload{N: 1 << 12, Seed: 7, Threads: 8, SP: 64 * units.KiB}
	rec, err := Record(AlgNMSort, w)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []replayJob
	for _, ch := range []int{8, 16, 32, 8, 16, 32} {
		jobs = append(jobs, replayJob{cfg: NodeFor(w.Threads, ch, w.SP), tr: rec.Trace})
	}
	seq := runReplays(nil, 1, jobs)
	for _, workers := range []int{2, 8} {
		got := runReplays(nil, workers, jobs)
		if len(got) != len(seq) {
			t.Fatalf("workers=%d: %d outputs, want %d", workers, len(got), len(seq))
		}
		for i := range seq {
			if seq[i].err != nil || got[i].err != nil {
				t.Fatalf("workers=%d job %d: errors %v / %v", workers, i, seq[i].err, got[i].err)
			}
			if !reflect.DeepEqual(got[i], seq[i]) {
				t.Errorf("workers=%d: job %d result differs from sequential run", workers, i)
			}
		}
	}
	if out := runReplays(nil, 4, nil); len(out) != 0 {
		t.Errorf("runReplays with no jobs returned %d outputs", len(out))
	}
}

// TestClaimOrder pins the pool's claim order: descending op count, equal
// counts in slot order, and the degenerate batches.
func TestClaimOrder(t *testing.T) {
	batch := func(ops ...int) []replayJob {
		jobs := make([]replayJob, len(ops))
		for i, n := range ops {
			jobs[i].tr = &trace.Trace{Streams: [][]trace.Op{make([]trace.Op, n)}}
		}
		return jobs
	}
	for _, tc := range []struct {
		ops  []int
		want []int
	}{
		{nil, []int{}},
		{[]int{7}, []int{0}},
		{[]int{1, 2, 3}, []int{2, 1, 0}},
		{[]int{3, 2, 1}, []int{0, 1, 2}},
		{[]int{4, 4, 4}, []int{0, 1, 2}},
		// The bandwidth sweep's shape: short and long cells alternating.
		{[]int{5, 9, 5, 9, 5, 9}, []int{1, 3, 5, 0, 2, 4}},
		{[]int{5, 9, 1, 9, 5, 0}, []int{1, 3, 0, 4, 2, 5}},
	} {
		if got := claimOrder(batch(tc.ops...)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("claimOrder(ops %v) = %v, want %v", tc.ops, got, tc.want)
		}
	}
}

// TestRunReplaysClaimOrderInvisible: longest-first claiming changes which
// worker runs which cell and when, and nothing else. Batches whose costs
// ascend, descend and alternate fill the same slots with the same results at
// every worker count (TestRows holds the sweeps built on the pool to their
// bytes at -par 1 and 2), and each failed cell keeps its own slot and failure
// kind, the cheapest one — and so the last one claimed — included.
func TestRunReplaysClaimOrderInvisible(t *testing.T) {
	pars := []int{1, 2, 8}

	var sized []*trace.Trace // ascending op count
	for _, n := range []int{1 << 10, 1 << 12, 1 << 13} {
		rec, err := Record(AlgNMSort, Workload{N: n, Seed: 7, Threads: 8, SP: 64 * units.KiB})
		if err != nil {
			t.Fatal(err)
		}
		sized = append(sized, rec.Trace)
	}
	if !(sized[0].Ops() < sized[1].Ops() && sized[1].Ops() < sized[2].Ops()) {
		t.Fatalf("traces not ascending in ops: %d, %d, %d", sized[0].Ops(), sized[1].Ops(), sized[2].Ops())
	}
	cfg := NodeFor(8, 16, 64*units.KiB)
	for _, batch := range []struct {
		name  string
		picks []int
	}{
		{"ascending", []int{0, 0, 1, 1, 2, 2}},
		{"descending", []int{2, 2, 1, 1, 0, 0}},
		{"mixed", []int{0, 2, 0, 2, 1, 2}},
	} {
		var jobs []replayJob
		for _, k := range batch.picks {
			jobs = append(jobs, replayJob{cfg: cfg, tr: sized[k]})
		}
		want := runReplays(nil, 1, jobs)
		for _, workers := range pars[1:] {
			if got := runReplays(nil, workers, jobs); !reflect.DeepEqual(got, want) {
				t.Errorf("%s costs, %d workers: slots differ from the sequential walk", batch.name, workers)
			}
		}
	}

	// Slot 0 is the cheapest cell and runs out of event budget; slot 2 fails
	// differently (more threads than cores) and is claimed before it.
	wide, err := Record(AlgNMSort, Workload{N: 1 << 12, Seed: 7, Threads: 16, SP: 64 * units.KiB})
	if err != nil {
		t.Fatal(err)
	}
	starved := cfg
	starved.MaxEvents = 10
	jobs := []replayJob{{cfg: starved, tr: sized[0]}, {cfg: cfg, tr: sized[2]}, {cfg: cfg, tr: wide.Trace}}
	if order := claimOrder(jobs); order[len(order)-1] != 0 {
		t.Fatalf("claim order %v: the starved cell should be claimed last", order)
	}
	for _, workers := range pars {
		s, err := Sweep{}.collect(nil, workers, jobs, make([]SweepPoint, len(jobs)))
		if err != nil {
			t.Fatalf("%d workers: a failed cell aborted the sweep: %v", workers, err)
		}
		if got := []string{s.Points[0].Fail, s.Points[1].Fail, s.Points[2].Fail}; !reflect.DeepEqual(got, []string{"budget", "", "error"}) {
			t.Errorf("%d workers: failure kinds %q, want budget, none, error", workers, got)
		}
		outs := runReplays(nil, workers, jobs)
		if !errors.As(outs[0].err, new(*engine.BudgetError)) || outs[1].err != nil || outs[2].err == nil || !strings.Contains(outs[2].err.Error(), "16 threads") {
			t.Errorf("%d workers: slot errors %v / %v / %v, want out of budget / none / too many threads", workers, outs[0].err, outs[1].err, outs[2].err)
		}
	}
}
