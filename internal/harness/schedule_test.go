package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/units"
)

// The schedule is proven by structure, not by timers: every sweep renders the
// bytes of the sequential driver it replaced; the overlap it exists for, the
// -par bound it must keep and the absence of a per-trace barrier are shown by
// blocking one side until the other has been seen, so a driver without the
// property stops instead of merely running slower.

// recordThenPool is the driver every experiment had before recordings and
// replays shared a schedule, kept as the oracle: every declared recording, in
// declaration order, failing fast; then every representative's cell in slot
// order on the calling goroutine; then the aliases, filled or replayed, in
// slot order. Like every driver it gets the supervisor runReplays settled on,
// and times its cells on it.
func recordThenPool(sup *Supervisor, _ int, jobs []replayJob, rep []int) []replayOut {
	out := make([]replayOut, len(jobs))
	for i := range jobs {
		r := jobs[i].rec
		if r == nil {
			continue
		}
		if r.tr == nil && r.err == nil {
			r.tr, _, r.err = r.record()
		}
		if r.err != nil {
			return out
		}
		jobs[i].tr = r.tr
	}
	if rep == nil {
		rep = representatives(jobs)
	}
	keys, err := sup.cellKeys(jobs)
	if err != nil {
		for i := range out {
			out[i] = replayOut{err: err}
		}
		return out
	}
	cell := func(i int, fill *replayOut) (o replayOut) {
		sp := sup.Timings.Start(1, "cell", jobs[i].label)
		defer func() { sp.End(prof.MarkIf(o.cached, "cached"), prof.MarkIf(o.shared, "shared")) }()
		if fill != nil {
			return sup.cell(jobs[i], keys[i], func() replayOut { return *fill })
		}
		return sup.runCell(jobs[i], keys[i])
	}
	for i, r := range rep {
		if r == i {
			out[i] = cell(i, nil)
		}
	}
	for i, r := range rep {
		if r == i {
			continue
		}
		if o, ok := aliasOf(out[r], jobs[i].cfg); ok {
			out[i] = cell(i, &o)
		} else {
			out[i] = cell(i, nil)
		}
	}
	return out
}

// withDriver runs f with every sweep going through d.
func withDriver(d func(*Supervisor, int, []replayJob, []int) []replayOut, f func()) {
	old := driver
	driver = d
	defer func() { driver = old }()
	f()
}

// starved runs f with every cell of every sweep it starts held to an event
// budget of maxEvents, through whichever driver is installed. A budget of 0
// leaves each cell at its trace's machine.EventBound.
func starved(maxEvents uint64, f func()) {
	d := driver
	withDriver(func(sup *Supervisor, workers int, jobs []replayJob, rep []int) []replayOut {
		for i := range jobs {
			jobs[i].cfg.MaxEvents = maxEvents
		}
		return d(sup, workers, jobs, rep)
	}, f)
}

// rendered is everything a sweep leaves behind that anyone can read.
type rendered struct {
	body     string // text, then CSV
	manifest string // the -manifest file, cell keys included
	replays  int    // cells that came back as their own (ownReplays)
	err      string
}

// sweepCase is one experiment at test size.
type sweepCase struct {
	name string
	run  func(w Workload) (rendered, error)
}

func sweepCases(t *testing.T) []sweepCase {
	cases := []sweepCase{
		{"table1 dma faults", func(w Workload) (rendered, error) {
			tb, err := Table1Faults(w, true, fault.Profile(41, 2e-2))
			return rendered{body: renderSweep(t, tb)}, err
		}},
		{"bandwidth starved", func(w Workload) (rendered, error) {
			var s Sweep
			var err error
			starved(500, func() { s, err = BandwidthSweep(w) }) // every cell fails: marked rows, no error
			return rendered{body: renderSweep(t, s)}, err
		}},
	}
	params := ExperimentParams{CoreList: []int{8, 16}, FaultSeed: 41, FaultRates: []float64{1e-3, 2e-2}, Epoch: 5 * units.Microsecond}
	for _, e := range Experiments { // the fault-free Table I is the registry's last row
		e := e
		cases = append(cases, sweepCase{e.Name, func(w Workload) (rendered, error) {
			out, err := runRow(e, params, w)
			return rendered{body: renderSweep(t, out)}, err
		}})
	}
	return cases
}

// renderCase runs one case supervised, under a manifest and retries, and
// counts its own replays under stages when it is not nil.
func renderCase(t *testing.T, c sweepCase, par int, stages *prof.Stages) rendered {
	t.Helper()
	w := tinyWorkload()
	w.Par = par
	path := filepath.Join(t.TempDir(), "manifest.json")
	w.Sup = &Supervisor{Slice: 1 << 11, Retries: 2, RetrySeed: 5, Cache: NewManifest(path), Timings: stages}
	r, err := c.run(w)
	if err != nil {
		r.err = err.Error()
	}
	r.replays = ownReplays(stages)
	if raw, err := os.ReadFile(path); err == nil {
		r.manifest = string(raw)
	}
	return r
}

// TestScheduleMatchesSequentialDriver: Table I, Table I under faults, and
// every registry experiment leave the same text, CSV, manifest file (so the
// same cell keys), replay count and error on four replay lanes as the
// record-then-pool oracle, supervised with a manifest and retries. The -par
// and GOMAXPROCS axes of the committed bytes are TestRows' (root package).
func TestScheduleMatchesSequentialDriver(t *testing.T) {
	for _, c := range sweepCases(t) {
		var want rendered
		withDriver(recordThenPool, func() { want = renderCase(t, c, 1, prof.NewStages()) })
		if want.body == "" && want.err == "" {
			t.Fatalf("%s: the oracle rendered nothing", c.name)
		}
		if got := renderCase(t, c, 4, prof.NewStages()); got != want {
			t.Errorf("%s: differs from the sequential driver\n got %+v\nwant %+v", c.name, got, want)
		}
	}
}

// probe is a RecordCache and CellCache that stores nothing and watches the
// schedule from inside: which recordings ran and in what order, which cells
// are in flight, and — through its hooks — who waits for whom.
type probe struct {
	mu        sync.Mutex
	recorded  []Algorithm // LookupRecord calls, in order
	completed int         // CompleteRecord calls
	inFlight  int         // cells between Lookup and Complete
	highWater int
	started   int // cells that reached Lookup

	beforeRecord func(nth int)     // nth recording is about to start (0-based), on the recorder's goroutine
	onStart      func(key CellKey) // a cell reached its checkpoint lookup, on its lane
	onComplete   func(key CellKey) // a cell is about to leave, on its lane
}

func (p *probe) LookupRecord(alg Algorithm, _ Workload) (RecordResult, bool) {
	p.mu.Lock()
	nth := len(p.recorded)
	p.recorded = append(p.recorded, alg)
	p.mu.Unlock()
	if p.beforeRecord != nil {
		p.beforeRecord(nth)
	}
	return RecordResult{}, false
}

func (p *probe) CompleteRecord(Algorithm, Workload, RecordResult) {
	p.mu.Lock()
	p.completed++
	p.mu.Unlock()
}

func (p *probe) Lookup(key CellKey) (CellOutcome, bool) {
	p.mu.Lock()
	p.started++
	if p.inFlight++; p.inFlight > p.highWater {
		p.highWater = p.inFlight
	}
	p.mu.Unlock()
	if p.onStart != nil {
		p.onStart(key)
	}
	return CellOutcome{}, false
}

func (p *probe) Complete(key CellKey, _ CellOutcome) error {
	if p.onComplete != nil {
		p.onComplete(key)
	}
	p.mu.Lock()
	p.inFlight--
	p.mu.Unlock()
	return nil
}

// waitFor blocks until ch is closed, or reports the hang and moves on so the
// test fails instead of sitting out go test's ten minutes.
func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	select {
	case <-ch:
	case <-time.After(20 * time.Second):
		t.Errorf("schedule stopped: %s", what)
	}
}

// TestSecondRecordingOverlapsFirstReplays: the second recording of a sweep
// does not begin until a cell of the first trace has started — so a driver
// that records everything before it replays anything stops here, at any -par,
// one replay lane included. Table I's first recording is NMsort: three cells
// wait on it, one on the baseline.
func TestSecondRecordingOverlapsFirstReplays(t *testing.T) {
	for _, par := range []int{1, 2} {
		for _, procs := range []int{1, 4} {
			func() {
				if t.Failed() {
					return // one hang is proof enough
				}
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				cellStarted := make(chan struct{})
				var once sync.Once
				p := &probe{}
				p.onStart = func(CellKey) { once.Do(func() { close(cellStarted) }) }
				p.beforeRecord = func(nth int) {
					if nth == 1 {
						waitFor(t, cellStarted, "no cell of the first trace started before the second recording")
					}
				}
				w := tinyWorkload()
				w.Par = par
				w.Sup = &Supervisor{Records: p, Cache: p}
				tb, err := Table1Faults(w, false, fault.Config{})
				if err != nil || tb.Failed() != 0 {
					t.Fatalf("par %d: err=%v failed=%d", par, err, tb.Failed())
				}
				if want := []Algorithm{AlgNMSort, AlgGNUSort}; !reflect.DeepEqual(p.recorded, want) {
					t.Errorf("par %d: recorded %v, want %v (most dependent cells first)", par, p.recorded, want)
				}
			}()
		}
	}
}

// TestParBoundsReplaysNotRecordings: never more than Par cells in flight,
// exactly one at Par 1 — the recorder lane is beside the replay lanes, not one
// of them — while every recording completes.
func TestParBoundsReplaysNotRecordings(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, par := range []int{1, 2, 8} {
		p := &probe{}
		w := tinyWorkload()
		w.Par = par
		w.Sup = &Supervisor{Records: p, Cache: p}
		s, err := CoreSweep(w, []int{8, 16, 32})
		if err != nil || s.Failed() != 0 {
			t.Fatalf("par %d: err=%v failed=%d", par, err, s.Failed())
		}
		if p.completed != 6 || p.started != len(s.Points) || p.inFlight != 0 {
			t.Errorf("par %d: %d recordings, %d cells started, %d still in flight", par, p.completed, p.started, p.inFlight)
		}
		if p.highWater > par || p.highWater < 1 || (par == 1 && p.highWater != 1) {
			t.Errorf("par %d: %d cells were in flight at once", par, p.highWater)
		}
	}
}

// TestSupervisorRecordsEachKeyOnce: a core list that names a core count twice
// declares six recordings of four distinct workloads. Under a supervisor four
// are made and two are answered by its memo — `record` lines marked cached —
// and the sweep renders the bytes of a run under a nil supervisor, whose
// recordings each get a zero one of their own and so record six.
func TestSupervisorRecordsEachKeyOnce(t *testing.T) {
	e, _ := FindExperiment("cores")
	p := ExperimentParams{CoreList: []int{8, 8, 16}}
	w := tinyWorkload()
	plain, err := e.Run(p, w)
	if err != nil {
		t.Fatal(err)
	}
	counts := &probe{}
	stages := prof.NewStages()
	w.Sup = &Supervisor{Records: counts, Timings: stages}
	memoized, err := e.Run(p, w)
	if err != nil {
		t.Fatal(err)
	}
	if counts.completed != 4 || len(counts.recorded) != 4 {
		t.Errorf("%d recordings completed after %d lookups, want 4 and 4", counts.completed, len(counts.recorded))
	}
	var records, cached int
	for _, st := range stages.Snapshot() {
		if st.Kind == "record" {
			records++
			if reflect.DeepEqual(st.Marks, []string{"cached"}) {
				cached++
			}
		}
	}
	if records != 6 || cached != 2 {
		t.Errorf("%d record stages, %d cached; want 6 and 2", records, cached)
	}
	if got, want := renderSweep(t, memoized), renderSweep(t, plain); got != want {
		t.Errorf("the memoized sweep differs from the memo-less one:\n%s\nwant:\n%s", got, want)
	}
}

// handJobs builds a sweep from hand-made recordings: counts[k] cells on
// recording k, all on one node, labelled "<k>.<n>", in recording order.
func handJobs(w Workload, recs []*recording, counts ...int) ([]replayJob, []SweepPoint) {
	var jobs []replayJob
	var points []SweepPoint
	for k, n := range counts {
		for c := 0; c < n; c++ {
			jobs = append(jobs, replayJob{cfg: NodeFor(w.Threads, 8, w.SP), rec: recs[k]})
			points = append(points, SweepPoint{Label: fmt.Sprintf("%d.%d", k, c)})
		}
	}
	return jobs, points
}

// TestOneReadySetNoBatchBarrier: a cell of the first trace stays in flight
// until a cell of the second trace has started. A driver that finishes one
// trace's cells before it releases the next one's stops here.
func TestOneReadySetNoBatchBarrier(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	w := tinyWorkload()
	var firstTrace atomic.Uint64
	first, second := recordingOf(AlgNMSort, w), recordingOf(AlgGNUSort, w)
	sealed := first.record
	first.record = func() (*trace.Trace, bool, error) {
		tr, cached, err := sealed()
		if err == nil {
			d, _ := tr.Digest()
			firstTrace.Store(d)
		}
		return tr, cached, err
	}
	jobs, points := handJobs(w, []*recording{first, second}, 3, 1)

	var held atomic.Bool
	var once sync.Once
	secondStarted := make(chan struct{})
	p := &probe{}
	p.onStart = func(key CellKey) {
		if key.Trace != firstTrace.Load() {
			once.Do(func() { close(secondStarted) })
		}
	}
	p.onComplete = func(key CellKey) {
		if key.Trace == firstTrace.Load() && held.CompareAndSwap(false, true) {
			waitFor(t, secondStarted, "no cell of the second trace started while one of the first was in flight")
		}
	}
	s, err := Sweep{}.collect(&Supervisor{Cache: p}, 2, jobs, points)
	if err != nil || s.Failed() != 0 {
		t.Fatalf("err=%v failed=%d", err, s.Failed())
	}
}

// settled waits for the goroutine count to come back to base: every lane of
// a schedule that has returned must have been joined.
func settled(t *testing.T, base int, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, were %d — a lane was left behind", when, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecordingFailureAndPanic: a recording that fails is the sweep's error,
// no cell of its trace or of a later recording's starts, and every lane is
// joined; a recording that panics is re-raised on the caller, lanes joined.
// The real path's error is the sequential driver's.
func TestRecordingFailureAndPanic(t *testing.T) {
	w := tinyWorkload()
	boom := errors.New("boom")
	failing := func() *recording {
		return &recording{name: "failing", record: func() (*trace.Trace, bool, error) { return nil, false, boom }}
	}
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		name   string
		counts []int // cells on the good, failing and never-reached recording
		ran    string
	}{
		{"fails first", []int{1, 2, 1}, ""},
		{"fails while the first trace replays", []int{3, 2, 1}, "0."},
	} {
		for _, workers := range []int{1, 4} {
			for _, sup := range []*Supervisor{nil, {Timings: prof.NewStages()}} {
				never := &recording{name: "never", record: func() (*trace.Trace, bool, error) {
					t.Errorf("%s: a recording ran after one had failed", tc.name)
					return nil, false, boom
				}}
				jobs, points := handJobs(w, []*recording{recordingOf(AlgGNUSort, w), failing(), never}, tc.counts...)
				_, err := Sweep{}.collect(sup, workers, jobs, points)
				if err != boom {
					t.Errorf("%s, %d workers: err = %v, want the recording's error", tc.name, workers, err)
				}
				var stages *prof.Stages
				if sup != nil {
					stages = sup.Timings
				}
				for _, st := range stages.Snapshot() {
					if st.Kind == "cell" && (tc.ran == "" || !strings.HasPrefix(st.Name, tc.ran)) {
						t.Errorf("%s, %d workers: cell %s started", tc.name, workers, st.Name)
					}
				}
				settled(t, base, tc.name)
			}
		}
	}

	for _, workers := range []int{1, 4} {
		panicking := &recording{name: "panicking", record: func() (*trace.Trace, bool, error) { panic(boom) }}
		jobs, points := handJobs(w, []*recording{recordingOf(AlgGNUSort, w), panicking}, 3, 2)
		func() {
			defer func() {
				if r := recover(); r != boom {
					t.Errorf("%d workers: recovered %v, want the recording's panic", workers, r)
				}
			}()
			Sweep{}.collect(&Supervisor{}, workers, jobs, points)
			t.Errorf("%d workers: the sweep returned", workers)
		}()
		settled(t, base, "recording panic")
	}

	bad := w
	bad.N = -1
	var want error
	withDriver(recordThenPool, func() { _, want = BandwidthSweep(bad) })
	if _, err := BandwidthSweep(bad); err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("bad workload: err = %v, the sequential driver's = %v", err, want)
	}
}

// TestExpiredContextStillRecords: cancellation is for replays. With a context
// that expired before the sweep began every cell is marked cancelled and none
// replays, yet every recording completes and reaches the RecordCache — which
// is how `sweep -trace-cache d -timeout 1ns` leaves a warm cache behind.
func TestExpiredContextStillRecords(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		p := &probe{}
		w := tinyWorkload()
		w.Par = par
		w.Sup = &Supervisor{Ctx: ctx, Records: p}
		s, err := BandwidthSweep(w)
		if err != nil {
			t.Fatal(err)
		}
		if p.completed != 2 {
			t.Errorf("par %d: %d recordings reached the RecordCache, want 2", par, p.completed)
		}
		// Three cells each: of equals, the later declared is recorded first.
		if want := []Algorithm{AlgNMSort, AlgGNUSort}; !reflect.DeepEqual(p.recorded, want) {
			t.Errorf("par %d: recorded %v, want %v", par, p.recorded, want)
		}
		for _, pt := range s.Points {
			if pt.Fail != "cancelled" || pt.Result.Events != 0 {
				t.Errorf("par %d: cell %q: Fail = %q, %d events", par, pt.Label, pt.Fail, pt.Result.Events)
			}
		}
	}
}

// TestSharedAcrossRecordings: two recordings of one workload yield one trace
// (the supervisor's record memo answers the second), and its cells are one
// near-blind group whichever recording is published first. Here the
// representative by slot order — slot 0 — belongs to the recording published
// last, because the other has more cells; and in the second round it is
// published only after the cell that stands in for it has finished, so it is
// filled on arrival. Outcomes, the number of cells that shared a replay, and
// the manifest are the sequential driver's and the all-real pool's.
func TestSharedAcrossRecordings(t *testing.T) {
	w := tinyWorkload()
	gnu, err := Record(AlgGNUSort, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, late := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("late=%v/%d workers", late, workers)
			dir := t.TempDir()
			groupDone := make(chan struct{})
			build := func(sup *Supervisor, wait bool) []replayJob {
				ws := w
				ws.Sup = sup
				few, many := recordingOf(AlgGNUSort, ws), recordingOf(AlgGNUSort, ws)
				if wait {
					record := few.record
					few.record = func() (*trace.Trace, bool, error) {
						waitFor(t, groupDone, "the larger recording's cells never finished")
						return record()
					}
				}
				jobs := onNodes(w.Threads, paperNears(w.SP), nil, gnu.Trace)
				for i := range jobs {
					jobs[i].tr, jobs[i].rec = nil, many
				}
				jobs[0].rec = few
				return jobs
			}
			sup := func(file string) *Supervisor {
				return &Supervisor{Slice: 1 << 11, Cache: NewManifest(filepath.Join(dir, file))}
			}

			p := &probe{}
			var done atomic.Int32
			p.onComplete = func(CellKey) {
				if done.Add(1) == 2 { // the group's representative and its alias
					close(groupDone)
				}
			}
			gotSup := sup("schedule.json")
			gotSup.Cache = &tee{CellCache: gotSup.Cache, probe: p}
			jobs := build(gotSup, late)
			got := runReplays(gotSup, workers, jobs)
			if few, many := jobs[0].rec, jobs[1].rec; few == many || few.tr != many.tr {
				t.Fatalf("%s: the two recordings of one workload yielded two traces", name)
			}
			oracleSup := sup("oracle.json")
			oracle := recordThenPool(oracleSup, workers, build(oracleSup, false), nil)
			real := realReplays(sup("real.json"), workers, onNodes(w.Threads, paperNears(w.SP), nil, gnu.Trace))

			if shared := requireSameOuts(t, name, got, real); shared != 2 {
				t.Errorf("%s: %d cells shared a replay, want 2", name, shared)
			}
			if shared := requireSameOuts(t, name+" (oracle)", oracle, real); shared != 2 {
				t.Errorf("%s: the sequential driver shared %d replays, want 2", name, shared)
			}
			requireSameFile(t, name, filepath.Join(dir, "schedule.json"), filepath.Join(dir, "real.json"))
			requireSameFile(t, name, filepath.Join(dir, "oracle.json"), filepath.Join(dir, "real.json"))
		}
	}
}

// tee is a CellCache that lets a probe watch the traffic of a real one.
type tee struct {
	CellCache
	probe *probe
}

func (c *tee) Complete(key CellKey, cell CellOutcome) error {
	err := c.CellCache.Complete(key, cell)
	c.probe.Complete(key, cell)
	return err
}

// TestTimingsChangeNoByte: a stage recorder on the supervisor sees every
// recording and every cell, with the lanes and marks the schedule gave them,
// and changes nothing a sweep renders or checkpoints.
func TestTimingsChangeNoByte(t *testing.T) {
	c := sweepCase{"bandwidth", func(w Workload) (rendered, error) {
		s, err := BandwidthSweep(w)
		return rendered{body: renderSweep(t, s)}, err
	}}
	want := renderCase(t, c, 2, nil)

	w := tinyWorkload()
	w.Par = 2
	path := filepath.Join(t.TempDir(), "manifest.json")
	stages := prof.NewStages()
	w.Sup = &Supervisor{Slice: 1 << 11, Retries: 2, RetrySeed: 5, Cache: NewManifest(path), Timings: stages}
	got, err := c.run(w)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.manifest = string(raw); got != want {
		t.Errorf("-timings changed the sweep\n got %+v\nwant %+v", got, want)
	}

	var records, cells, shared int
	for _, st := range stages.Snapshot() {
		if st.End < st.Start {
			t.Errorf("stage %s %s never ended", st.Kind, st.Name)
		}
		switch st.Kind {
		case "record":
			records++
			if st.Lane != 0 {
				t.Errorf("recording %s ran on lane %d, want the recorder lane", st.Name, st.Lane)
			}
		case "cell":
			cells++
			if st.Lane < 1 || st.Lane > 2 {
				t.Errorf("cell %s ran on lane %d of 2", st.Name, st.Lane)
			}
			if reflect.DeepEqual(st.Marks, []string{"shared"}) {
				shared++
			}
		}
	}
	if records != 2 || cells != 6 || shared != 2 {
		t.Errorf("%d recordings, %d cells, %d shared; want 2, 6, 2", records, cells, shared)
	}

	// A second sweep over the same manifest finds every cell.
	w.Sup.Timings = prof.NewStages()
	if _, err := c.run(w); err != nil {
		t.Fatal(err)
	}
	for _, st := range w.Sup.Timings.Snapshot() {
		if st.Kind == "cell" && !reflect.DeepEqual(st.Marks, []string{"cached"}) {
			t.Errorf("resumed cell %s: marks %v, want cached", st.Name, st.Marks)
		}
	}
	var b strings.Builder
	if _, err := w.Sup.Timings.WriteTo(&b); err != nil || strings.Count(b.String(), "\n") != 8 {
		t.Errorf("WriteTo: err=%v, output:\n%s", err, b.String())
	}
}
