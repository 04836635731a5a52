package harness

import (
	"context"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/xrand"
)

// renderSweep is the byte-identity probe: the aligned text plus the CSV
// encoding, so both render paths are pinned at once.
func renderSweep(t *testing.T, s Output) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(s.String())
	if err := s.Report().Render(&b, "csv"); err != nil {
		t.Fatalf("render csv: %v", err)
	}
	return b.String()
}

// requireMachineRun holds one cell's outcome to the per-cell reference:
// machine.Run of its job, one undivided replay, on the whole machine.Result.
// A MemFault outcome is data, read the way a cell with no retries reads it.
func requireMachineRun(t *testing.T, name string, j replayJob, res machine.Result, memFault bool) {
	t.Helper()
	want, err := machine.Run(j.cfg, j.tr)
	wantMF := errors.As(err, new(*fault.MemFaultError))
	if err != nil && !wantMF {
		t.Fatalf("%s: machine.Run: %v", name, err)
	}
	if memFault != wantMF || !reflect.DeepEqual(res, want) {
		t.Errorf("%s: the cell (MemFault %v) differs from machine.Run of its job (MemFault %v)\n got %+v\nwant %+v",
			name, memFault, wantMF, res, want)
	}
}

// TestSlicedSweepMatchesMachineRun pins the byte-identity of slicing: a
// supervisor with nothing to do (no cancellation, no chaos, no manifest)
// fills every cell of a sweep, at the default slice and a small one, with
// machine.Run's result for the cell's job.
func TestSlicedSweepMatchesMachineRun(t *testing.T) {
	w := tinyWorkload()
	jobs := bandwidthJobs(t, w, AlgGNUSort, AlgNMSort)
	for _, slice := range []uint64{0, 1 << 12} {
		sw := w
		sw.Sup = &Supervisor{Slice: slice}
		got, err := BandwidthSweep(sw)
		if err != nil {
			t.Fatalf("slice %d: %v", slice, err)
		}
		if got.Failed() != 0 {
			t.Fatalf("slice %d: %d failed cells", slice, got.Failed())
		}
		for i, p := range got.Points {
			requireMachineRun(t, fmt.Sprintf("slice %d, %s", slice, p.Label), jobs[i], p.Result, p.MemFault)
		}
	}
}

// TestNilSupervisorIsTheZeroSupervisor: there is one cell protocol. Table I
// and the bandwidth sweep — the fault sweep where the case injects faults —
// count the same failures and return the same error under a nil supervisor as
// under &Supervisor{}, whatever their cells do, and mark each failed row with
// its kind. (serve's TestRunSweepNilSupervisorKeepsTheRetryPolicy compares
// their bytes.)
func TestNilSupervisorIsTheZeroSupervisor(t *testing.T) {
	type run struct {
		what string
		run  func(Workload) (Output, error)
	}
	runs := func(rate float64) []run {
		fc := fault.Config{}
		sweep := run{"bandwidth", func(w Workload) (Output, error) { return BandwidthSweep(w) }}
		if rate > 0 {
			fc = fault.Profile(41, rate)
			sweep = run{"faults", func(w Workload) (Output, error) { return RunFaultSweep(w, 16, 41, []float64{rate}) }}
		}
		return []run{{"table1", func(w Workload) (Output, error) { return Table1Faults(w, false, fc) }}, sweep}
	}
	for _, c := range []struct {
		name     string
		tweak    func(*Workload)
		budget   uint64  // every cell's event budget; 0 for its trace's EventBound
		rate     float64 // far-memory fault rate
		kind     string  // every row's failure kind; "" for none
		memFault bool    // some row is marked "!"
		recErr   bool    // a recording fails: the run's error
	}{
		{name: "success"},
		{name: "every cell over MaxEvents", budget: 9, kind: "budget"},
		{name: "replays panic", tweak: func(w *Workload) { w.Threads = 6 }, kind: "panic"}, // not whole quad-core groups: machine.New panics
		{name: "fault rate 1, zero retries", rate: 1, memFault: true},
		{name: "recording fails", tweak: func(w *Workload) { w.N = -1 }, recErr: true},
	} {
		for _, r := range runs(c.rate) {
			name := c.name + "/" + r.what
			w := tinyWorkload()
			if c.tweak != nil {
				c.tweak(&w)
			}
			var nilOut, out Output
			var nilErr, err error
			starved(c.budget, func() {
				nilOut, nilErr = r.run(w)
				w.Sup = &Supervisor{}
				out, err = r.run(w)
			})
			if (err != nil) != c.recErr || fmt.Sprint(nilErr) != fmt.Sprint(err) {
				t.Fatalf("%s: err %v under a nil supervisor, %v under the zero one; want an error: %v", name, nilErr, err, c.recErr)
			}
			if c.recErr {
				continue
			}
			if nilOut.Failed() != out.Failed() {
				t.Errorf("%s: %d failed under a nil supervisor, %d under the zero one", name, nilOut.Failed(), out.Failed())
			}
			rows := out.Report().Rows
			wantFailed := 0
			if c.kind != "" {
				wantFailed = len(rows)
			}
			marked, failed := false, 0
			for _, row := range rows {
				marked = marked || strings.HasSuffix(row[0], " !")
				if strings.HasSuffix(row[0], " ["+c.kind+"]") {
					failed++
				}
			}
			if failed != wantFailed || out.Failed() != wantFailed {
				t.Errorf("%s: %d rows marked %q, Failed() = %d; want %d", name, failed, c.kind, out.Failed(), wantFailed)
			}
			if marked != c.memFault {
				t.Errorf("%s: a row marked with a MemFault: %v, want %v", name, marked, c.memFault)
			}
		}
	}
}

// TestChaosInterruptResume is the deterministic chaos test: sweeps are
// killed at seeded slice boundaries via the Interrupt hook, resumed from
// the on-disk manifest (reloaded through OpenManifest each round, as a
// fresh process would), and the final resumed report must be byte-identical
// to an uninterrupted golden run — across worker counts.
func TestChaosInterruptResume(t *testing.T) {
	w := tinyWorkload()
	golden, err := BandwidthSweep(w)
	if err != nil {
		t.Fatal(err)
	}
	want := renderSweep(t, golden)
	t.Run("shared replays", func(t *testing.T) { chaosSharedReplays(t, w, want) })

	pars := []int{1, 4}
	if testing.Short() {
		pars = []int{2}
	}
	const chaosSeed = 0xC4A05
	for _, par := range pars {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			if par > 1 {
				// The widest matrix point also runs host-constrained:
				// byte-identity must hold at any GOMAXPROCS.
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			}
			path := filepath.Join(t.TempDir(), "manifest.json")
			for round := 0; ; round++ {
				if round > 50 {
					t.Fatal("chaos rounds did not converge")
				}
				man, err := OpenManifest(path)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				// The kill threshold is seeded and grows with the round, so
				// every schedule eventually outruns the chaos.
				kill := 1 + xrand.Mix(chaosSeed, uint64(round))%20 + uint64(round)*5
				var slices atomic.Uint64
				chaos := errors.New("chaos kill")
				sw := w
				sw.Par = par
				sw.Sup = &Supervisor{
					Slice: 1 << 12,
					Cache: man,
					Interrupt: func() error {
						if slices.Add(1) >= kill {
							return chaos
						}
						return nil
					},
				}
				s, err := BandwidthSweep(sw)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if s.Failed() == 0 {
					if got := renderSweep(t, s); got != want {
						t.Errorf("resumed sweep differs from golden:\n%s\nwant:\n%s", got, want)
					}
					t.Logf("converged after %d rounds, %d cells checkpointed", round+1, man.Len())
					return
				}
				for _, p := range s.Points {
					if p.Fail != "" && p.Fail != "cancelled" {
						t.Fatalf("round %d: cell %q failed with %q, want cancelled", round, p.Label, p.Fail)
					}
					if p.Fail != "" && !strings.Contains(pointLabel(p), "[cancelled]") {
						t.Fatalf("round %d: cancelled cell %q not marked: %q", round, p.Label, pointLabel(p))
					}
				}
			}
		})
	}
}

// chaosSharedReplays is TestChaosInterruptResume across the shared-replay
// seam: the bandwidth sweep's baseline cells are one replay and two fills, and
// neither an interrupt nor a partial manifest may show it.
func chaosSharedReplays(t *testing.T, w Workload, want string) {
	jobs := bandwidthJobs(t, w, AlgGNUSort, AlgNMSort)
	for i, label := range []string{"gnusort@2X", "nmsort@2X", "gnusort@4X", "nmsort@4X", "gnusort@8X", "nmsort@8X"} {
		jobs[i].label = label
	}
	keys, err := (&Supervisor{}).cellKeys(jobs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// The golden manifest: an uninterrupted supervised sweep's.
	goldenPath := filepath.Join(dir, "golden.json")
	gw := w
	gw.Par = 1
	gw.Sup = &Supervisor{Slice: 1 << 12, Cache: NewManifest(goldenPath)}
	if s, err := BandwidthSweep(gw); err != nil || s.Failed() != 0 || renderSweep(t, s) != want {
		t.Fatalf("golden supervised sweep: err=%v failed=%d", err, s.Failed())
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("representative cancelled mid-replay", func(t *testing.T) {
		// Sequential, the first cell claimed is gnusort@2X, the baseline's
		// representative. Poll 1 admits it; poll 3 falls between its slices.
		var polls atomic.Uint64
		chaos := errors.New("chaos kill")
		man := NewManifest(filepath.Join(dir, "killed.json"))
		sup := &Supervisor{Slice: 1 << 12, Cache: man, Interrupt: func() error {
			if polls.Add(1) >= 3 {
				return chaos
			}
			return nil
		}}
		outs := runReplays(sup, 1, jobs)
		for i, o := range outs {
			var ce *CancelledError
			if !errors.As(o.err, &ce) || !errors.Is(o.err, chaos) {
				t.Fatalf("cell %s: err = %v, want cancelled by the chaos kill", jobs[i].label, o.err)
			}
			if ce.Label != jobs[i].label || ce.Cell != keys[i] {
				t.Errorf("cell %s (%s) cancelled as %q (%s)", jobs[i].label, keys[i], ce.Label, ce.Cell)
			}
			if o.shared || (i > 0 && o.res.Events != 0) {
				t.Errorf("cell %s: a cancelled sweep filled it: %+v", jobs[i].label, o)
			}
		}
		if outs[0].res.Events == 0 {
			t.Error("the representative was not mid-replay when the kill landed")
		}
		if man.Len() != 0 {
			t.Errorf("%d cells checkpointed by a sweep that completed none", man.Len())
		}
	})

	// Partial manifests, as a -resume would find them after a kill.
	for _, tc := range []struct {
		name    string
		held    []int // cells the manifest already holds
		replays int   // cells that come back as their own (replayed or found), the rest filled
	}{
		{"representative held, aliases missing", []int{0, 1, 3, 5}, 4},
		{"representative alone", []int{0}, 4},
		{"an alias held, representative missing", []int{2}, 5},
		{"both aliases held, representative missing", []int{2, 4, 1}, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full, err := OpenManifest(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4} {
				path := filepath.Join(t.TempDir(), "partial.json")
				part := NewManifest(path)
				for _, i := range tc.held {
					c, ok := full.Lookup(keys[i])
					if !ok {
						t.Fatalf("golden manifest lacks cell %s under %s", jobs[i].label, keys[i])
					}
					if err := part.Complete(keys[i], c); err != nil {
						t.Fatal(err)
					}
				}
				man, err := OpenManifest(path) // as a fresh process would
				if err != nil {
					t.Fatal(err)
				}
				rw := w
				rw.Par = par
				rw.Sup = &Supervisor{Slice: 1 << 12, Cache: man}
				s, err := BandwidthSweep(rw)
				if err != nil || s.Failed() != 0 {
					t.Fatalf("par %d: err=%v failed=%d", par, err, s.Failed())
				}
				if got := renderSweep(t, s); got != want {
					t.Errorf("par %d: resumed sweep differs from golden:\n%s\nwant:\n%s", par, got, want)
				}
				if s.Replays != tc.replays {
					t.Errorf("par %d: %d cells came back as their own, want %d", par, s.Replays, tc.replays)
				}
				if got, err := os.ReadFile(path); err != nil || string(got) != string(golden) {
					t.Errorf("par %d: resumed manifest differs from the uninterrupted sweep's (err=%v)", par, err)
				}
			}
		})
	}
}

// TestPanicContainment plants a cell whose machine configuration fails
// validation (machine.New panics) among healthy cells: the sweep must
// complete, the poisoned cell must render as a marked row, and the failure
// count must be exactly one.
func TestPanicContainment(t *testing.T) {
	w := tinyWorkload()
	rec, err := Record(AlgGNUSort, w)
	if err != nil {
		t.Fatal(err)
	}
	good := NodeFor(w.Threads, 8, w.SP)
	bad := good
	bad.Cores = -1 // fails Validate; machine.New panics
	jobs := []replayJob{
		{cfg: good, tr: rec.Trace},
		{cfg: bad, tr: rec.Trace},
		{cfg: good, tr: rec.Trace},
	}
	points := []SweepPoint{{Label: "ok-a"}, {Label: "boom"}, {Label: "ok-b"}}
	s, err := Sweep{Title: "panic containment"}.collect(&Supervisor{}, 2, jobs, points)
	if err != nil {
		t.Fatalf("supervised sweep aborted: %v", err)
	}
	if s.Failed() != 1 {
		t.Fatalf("Failed() = %d, want 1", s.Failed())
	}
	if s.Points[1].Fail != "panic" {
		t.Errorf("Fail = %q, want panic", s.Points[1].Fail)
	}
	if got := pointLabel(s.Points[1]); got != "boom [panic]" {
		t.Errorf("label = %q, want %q", got, "boom [panic]")
	}
	for _, i := range []int{0, 2} {
		if s.Points[i].Fail != "" || s.Points[i].Result.Events == 0 {
			t.Errorf("healthy cell %d damaged: fail=%q events=%d", i, s.Points[i].Fail, s.Points[i].Result.Events)
		}
	}
	// The raw error carries the cell coordinates.
	out := (&Supervisor{}).runCell(replayJob{cfg: bad, tr: rec.Trace, label: "boom"}, CellKey{Trace: 1, Config: 2})
	var pe *ReplayPanicError
	if !errors.As(out.err, &pe) {
		t.Fatalf("err = %v, want ReplayPanicError", out.err)
	}
	if pe.Cell != (CellKey{Trace: 1, Config: 2}) || pe.Label != "boom" {
		t.Errorf("panic error missing coordinates: %+v", pe)
	}
}

// TestBudgetContainment: a supervised cell that exhausts its event budget
// becomes a marked row, not a sweep abort, and the slice size does not leak
// into the reported budget error.
func TestBudgetContainment(t *testing.T) {
	w := tinyWorkload()
	rec, err := Record(AlgGNUSort, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NodeFor(w.Threads, 8, w.SP)
	cfg.MaxEvents = 999
	s, err := Sweep{Title: "budget"}.collect(&Supervisor{Slice: 100}, 1,
		[]replayJob{{cfg: cfg, tr: rec.Trace}}, []SweepPoint{{Label: "starved"}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Failed() != 1 || s.Points[0].Fail != "budget" {
		t.Fatalf("Fail = %q (failed %d), want budget", s.Points[0].Fail, s.Failed())
	}
}

// TestDeterministicRetry pins the retry loop: attempts are counted, the
// reseeding chain is pure (two identical supervised runs agree bit for
// bit), and exhausted retries degrade to the tolerated MemFault outcome.
func TestDeterministicRetry(t *testing.T) {
	w := tinyWorkload()
	rec, err := Record(AlgGNUSort, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NodeFor(w.Threads, 8, w.SP)
	// Every far read faults, nothing is correctable, every fault is stuck:
	// each attempt ends in a MemFault, so the supervisor runs the full
	// retry budget and then tolerates the outcome as data.
	cfg.Fault = fault.Config{Seed: 99, BitErrorRate: 1, UncorrectableFrac: 1, StuckFrac: 1}

	run := func() replayOut {
		sup := &Supervisor{Retries: 2, RetrySeed: 7}
		keys, err := sup.cellKeys([]replayJob{{cfg: cfg, tr: rec.Trace}})
		if err != nil {
			t.Fatal(err)
		}
		return sup.runCell(replayJob{cfg: cfg, tr: rec.Trace, label: "faulty"}, keys[0])
	}
	a, b := run(), run()
	if a.err != nil {
		t.Fatalf("retry-exhausted cell must tolerate MemFault, got %v", a.err)
	}
	if !a.memFault {
		t.Error("memFault flag not set after exhausted retries")
	}
	if a.attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 initial + 2 retries)", a.attempts)
	}
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Errorf("retry chain not deterministic:\n%+v\n%+v", a, b)
	}
	// Zero retries read the one replay's MemFault outcome as data: exactly
	// machine.Run's result, marked.
	sup := &Supervisor{}
	j := replayJob{cfg: cfg, tr: rec.Trace, label: "faulty"}
	keys, err := sup.cellKeys([]replayJob{j})
	if err != nil {
		t.Fatal(err)
	}
	got := sup.runCell(j, keys[0])
	if got.err != nil || !got.memFault || got.attempts != 1 {
		t.Fatalf("zero retries: err=%v memFault=%v attempts=%d, want the tolerated MemFault of one attempt", got.err, got.memFault, got.attempts)
	}
	requireMachineRun(t, "zero retries", j, got.res, got.memFault)
}

// TestCancellationSkipsCells: a context cancelled before the sweep starts
// cancels every cell, with the cause reachable through errors.Is.
func TestCancellationSkipsCells(t *testing.T) {
	w := tinyWorkload()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sw := w
	sw.Sup = &Supervisor{Ctx: ctx}
	s, err := BandwidthSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	if s.Failed() != len(s.Points) {
		t.Fatalf("Failed() = %d, want all %d", s.Failed(), len(s.Points))
	}
	for _, p := range s.Points {
		if p.Fail != "cancelled" {
			t.Errorf("cell %q: Fail = %q, want cancelled", p.Label, p.Fail)
		}
	}
	// The raw cell error unwraps to the context cause.
	out := sw.Sup.runCell(replayJob{cfg: NodeFor(w.Threads, 8, w.SP)}, CellKey{})
	if !errors.Is(out.err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", out.err)
	}
}

// TestTimelineSupervised: telemetry cells run under the supervisor but
// never consult the manifest — the recorder must actually record on every
// run, including one whose manifest already holds other cells.
func TestTimelineSupervised(t *testing.T) {
	w := tinyWorkload()
	man := NewManifest(filepath.Join(t.TempDir(), "m.json"))
	sw := w
	sw.Sup = &Supervisor{Cache: man}
	res1, tel1, err := RunTimeline(AlgNMSort, sw, 8, 50*units.Microsecond, fault.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res2, tel2, err := RunTimeline(AlgNMSort, sw, 8, 50*units.Microsecond, fault.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tel1 == nil || tel2 == nil {
		t.Fatal("telemetry recorder missing")
	}
	if res1.SimTime != res2.SimTime || res1.Events != res2.Events {
		t.Errorf("supervised timeline not deterministic: %+v vs %+v", res1, res2)
	}
	if man.Len() != 0 {
		t.Errorf("telemetry cells leaked into the manifest: %d entries", man.Len())
	}
}

// TestManifestRoundTrip: complete → reopen → lookup returns the identical
// cell, including the full nested machine.Result.
func TestManifestRoundTrip(t *testing.T) {
	w := tinyWorkload()
	rec, err := Record(AlgGNUSort, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NodeFor(w.Threads, 8, w.SP)
	res, err := machine.Run(cfg, rec.Trace)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	m := NewManifest(path)
	key := CellKey{Trace: 0xAB, Config: 0xCD}
	if err := m.Complete(key, CellOutcome{MemFault: true, Attempts: 2, Result: res}); err != nil {
		t.Fatal(err)
	}
	re, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := re.Lookup(key)
	if !ok {
		t.Fatal("completed cell missing after reopen")
	}
	if fmt.Sprintf("%+v", got.Result) != fmt.Sprintf("%+v", res) || !got.MemFault || got.Attempts != 2 {
		t.Errorf("cell did not round-trip:\ngot  %+v\nwant %+v", got.Result, res)
	}
}

// preElisionManifest is a one-cell manifest exactly as the commit before
// machine.Result gained Elided wrote it (whitespace aside, which the
// checksum does not cover).
const preElisionManifest = `{"version":1,"cells":[{"trace":"00000000000000ab","config":"00000000000000cd","cell":{"attempts":1,"result":{"SimTime":1234,"FarAccesses":5,"NearAccesses":0,"FarStats":{"Reads":0,"Writes":0,"RowHits":0,"RowMisses":0,"RowConflicts":0},"NearStats":{"Reads":0,"Writes":0},"L2":{"Hits":0,"Misses":0,"Writebacks":0},"FarUtilization":0,"NearUtilization":0,"NoCUtilization":0,"DMACopies":0,"DMABytes":0,"Events":64,"Phases":null,"Faults":{"FarBitErrors":0,"FarCorrected":0,"FarUncorrectable":0,"FarRetries":0,"MemFaults":0,"NearDegraded":0,"NoCRetransmits":0,"Faults":null},"BarrierTimes":null}}}],"crc64":"5b6bdcfad00dbc2b"}`

// TestManifestFromBeforeElidedStillOpens: the manifest checksum covers the
// cells as written, so a manifest from before machine.Result gained a field
// (Elided), or from a build whose Result had one this build's lacks, still
// verifies and -resume of an interrupted sweep across the upgrade goes on.
// A cell missing a field reads it as zero; a field Result lacks is dropped.
func TestManifestFromBeforeElidedStillOpens(t *testing.T) {
	cells := preElisionManifest[strings.Index(preElisionManifest, "[") : strings.LastIndex(preElisionManifest, "]")+1]
	sealed := func(cells string) string {
		return fmt.Sprintf(`{"version":1,"cells":%s,"crc64":"%016x"}`, cells, crc64.Checksum([]byte(cells), cellCRCTable))
	}
	for name, file := range map[string]string{
		"before Elided":       preElisionManifest,
		"without DMABytes":    sealed(strings.Replace(cells, `"DMABytes":0,`, "", 1)),
		"with a future field": sealed(strings.Replace(cells, `"Events":64,`, `"Events":64,"Future":[1,2],`, 1)),
	} {
		path := filepath.Join(t.TempDir(), "manifest.json")
		if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := OpenManifest(path)
		if err != nil {
			t.Errorf("%s: the manifest no longer verifies: %v", name, err)
			continue
		}
		got, ok := m.Lookup(CellKey{Trace: 0xAB, Config: 0xCD})
		if !ok || got.Attempts != 1 || got.Result.SimTime != 1234 || got.Result.Events != 64 || got.Result.Elided != 0 || got.Result.DMABytes != 0 {
			t.Errorf("%s: the cell read back as %+v (found %v)", name, got, ok)
		}
	}
}

// TestManifestCorruption: every tampered form of the file is rejected with
// ErrManifestCorrupt; a missing file is an empty manifest, not an error.
func TestManifestCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	m := NewManifest(path)
	if err := m.Complete(CellKey{Trace: 1, Config: 2}, CellOutcome{Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	missing, err := OpenManifest(filepath.Join(dir, "nope.json"))
	if err != nil || missing.Len() != 0 {
		t.Fatalf("missing file: len=%d err=%v, want empty manifest", missing.Len(), err)
	}

	cases := map[string][]byte{
		"not json":      []byte("]{"),
		"bad version":   []byte(strings.Replace(string(raw), `"version": 1`, `"version": 9`, 1)),
		"flipped cell":  []byte(strings.Replace(string(raw), `"attempts": 1`, `"attempts": 7`, 1)),
		"bad checksum":  []byte(strings.Replace(string(raw), `"crc64": "`, `"crc64": "0`, 1)),
		"bad trace key": []byte(strings.Replace(string(raw), `"trace": "0`, `"trace": "z`, 1)),
	}
	for name, mut := range cases {
		p := filepath.Join(dir, "corrupt.json")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenManifest(p); !errors.Is(err, ErrManifestCorrupt) {
			t.Errorf("%s: err = %v, want ErrManifestCorrupt", name, err)
		}
	}
}

// TestCellKeyStability: the key is content-addressed — equal traces and
// configs agree across processes and whatever the inert Shards field
// holds, different content disagrees.
func TestCellKeyStability(t *testing.T) {
	w := tinyWorkload()
	rec, err := Record(AlgGNUSort, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NodeFor(w.Threads, 8, w.SP)
	sup := &Supervisor{}
	keys, err := sup.cellKeys([]replayJob{{cfg: cfg, tr: rec.Trace}})
	if err != nil {
		t.Fatal(err)
	}
	sharded := cfg
	sharded.Shards = 4
	keys2, err := sup.cellKeys([]replayJob{{cfg: sharded, tr: rec.Trace}})
	if err != nil {
		t.Fatal(err)
	}
	if keys[0] != keys2[0] {
		t.Errorf("Shards leaked into the cell key: %v vs %v", keys[0], keys2[0])
	}
	other := cfg
	other.MaxEvents = 12345
	keys3, err := sup.cellKeys([]replayJob{{cfg: other, tr: rec.Trace}})
	if err != nil {
		t.Fatal(err)
	}
	if keys[0] == keys3[0] {
		t.Error("config change did not change the cell key")
	}
	// Values a rounded rendering of the units would merge, though the
	// first two pairs replay differently: the key holds each exactly.
	for _, c := range []struct {
		name string
		a, b func(*machine.Config)
	}{
		{"CoreHz 1.7e9 vs 1.7049e9",
			func(c *machine.Config) { c.CoreHz = units.Hz(1.7e9) },
			func(c *machine.Config) { c.CoreHz = units.Hz(1.7049e9) }},
		{"far and near ChannelBW 8.528e9 vs 8.5349e9",
			func(c *machine.Config) { c.Far.ChannelBW, c.Near.ChannelBW = 8.528e9, 8.528e9 },
			func(c *machine.Config) { c.Far.ChannelBW, c.Near.ChannelBW = 8.5349e9, 8.5349e9 }},
		{"Fault.DegradeEpoch 10us vs 10us+1ps",
			func(c *machine.Config) { c.Fault.DegradeEpoch = 10 * units.Microsecond },
			func(c *machine.Config) { c.Fault.DegradeEpoch = 10*units.Microsecond + units.Picosecond }},
	} {
		a, b := cfg, cfg
		a.Fault, b.Fault = fault.Profile(1, 1e-3), fault.Profile(1, 1e-3)
		c.a(&a)
		c.b(&b)
		if ConfigDigest(a, 0, 0) == ConfigDigest(b, 0, 0) {
			t.Errorf("%s: one cell key for two configs", c.name)
		}
	}
	if got, want := (CellKey{Trace: 0xAB, Config: 0xCD}).String(), "t00000000000000ab-c00000000000000cd"; got != want {
		t.Errorf("key format drifted: %q, want %q", got, want)
	}
}

// table1Jobs rebuilds Table I's cells as Table1Faults declares them, in row
// order, on traces recorded here.
func table1Jobs(t *testing.T, w Workload, dma bool, fc fault.Config) []replayJob {
	t.Helper()
	alg := AlgNMSort
	if dma {
		alg = AlgNMSortDM
	}
	var traces []*trace.Trace
	for _, a := range []Algorithm{AlgGNUSort, alg} {
		rec, err := Record(a, w)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, rec.Trace)
	}
	var jobs []replayJob
	for i, ch := range []int{8, 8, 16, 32} {
		cfg := NodeFor(w.Threads, ch, w.SP)
		cfg.Fault = fc
		jobs = append(jobs, replayJob{cfg: cfg, tr: traces[min(i, 1)]})
	}
	return jobs
}

// TestTable1Supervised: every cell of a supervised Table I is machine.Run of
// its job on the whole machine.Result — fault-free, and under faults with the
// §VII DMA engines — and a supervised failure leaves a marked row with a
// non-zero Failed count instead of an abort.
func TestTable1Supervised(t *testing.T) {
	w := tinyWorkload()
	sw := w
	for _, c := range []struct {
		dma bool
		fc  fault.Config
	}{{false, fault.Config{}}, {true, fault.Profile(41, 2e-2)}} {
		sw.Sup = &Supervisor{}
		got, err := Table1Faults(sw, c.dma, c.fc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Failed() != 0 {
			t.Fatalf("dma %v: Failed() = %d", c.dma, got.Failed())
		}
		for i, j := range table1Jobs(t, w, c.dma, c.fc) {
			r := got.Rows[i]
			requireMachineRun(t, fmt.Sprintf("dma %v, %s", c.dma, r.Name), j, r.Result, strings.HasSuffix(r.Name, " !"))
		}
	}

	// Starve the table's replays: every row fails, none aborts.
	var tb Table
	var err error
	starved(9, func() { tb, err = Table1Faults(sw, false, fault.Config{}) })
	if err != nil {
		t.Fatalf("supervised table aborted: %v", err)
	}
	if tb.Failed() != len(tb.Rows) {
		t.Errorf("Failed() = %d, want %d", tb.Failed(), len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if !strings.Contains(r.Name, "[budget]") {
			t.Errorf("row %q not budget-marked", r.Name)
		}
	}
}

// TestRecordMemoConcurrent: goroutines recording through one supervisor at
// once each get a trace with the bytes of a recording of its own, and
// afterwards the supervisor answers every one of its keys from its memo.
func TestRecordMemoConcurrent(t *testing.T) {
	w := Workload{N: 1 << 10, Seed: 3, Threads: 4, SP: 64 * units.KiB}
	algs := []Algorithm{AlgGNUSort, AlgNMSort}
	want := make([]uint64, len(algs))
	for k, alg := range algs {
		res, err := Record(alg, w)
		if err != nil {
			t.Fatal(err)
		}
		if want[k], err = res.Trace.Digest(); err != nil {
			t.Fatal(err)
		}
	}
	w.Sup = &Supervisor{}
	got := make([]uint64, 8)
	errs := make([]error, len(got))
	par.Each(len(got), func(i int) {
		var res RecordResult
		if res, errs[i] = Record(algs[i%len(algs)], w); errs[i] == nil {
			got[i], errs[i] = res.Trace.Digest()
		}
	})
	for i, d := range got {
		if errs[i] != nil || d != want[i%len(algs)] {
			t.Errorf("recording %d: digest %016x err %v, want %016x", i, d, errs[i], want[i%len(algs)])
		}
	}
	for _, alg := range algs {
		if _, cached, err := record(alg, w); err != nil || !cached {
			t.Errorf("%s after the race: cached=%v err=%v, want the memo's", alg, cached, err)
		}
	}
}

// Len reports the number of checkpointed cells.
func (m *Manifest) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cells)
}
