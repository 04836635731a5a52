package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/spmem"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

// The differential for shared replays: whatever runReplays fills from a
// representative must be what the cell's own replay would have produced, on
// every field of machine.Result, in every rendered byte and in every byte of
// the manifest. The reference is the pool with every job a cell of its own.

// realReplays replays every job for real: runShared under the identity map,
// which is what runReplays was before it shared anything. A nil sup is the
// zero Supervisor, as it is to runReplays.
func realReplays(sup *Supervisor, workers int, jobs []replayJob) []replayOut {
	own := make([]int, len(jobs))
	for i := range own {
		own[i] = i
	}
	if sup == nil {
		sup = new(Supervisor)
	}
	return runShared(sup, workers, jobs, own)
}

// requireSameOuts compares two pools' outcomes slot by slot — results,
// MemFault marks, attempt counts, and errors by their rendered text (a
// contained panic carries a goroutine stack, which legitimately differs) —
// and returns how many of got's slots were filled from a representative.
func requireSameOuts(t *testing.T, name string, got, want []replayOut) (shared int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outcomes, want %d", name, len(got), len(want))
	}
	text := func(err error) string {
		if err == nil {
			return ""
		}
		return FailKind(err) + ": " + err.Error()
	}
	for i := range want {
		if want[i].shared {
			t.Fatalf("%s: the reference shared slot %d", name, i)
		}
		if got[i].shared {
			shared++
		}
		g, w := got[i], want[i]
		if !reflect.DeepEqual(g.res, w.res) || g.memFault != w.memFault || g.attempts != w.attempts || text(g.err) != text(w.err) {
			t.Errorf("%s: slot %d (shared=%v) differs from its own replay\n got %+v\nwant %+v", name, i, g.shared, g, w)
		}
	}
	return shared
}

// requireSameFile compares two manifest files byte for byte.
func requireSameFile(t *testing.T, name, got, want string) {
	t.Helper()
	g, gerr := os.ReadFile(got)
	w, werr := os.ReadFile(want)
	if errors.Is(gerr, os.ErrNotExist) && errors.Is(werr, os.ErrNotExist) {
		return // neither run completed a cell
	}
	if gerr != nil || werr != nil {
		t.Fatalf("%s: reading manifests: %v / %v", name, gerr, werr)
	}
	if string(g) != string(w) {
		t.Errorf("%s: manifest bytes differ from the all-real run's\n got %s\nwant %s", name, g, w)
	}
}

// onNodes crosses traces with near-memory configurations on otherwise equal
// nodes, in sweep order (node-major), applying tweak to every config.
func onNodes(cores int, nears []spmem.Config, tweak func(*machine.Config), traces ...*trace.Trace) []replayJob {
	var jobs []replayJob
	for _, near := range nears {
		for k, tr := range traces {
			cfg := NodeFor(cores, 8, near.Capacity)
			cfg.Near = near
			if tweak != nil {
				tweak(&cfg)
			}
			jobs = append(jobs, replayJob{cfg: cfg, tr: tr, label: fmt.Sprintf("t%d@%dch", k, near.Channels)})
		}
	}
	return jobs
}

// paperNears are the three near memories every bandwidth-style sweep crosses.
func paperNears(sp units.Bytes) []spmem.Config {
	return []spmem.Config{spmem.Paper(8, sp), spmem.Paper(16, sp), spmem.Paper(32, sp)}
}

// oddNears differ from each other in every field a near device has but the
// line size (which must match the node's).
func oddNears() []spmem.Config {
	return []spmem.Config{
		spmem.Paper(8, 64*units.KiB),
		{Channels: 3, LineSize: 64, ChannelBW: units.GBps(1), Latency: 7 * units.Nanosecond, Capacity: units.KiB},
		{Channels: 64, LineSize: 64, ChannelBW: units.GBps(400), Latency: 900 * units.Nanosecond, Capacity: units.GiB},
	}
}

// farStream records a 4-thread trace that streams far memory and then has
// its last thread do what touch names — the synthetic near-blind (or nearly
// near-blind) traces of the differential.
func farStream(touch func(tp *trace.TP)) *trace.Trace {
	rec := trace.NewRecorder(4, ScaledL1, trace.DefaultCosts())
	for tid := 0; tid < rec.Threads(); tid++ {
		tp := rec.Thread(tid)
		if tid == 0 {
			tp.Phase("stream")
		}
		for i := 0; i < 400; i++ {
			tp.Load(addr.FarBase+addr.Addr(tid<<20+i*64), 8)
			tp.Store(addr.FarBase+addr.Addr(tid<<20+i*64), 8)
			tp.Compare(3)
		}
		if tid == rec.Threads()-1 && touch != nil {
			touch(tp)
		}
		tp.Barrier()
	}
	return rec.Finish(nil)
}

// TestSharedReplaysMatchRealReplays runs hand-built job batches through the
// pool both ways. Each batch names how many of its cells must come back
// filled from a representative, so every exit from sharing — a retried
// representative, a failed one, a DMA copy, a near endpoint, a telemetry
// recorder — is shown to be taken, and shown to be needed where the cells'
// own replays really differ.
func TestSharedReplaysMatchRealReplays(t *testing.T) {
	w := tinyWorkload()
	gnu, err := Record(AlgGNUSort, w)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := Record(AlgNMSort, w)
	if err != nil {
		t.Fatal(err)
	}
	kw := smallKMeans(Workload{})
	kmFar, err := Record(AlgKMeansFar, kw)
	if err != nil {
		t.Fatal(err)
	}
	kmSP, err := Record(AlgKMeansSP, kw)
	if err != nil {
		t.Fatal(err)
	}
	far, near := addr.FarBase+addr.Addr(1<<24), addr.NearBase+4096
	farDMA := farStream(func(tp *trace.TP) { tp.DMA(far, far+8192, 4096); tp.DMAWait() })
	nearDMA := farStream(func(tp *trace.TP) { tp.DMA(far, near, 4096); tp.DMAWait() })
	emptyNearDMA := farStream(func(tp *trace.TP) { tp.DMA(far, near, 0); tp.DMAWait() })
	nearAtomic := farStream(func(tp *trace.TP) { tp.Atomic(near) })

	// A fault environment harsh enough that the tiny baseline's first
	// attempt ends in a MemFault, mild enough that reseeded retries differ.
	faulty := func(c *machine.Config) { c.Fault = fault.Profile(41, 2e-2) }
	supervised := func(retries int) func() *Supervisor {
		return func() *Supervisor { return &Supervisor{Slice: 1 << 11, Retries: retries, RetrySeed: 5} }
	}

	type batch struct {
		name   string
		jobs   func() []replayJob   // called once per pool run: telemetry recorders are single-use
		sups   []func() *Supervisor // nil entry: a nil supervisor, no manifest
		shared int                  // cells that must be filled from a representative
		// differ: the cells' own replays must not all be equal modulo the
		// near echo — the batch proves its guard is load-bearing.
		differ bool
	}
	on := func(cores int, nears []spmem.Config, tweak func(*machine.Config), traces ...*trace.Trace) func() []replayJob {
		return func() []replayJob { return onNodes(cores, nears, tweak, traces...) }
	}
	both := []func() *Supervisor{nil, supervised(0)}
	batches := []batch{
		{name: "bandwidth shape", jobs: on(w.Threads, paperNears(w.SP), nil, gnu.Trace, nm.Trace), sups: both, shared: 2},
		{name: "kmeans shape", jobs: on(kw.Threads, paperNears(kw.SP), nil, kmFar.Trace, kmSP.Trace), sups: both, shared: 2},
		{name: "near differs in every field", jobs: on(w.Threads, oddNears(), nil, gnu.Trace), sups: both, shared: 2},
		// Without a manifest only: with one the second cell finds the first
		// under their common key before it can be filled.
		{name: "equal cells", jobs: on(w.Threads, []spmem.Config{spmem.Paper(8, w.SP), spmem.Paper(8, w.SP)}, nil, gnu.Trace),
			sups: []func() *Supervisor{nil}, shared: 1},
		{name: "far-only stream", jobs: on(4, oddNears(), nil, farStream(nil)), sups: both, shared: 2},
		{name: "faults tolerated", jobs: on(w.Threads, paperNears(w.SP), faulty, gnu.Trace), sups: both, shared: 2},
		{name: "faults retried", jobs: on(w.Threads, paperNears(w.SP), faulty, gnu.Trace),
			sups: []func() *Supervisor{supervised(2)}, shared: 0, differ: true},
		{name: "far to far DMA", jobs: on(4, oddNears(), nil, farDMA), sups: both, shared: 0},
		{name: "DMA into near", jobs: on(4, oddNears(), nil, nearDMA), sups: both, shared: 0, differ: true},
		{name: "empty DMA into near", jobs: on(4, oddNears(), nil, emptyNearDMA), sups: both, shared: 0, differ: true},
		{name: "near atomic", jobs: on(4, oddNears(), nil, nearAtomic), sups: both, shared: 0, differ: true},
		{name: "telemetry attached", jobs: on(w.Threads, paperNears(w.SP),
			func(c *machine.Config) { c.Telemetry = telemetry.New(10 * units.Microsecond) }, gnu.Trace),
			sups: []func() *Supervisor{supervised(0)}, shared: 0},
		{name: "representative out of budget", jobs: on(w.Threads, paperNears(w.SP),
			func(c *machine.Config) { c.MaxEvents = 500 }, gnu.Trace), sups: both, shared: 0},
	}
	pars := []int{1, 4}
	if testing.Short() {
		pars = []int{4}
	}
	for _, b := range batches {
		for si, mk := range b.sups {
			for _, par := range pars {
				name := fmt.Sprintf("%s/sup%d/par%d", b.name, si, par)
				dir := t.TempDir()
				var gotSup, wantSup *Supervisor
				if mk != nil {
					gotSup, wantSup = mk(), mk()
					gotSup.Cache = NewManifest(filepath.Join(dir, "shared.json"))
					wantSup.Cache = NewManifest(filepath.Join(dir, "real.json"))
				}
				got := runReplays(gotSup, par, b.jobs())
				jobs := b.jobs()
				want := realReplays(wantSup, par, jobs)
				if shared := requireSameOuts(t, name, got, want); shared != b.shared {
					t.Errorf("%s: %d cells shared a replay, want %d", name, shared, b.shared)
				}
				if mk != nil {
					requireSameFile(t, name, filepath.Join(dir, "shared.json"), filepath.Join(dir, "real.json"))
				}
				if b.differ {
					equal := true
					for i := 1; i < len(want); i++ {
						equal = equal && reflect.DeepEqual(want[i].res, want[0].res.ForNear(jobs[i].cfg.Near))
					}
					if equal {
						t.Errorf("%s: every cell's own replay equals the first's; the batch no longer shows why its cells must not share one", name)
					}
				}
			}
		}
	}

	// The pre-pass itself: which cells may share at all.
	for _, tc := range []struct {
		name string
		jobs []replayJob
		want []int
	}{
		{"bandwidth shape", batches[0].jobs(), []int{0, 1, 0, 3, 0, 5}},
		{"far to far DMA", onNodes(4, oddNears(), nil, farDMA), []int{0, 0, 0}}, // near-blind: the DMACopies guard refuses it per run
		{"DMA into near", onNodes(4, oddNears(), nil, nearDMA), []int{0, 1, 2}},
		{"empty DMA into near", onNodes(4, oddNears(), nil, emptyNearDMA), []int{0, 1, 2}},
		{"near atomic", onNodes(4, oddNears(), nil, nearAtomic), []int{0, 1, 2}},
		{"one recorder on both cells", onNodes(w.Threads, paperNears(w.SP), func() func(*machine.Config) {
			tel := telemetry.New(10 * units.Microsecond)
			return func(c *machine.Config) { c.Telemetry = tel }
		}(), gnu.Trace), []int{0, 1, 2}},
		{"other knobs differ", onNodes(w.Threads, paperNears(w.SP), nil, gnu.Trace)[:2], nil},
	} {
		if tc.want == nil {
			// Any difference outside cfg.Near keeps two cells apart.
			for _, tweak := range []func(*machine.Config){
				func(c *machine.Config) { c.MaxEvents = 1 << 30 },
				func(c *machine.Config) { c.Far.Channels = 2 },
				func(c *machine.Config) { c.Fault = fault.Profile(9, 1e-3) },
				func(c *machine.Config) { c.MaxOutstanding = 2 },
			} {
				jobs := []replayJob{tc.jobs[0], tc.jobs[1]}
				tweak(&jobs[1].cfg)
				if got := representatives(jobs); !reflect.DeepEqual(got, []int{0, 1}) {
					t.Errorf("%s: representatives = %v, want [0 1] for configs %+v / %+v", tc.name, got, jobs[0].cfg, jobs[1].cfg)
				}
			}
			continue
		}
		if got := representatives(tc.jobs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: representatives = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// bandwidthJobs rebuilds the job list of the two registry experiments that
// have alias cells, bandwidth (gnusort, nmsort) and kmeans (kmeans-far,
// kmeans-sp), exactly as overBandwidth builds it, so the test can run the
// same cells through the all-real pool.
func bandwidthJobs(t *testing.T, w Workload, control, variant Algorithm) []replayJob {
	t.Helper()
	traces := make([]*trace.Trace, 2)
	for i, alg := range []Algorithm{control, variant} {
		res, err := Record(alg, w)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = res.Trace
	}
	return onNodes(w.Threads, paperNears(w.SP), nil, traces...)
}

// TestSharedSweepsMatchRealSweeps walks the experiment registry at tiny N,
// under a nil supervisor and a supervised one (manifest, fault injection on,
// retries allowed), sequential and pooled. The two experiments with alias cells must
// report, render and checkpoint exactly what the all-real pool produces for
// the same cells; every other experiment must not have shared a replay at
// all, so its bytes are the real path's by construction.
func TestSharedSweepsMatchRealSweeps(t *testing.T) {
	w := tinyWorkload()
	params := ExperimentParams{CoreList: []int{8, 16}, FaultSeed: 41, FaultRates: []float64{1e-3, 2e-2}, Epoch: 5 * units.Microsecond}
	pars := []int{1, 4}
	if testing.Short() {
		pars = []int{4}
	}
	for _, e := range Experiments {
		for _, supervised := range []bool{false, true} {
			for _, par := range pars {
				name := fmt.Sprintf("%s/supervised=%v/par%d", e.Name, supervised, par)
				dir := t.TempDir()
				var gotSup, wantSup *Supervisor
				if supervised {
					gotSup = &Supervisor{Slice: 1 << 11, Retries: 2, RetrySeed: 5, Cache: NewManifest(filepath.Join(dir, "shared.json"))}
					wantSup = &Supervisor{Slice: 1 << 11, Retries: 2, RetrySeed: 5, Cache: NewManifest(filepath.Join(dir, "real.json"))}
				}
				pw := w
				pw.Par, pw.Sup = par, gotSup
				out, err := runRow(e, params, pw)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				s, ok := out.(Sweep)
				if !ok {
					// A table: no two of Table I's cells (table1's,
					// codesign's) replay one trace near-blind, and the
					// other tables replay nothing.
					continue
				}
				var jobs []replayJob
				switch e.Name {
				case "bandwidth":
					jobs = bandwidthJobs(t, w, AlgGNUSort, AlgNMSort)
				case "kmeans":
					jobs = bandwidthJobs(t, smallKMeans(Workload{}), AlgKMeansFar, AlgKMeansSP)
				}
				if s.Failed() != 0 {
					t.Fatalf("%s: %d failed cells", name, s.Failed())
				}
				if jobs == nil {
					if s.Replays != len(s.Points) {
						t.Errorf("%s: %d of %d cells replayed; the experiment has no two cells on one near-blind trace", name, s.Replays, len(s.Points))
					}
					continue
				}
				if s.Replays != len(s.Points)-2 {
					t.Errorf("%s: %d of %d cells replayed, want two control cells filled from the third", name, s.Replays, len(s.Points))
				}
				// The same sweep with every cell replayed for real: the
				// points' metadata, the all-real pool's outcomes.
				want := s
				want.Points = append([]SweepPoint(nil), s.Points...)
				for i := range jobs {
					jobs[i].label = s.Points[i].Label
				}
				for i, o := range realReplays(wantSup, par, jobs) {
					if o.err != nil || o.shared {
						t.Fatalf("%s: real replay of cell %d: shared=%v err=%v", name, i, o.shared, o.err)
					}
					want.Points[i].Result, want.Points[i].MemFault = o.res, o.memFault
					if !reflect.DeepEqual(s.Points[i], want.Points[i]) {
						t.Errorf("%s: point %q differs from its own replay\n got %+v\nwant %+v", name, s.Points[i].Label, s.Points[i], want.Points[i])
					}
				}
				if got, want := renderSweep(t, s), renderSweep(t, want); got != want {
					t.Errorf("%s: rendered sweep differs\n got %s\nwant %s", name, got, want)
				}
				if supervised {
					requireSameFile(t, name, filepath.Join(dir, "shared.json"), filepath.Join(dir, "real.json"))
				}
			}
		}
	}
}

// TestAliasOfGuards: each per-run guard alone refuses to fill a cell, and
// what is filled carries the cell's own near echo on a copy — the
// representative's phases are left as they were.
func TestAliasOfGuards(t *testing.T) {
	cfg := NodeFor(16, 32, 64*units.KiB)
	clean := func() replayOut {
		return replayOut{attempts: 1, memFault: true, res: machine.Result{
			SimTime: 5, Phases: []telemetry.PhaseUsage{{Name: "a", NearChannels: 8}, {Name: "b", NearChannels: 8}},
		}}
	}
	for name, spoil := range map[string]func(*replayOut){
		"failed":          func(o *replayOut) { o.err = errors.New("boom") },
		"retried":         func(o *replayOut) { o.attempts = 2 },
		"near read":       func(o *replayOut) { o.res.NearStats.Reads = 1 },
		"near write":      func(o *replayOut) { o.res.NearStats.Writes = 1 },
		"DMA copy":        func(o *replayOut) { o.res.DMACopies = 1 },
		"cancelled early": func(o *replayOut) { o.err = &CancelledError{Cause: errors.New("stop")} },
	} {
		rep := clean()
		spoil(&rep)
		if _, ok := aliasOf(rep, cfg); ok {
			t.Errorf("%s: aliasOf filled a cell from a representative that proves nothing", name)
		}
	}
	rep := clean()
	got, ok := aliasOf(rep, cfg)
	if !ok || !got.shared || !got.memFault || got.attempts != 1 || got.res.SimTime != 5 {
		t.Fatalf("aliasOf(clean) = %+v, %v", got, ok)
	}
	for i, ph := range got.res.Phases {
		if ph.NearChannels != 32 || rep.res.Phases[i].NearChannels != 8 {
			t.Errorf("phase %d: alias reports %d near channels (want 32), representative now %d (want 8)",
				i, ph.NearChannels, rep.res.Phases[i].NearChannels)
		}
	}
	if out, ok := aliasOf(replayOut{}, cfg); !ok || out.res.Phases != nil {
		t.Errorf("a phase-less outcome must fill with nil phases: %+v, %v", out, ok)
	}
}
