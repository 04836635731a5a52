package harness

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/kmeans"
	"repro/internal/machine"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// tinyWorkload keeps harness tests fast: 16 cores, small input.
func tinyWorkload() Workload {
	return Workload{N: 1 << 13, Seed: 7, Threads: 16, SP: 64 * units.KiB}
}

// smallKMeans is the kmeans row's workload at test size, with w's replay
// knobs copied in as the row copies them; the row itself pins 2^18 points.
func smallKMeans(w Workload) Workload {
	return Workload{N: 1 << 11, Seed: 31, Threads: 8, SP: 256 * units.KiB, Par: w.Par, Sup: w.Sup}
}

// runRow runs registry row e on w, the kmeans row on smallKMeans(w).
func runRow(e Experiment, p ExperimentParams, w Workload) (Output, error) {
	if e.Name == "kmeans" {
		return kmeansSweep(smallKMeans(w))
	}
	return e.Run(p, w)
}

func TestRecordAlgorithms(t *testing.T) {
	w := tinyWorkload()
	for _, alg := range []Algorithm{AlgGNUSort, AlgNMSort, AlgNMSortDM} {
		r, err := Record(alg, w)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if r.Trace.Ops() == 0 {
			t.Errorf("%s: empty trace", alg)
		}
	}
}

// TestRecordRejectsBadInput: nmtrace record and /v1/traces/record reach
// every program, so a workload none can run, or the named one cannot, is an
// error saying why — never a panic — and the edge a program can run records.
func TestRecordRejectsBadInput(t *testing.T) {
	for _, c := range []struct {
		alg  Algorithm
		n    int
		sp   units.Bytes
		want string // "" = records
	}{
		{AlgGNUSort, -1, units.KiB, "harness: bad workload (n -1"},
		{"bogus", 1 << 10, units.KiB, `harness: unknown algorithm "bogus"`},
		{AlgKMeansFar, 0, units.KiB, "harness: kmeans-far needs at least one point"},
		{AlgKMeansFar, 1, units.KiB, ""},
		{AlgKMeansSP, 33, units.KiB, "harness: kmeans-sp cannot pin n = 33 points of 4 dims (1056B) in a 1KiB scratchpad"},
		{AlgKMeansSP, 32, units.KiB, ""},
		{AlgKMeansSP, 31, 1000, "cannot pin n = 31 points"}, // 992 bytes, but the allocator hands out whole lines
		{AlgPEM, 3, units.KiB, "harness: pem needs a key per thread (n = 3, threads 4)"},
		{AlgPEM, 65, units.KiB, "harness: pem cannot hold n = 65 keys and their sorted copy (1040B) in a 1KiB scratchpad"},
		{AlgPEM, 64, units.KiB, ""},
	} {
		_, err := Record(c.alg, Workload{N: c.n, Seed: 5, Threads: 4, SP: c.sp})
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s, n = %d, sp %v: %v", c.alg, c.n, c.sp, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s, n = %d, sp %v: err = %v, want one saying %q", c.alg, c.n, c.sp, err, c.want)
		}
	}
}

// TestBadWorkloadErrorIsStable: the refusal names the fields it checked and
// no host address, so equal bad workloads under different supervisors get
// equal text (a daemon's error body is a pure function of the request).
func TestBadWorkloadErrorIsStable(t *testing.T) {
	bad := func() error {
		_, err := Record(AlgNMSort, Workload{N: 1 << 10, Seed: 7, Threads: 0, SP: units.MiB, Sup: &Supervisor{}})
		return err
	}
	a, b := bad(), bad()
	if a == nil || b == nil {
		t.Fatalf("a zero-thread workload recorded: %v, %v", a, b)
	}
	if a.Error() != b.Error() {
		t.Errorf("equal bad workloads, unequal errors:\n%s\n%s", a, b)
	}
	if want := "harness: bad workload (n 1024, threads 0, sp 1MiB)"; a.Error() != want {
		t.Errorf("error %q, want %q", a, want)
	}
}

func TestRecordDeterministic(t *testing.T) {
	w := tinyWorkload()
	a, err := Record(AlgNMSort, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Record(AlgNMSort, w)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace.Count() != b.Trace.Count() {
		t.Errorf("traces differ: %+v vs %+v", a.Trace.Count(), b.Trace.Count())
	}
	if a.Trace.Ops() != b.Trace.Ops() {
		t.Errorf("op counts differ: %d vs %d", a.Trace.Ops(), b.Trace.Ops())
	}
}

func TestNodeFor(t *testing.T) {
	cfg := NodeFor(128, 16, units.MiB)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("invalid node: %v", err)
	}
	if cfg.Cores != 128 || cfg.NoC.Groups != 32 {
		t.Errorf("cfg = %+v", cfg)
	}
	if got := cfg.BandwidthExpansion(); got != 4 {
		t.Errorf("expansion = %v", got)
	}
	if cfg.L2Capacity != scaledL2 {
		t.Errorf("L2 = %v, want scaled %v", cfg.L2Capacity, scaledL2)
	}
}

func TestTable1Shape(t *testing.T) {
	tb, err := Table1Faults(tinyWorkload(), false, fault.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	if tb.Rows[0].Name != "GNU Sort" || tb.Rows[0].Result.NearAccesses != 0 {
		t.Errorf("baseline row wrong: %+v", tb.Rows[0])
	}
	for i, wantRho := range []float64{2, 4, 8} {
		r := tb.Rows[i+1]
		if r.Rho != wantRho {
			t.Errorf("row %d rho = %v, want %v", i+1, r.Rho, wantRho)
		}
		if r.Result.NearAccesses == 0 {
			t.Errorf("row %d: NMsort must touch near memory", i+1)
		}
	}
	// NMsort sim time must be non-increasing in bandwidth.
	if tb.Rows[1].Result.SimTime < tb.Rows[3].Result.SimTime {
		t.Errorf("more near bandwidth slowed NMsort: %v -> %v",
			tb.Rows[1].Result.SimTime, tb.Rows[3].Result.SimTime)
	}
	// At this tiny scale the working set fits the aggregate L2, so the
	// far-traffic halving can't fully show; just require NMsort not to
	// inflate far traffic. TestClaimC3AtScale checks the real ratio.
	if f := float64(tb.Rows[1].Result.FarAccesses) / float64(tb.Rows[0].Result.FarAccesses); f > 1.1 {
		t.Errorf("NMsort far-access ratio %.2f, want <= ~1", f)
	}
	out := tb.String()
	for _, want := range []string{"Sim Time", "Scratchpad Accesses", "DRAM Accesses", "NMsort (8X)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestBandwidthSweep(t *testing.T) {
	w := tinyWorkload()
	stages := prof.NewStages()
	w.Sup = &Supervisor{Timings: stages}
	s, err := BandwidthSweep(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(s.Points))
	}
	// The baseline must be exactly ρ-insensitive — measured, not copied: the
	// sweep fills two of its three baseline cells from one replay.
	gnu, err := Record(AlgGNUSort, tinyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	requireRhoInsensitive(t, gnu.Trace, tinyWorkload().Threads, tinyWorkload().SP,
		[]machine.Result{s.Points[0].Result, s.Points[2].Result, s.Points[4].Result})
	if n := ownReplays(stages); n != 4 {
		t.Errorf("%d cells replayed, want 4: one baseline replay and three of NMsort", n)
	}
	if !strings.Contains(s.String(), "nmsort@8X") {
		t.Error("sweep output missing labels")
	}
}

// requireRhoInsensitive replays tr for real on the 2X, 4X and 8X nodes —
// three machines, no pool — and requires the three Results to agree on
// every field but the one that echoes the node, Phases[].NearChannels, and
// each to equal the sweep cell reported for its node.
func requireRhoInsensitive(t *testing.T, tr trace.Source, cores int, sp units.Bytes, cells []machine.Result) {
	t.Helper()
	sansEcho := func(res machine.Result, channels int) machine.Result {
		res.Phases = slices.Clone(res.Phases)
		for i := range res.Phases {
			if res.Phases[i].NearChannels != channels {
				t.Errorf("%d-channel node: phase %q reports %d near channels", channels, res.Phases[i].Name, res.Phases[i].NearChannels)
			}
			res.Phases[i].NearChannels = 0
		}
		return res
	}
	var first machine.Result
	for i, ch := range []int{8, 16, 32} {
		res, err := machine.New(NodeFor(cores, ch, sp)).Replay(tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.NearAccesses != 0 || res.SimTime <= 0 {
			t.Fatalf("%d-channel node: implausible control replay: %+v", ch, res)
		}
		if !reflect.DeepEqual(res, cells[i]) {
			t.Errorf("%d-channel node: the sweep's cell differs from a replay of it\n got %+v\nwant %+v", ch, cells[i], res)
		}
		if res = sansEcho(res, ch); i == 0 {
			first = res
		} else if !reflect.DeepEqual(res, first) {
			t.Errorf("the control varies with near channels: %d-channel node\n got %+v\nwant %+v", ch, res, first)
		}
	}
}

func TestCoreSweep(t *testing.T) {
	s, err := CoreSweep(tinyWorkload(), []int{8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(s.Points))
	}
	for _, p := range s.Points {
		if p.Result.SimTime <= 0 {
			t.Errorf("point %q has zero time", p.Label)
		}
	}
}

func TestAblationDMA(t *testing.T) {
	s, err := ablationDMA(tinyWorkload(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 {
		t.Fatalf("points = %d", len(s.Points))
	}
}

func TestRecordExtendedAlgorithms(t *testing.T) {
	w := tinyWorkload()
	for _, alg := range []Algorithm{AlgNMScatter, AlgParSort, AlgGNUExact} {
		r, err := Record(alg, w)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if r.Trace.Ops() == 0 {
			t.Errorf("%s: bad record result", alg)
		}
	}
}

func TestParSortSimulates(t *testing.T) {
	w := tinyWorkload()
	r, err := Record(AlgParSort, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := machine.Run(NodeFor(w.Threads, 16, w.SP), r.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.NearAccesses == 0 {
		t.Error("Theorem 10 sort must exercise the scratchpad")
	}
}

func TestClaimC3AtScale(t *testing.T) {
	// Claim C3 at a scale where runs exceed L2 shares and chunks exceed
	// the aggregate L2: NMsort's device-level far accesses must be well
	// below half of the baseline's.
	if testing.Short() {
		t.Skip("scaled workload; skipped with -short")
	}
	w := Workload{N: 1 << 17, Seed: 2015, Threads: 64, SP: units.MiB}
	gnu, err := Record(AlgGNUSort, w)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := Record(AlgNMSort, w)
	if err != nil {
		t.Fatal(err)
	}
	gres, err := machine.Run(NodeFor(w.Threads, 8, w.SP), gnu.Trace)
	if err != nil {
		t.Fatal(err)
	}
	nres, err := machine.Run(NodeFor(w.Threads, 8, w.SP), nm.Trace)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(nres.FarAccesses) / float64(gres.FarAccesses)
	if ratio > 0.5 {
		t.Errorf("NMsort far-access ratio %.2f, want < 0.5 (gnu=%d nm=%d)",
			ratio, gres.FarAccesses, nres.FarAccesses)
	}
	// And the baseline must never touch the scratchpad.
	if gres.NearAccesses != 0 {
		t.Errorf("baseline near accesses = %d", gres.NearAccesses)
	}
}

func TestRecordAllDistributions(t *testing.T) {
	// Robustness: every algorithm must sort every distribution correctly
	// (skew exercises NMsort's direct-merge fallback and the exact
	// splitter's tie handling).
	w := tinyWorkload()
	for _, d := range workload.All() {
		w.Dist = d
		for _, alg := range []Algorithm{AlgGNUSort, AlgGNUExact, AlgNMSort, AlgParSort} {
			// A recording exists only once its sort checked its output.
			if _, err := Record(alg, w); err != nil {
				t.Fatalf("%s/%s: %v", alg, d, err)
			}
		}
	}
}

func TestKMeansSweepShape(t *testing.T) {
	w := smallKMeans(Workload{})
	s, err := kmeansSweep(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 6 {
		t.Fatalf("points = %d", len(s.Points))
	}
	// Far variant must be rho-insensitive (measured on three real replays);
	// scratchpad variant must never slow down with added channels and must
	// touch near memory.
	far, err := Record(AlgKMeansFar, w)
	if err != nil {
		t.Fatal(err)
	}
	requireRhoInsensitive(t, far.Trace, w.Threads, w.SP,
		[]machine.Result{s.Points[0].Result, s.Points[2].Result, s.Points[4].Result})
	if s.Points[1].Result.NearAccesses == 0 {
		t.Error("scratchpad k-means never touched near memory")
	}
	if s.Points[5].Result.SimTime > s.Points[1].Result.SimTime {
		t.Errorf("more near bandwidth slowed scratchpad k-means: %v -> %v",
			s.Points[1].Result.SimTime, s.Points[5].Result.SimTime)
	}
}

// TestCheckClustering holds a K1 recording's output check to a well-formed
// clustering and to each way of breaking one.
func TestCheckClustering(t *testing.T) {
	const n = 8
	good := func() kmeans.Result {
		res := kmeans.Result{Assign: make([]int32, n), Iters: kmeansIters, Inertia: 1.5}
		for range kmeansK {
			res.Centroids = append(res.Centroids, make([]float64, kmeansDims))
		}
		return res
	}
	if err := checkClustering(good(), n); err != nil {
		t.Fatalf("a well-formed clustering: %v", err)
	}
	for _, tc := range []struct {
		name  string
		spoil func(r *kmeans.Result)
	}{
		{"one iteration short", func(r *kmeans.Result) { r.Iters-- }},
		{"converged", func(r *kmeans.Result) { r.Converged = true }},
		{"a point unassigned", func(r *kmeans.Result) { r.Assign = r.Assign[:n-1] }},
		{"a negative cluster", func(r *kmeans.Result) { r.Assign[3] = -1 }},
		{"a cluster past k", func(r *kmeans.Result) { r.Assign[n-1] = kmeansK }},
		{"a centroid missing", func(r *kmeans.Result) { r.Centroids = r.Centroids[:kmeansK-1] }},
		{"a coordinate missing", func(r *kmeans.Result) { r.Centroids[1] = r.Centroids[1][:kmeansDims-1] }},
		{"a NaN coordinate", func(r *kmeans.Result) { r.Centroids[2][0] = math.NaN() }},
		{"an infinite coordinate", func(r *kmeans.Result) { r.Centroids[0][kmeansDims-1] = math.Inf(-1) }},
		{"negative inertia", func(r *kmeans.Result) { r.Inertia = -1 }},
		{"NaN inertia", func(r *kmeans.Result) { r.Inertia = math.NaN() }},
		{"infinite inertia", func(r *kmeans.Result) { r.Inertia = math.Inf(1) }},
	} {
		res := good()
		tc.spoil(&res)
		if err := checkClustering(res, n); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestEventBoundHolds replays every cell of every registry row at TestRows'
// size (`sweep -n 4096 -cores 16 -sp 1`, its seeds) with no event budget and
// holds each replay to machine.EventBound of its trace, the budget a replay
// gets by default: the bound is checked here, not enforced.
func TestEventBoundHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("every row once, the kmeans row's 2^18 points included; skipped in -short")
	}
	var worst float64
	var row, worstCell string
	run := driver
	withDriver(func(sup *Supervisor, workers int, jobs []replayJob, rep []int) []replayOut {
		for i := range jobs {
			jobs[i].cfg.MaxEvents = math.MaxUint64
		}
		outs := run(sup, workers, jobs, rep)
		for i, o := range outs {
			tr := jobs[i].tr
			if bound := machine.EventBound(tr); o.err != nil || o.res.Events > bound {
				t.Errorf("%s/%s: %d events, EventBound %d (%d ops, %d threads), err %v",
					row, jobs[i].label, o.res.Events, bound, tr.Ops(), tr.Threads(), o.err)
			}
			if r := float64(o.res.Events) / float64(tr.Ops()); r > worst {
				worst, worstCell = r, row+"/"+jobs[i].label
			}
		}
		return outs
	}, func() {
		w := Workload{N: 4096, Seed: 2015, Threads: 16, SP: units.MiB}
		for _, e := range Experiments {
			row = e.Name
			if _, err := e.Run(ExperimentParams{FaultSeed: 1}, w); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
		}
	})
	if worstCell == "" {
		t.Fatal("no row replayed a cell")
	}
	t.Logf("largest: %.3f events per op (%s; the bound is 3 plus one per thread)", worst, worstCell)
}

func TestReportRenderers(t *testing.T) {
	tb, err := Table1Faults(tinyWorkload(), false, fault.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt := tb.Report()
	if len(rt.Rows) != 4 || len(rt.Columns) != 9 {
		t.Errorf("table report shape: %dx%d", len(rt.Rows), len(rt.Columns))
	}
	var buf strings.Builder
	if err := rt.Render(&buf, report.CSV); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "GNU Sort") {
		t.Error("CSV missing baseline row")
	}

	s, err := BandwidthSweep(tinyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	sr := s.Report()
	if len(sr.Rows) != 6 {
		t.Errorf("sweep report rows = %d", len(sr.Rows))
	}
	buf.Reset()
	if err := sr.Render(&buf, report.Markdown); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "| config |") {
		t.Error("markdown header missing")
	}
}

func TestAblationSmallAppendsSweep(t *testing.T) {
	s, err := ablationSmallAppends(tinyWorkload(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 {
		t.Fatalf("points = %d", len(s.Points))
	}
	if s.Points[0].Label != string(AlgNMSort) || s.Points[1].Label != string(AlgNMScatter) {
		t.Errorf("labels = %q, %q", s.Points[0].Label, s.Points[1].Label)
	}
	for _, p := range s.Points {
		if p.Result.SimTime <= 0 || p.Result.NearAccesses == 0 {
			t.Errorf("point %q implausible: %+v", p.Label, p.Result)
		}
	}
}
