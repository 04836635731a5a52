package repro_test

// Allocation pins of the replay kernel. Machine construction allocates
// (cores, channels, the pre-sized event queue), but the steady state —
// schedule, dispatch, heap maintenance, the fault, DMA and telemetry
// branches — must not: the event queue stores events unboxed, per-core
// callbacks are bound once at setup, and post-to-memory carriers recycle
// through a free list. So a replay's malloc count is a constant of its
// setup, and the test pins it exactly, per replay mode, in
// testdata/replay_allocs.golden. One allocation more on any path a pinned
// replay runs — once per replay or once per event — moves a count.

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/units"
)

const allocsGolden = "testdata/replay_allocs.golden"

// allocMode is one pinned replay: a recording of alg at goldenWorkload on
// the 4X node, configured by setup before each replay (a Recorder attaches
// to one machine only, so it is made per replay).
type allocMode struct {
	name  string
	alg   harness.Algorithm
	setup func(cfg *machine.Config)
	check func(t *testing.T, cfg machine.Config, res machine.Result) // the branch the mode exists for was taken
}

var allocModes = []allocMode{
	{name: "nmsort", alg: harness.AlgNMSort},
	{name: "gnusort", alg: harness.AlgGNUSort},
	{name: "nmsort-scatter", alg: harness.AlgNMScatter}, // the one recording with atomics
	{name: "nmsort-dma", alg: harness.AlgNMSortDM,
		check: func(t *testing.T, cfg machine.Config, res machine.Result) {
			if res.DMACopies == 0 {
				t.Error("the DMA replay issued no copy")
			}
		}},
	{name: "faults", alg: harness.AlgNMSort,
		setup: func(cfg *machine.Config) { cfg.Fault = faultsCell() },
		check: func(t *testing.T, cfg machine.Config, res machine.Result) {
			f := res.Faults
			if f.FarCorrected == 0 || f.FarRetries == 0 || f.MemFaults == 0 || f.NearDegraded == 0 || f.NoCRetransmits == 0 {
				t.Errorf("the faults replay missed a fault path: %+v", f)
			}
		}},
	{name: "telemetry-idle", alg: harness.AlgNMSort,
		setup: func(cfg *machine.Config) { cfg.Telemetry = telemetry.New(units.Time(1) << 60) }},
	{name: "telemetry-active", alg: harness.AlgNMSortDM,
		setup: func(cfg *machine.Config) {
			cfg.Fault = faultsCell()
			cfg.Telemetry = telemetry.New(units.Microsecond)
		},
		check: func(t *testing.T, cfg machine.Config, res machine.Result) {
			if cfg.Telemetry.Samples() < 2 {
				t.Error("the active telemetry replay took fewer than two samples")
			}
		}},
}

// faultsCell corrects, retries and ends in a MemFault on the golden
// workload, and degrades about half of the near channels' windows.
func faultsCell() fault.Config {
	fc := fault.Profile(99, 2e-2)
	fc.DegradeProb = 0.5
	return fc
}

// TestReplayAllocs replays each mode and compares its exact malloc count
// with the golden line for this GOARCH. On a mismatch it writes what it
// saw to testdata/replay_allocs.golden.new: a deliberate move is a mv that
// review sees.
func TestReplayAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("replay workload; skipped in -short")
	}
	want, lines := readAllocsGolden(t)
	// A collection empties sync.Pool, and fmt's printer state would then
	// count as an allocation of whichever replay ran next.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w := goldenWorkload()
	recs := map[harness.Algorithm]*harness.RecordResult{}
	got := map[string]uint64{}
	for _, m := range allocModes {
		rec := recs[m.alg]
		if rec == nil {
			r, err := harness.Record(m.alg, w)
			if err != nil {
				t.Fatal(err)
			}
			rec = &r
			recs[m.alg] = rec
		}
		replay := func() (machine.Config, machine.Result) {
			cfg := harness.NodeFor(w.Threads, 16, w.SP)
			if m.setup != nil {
				m.setup(&cfg)
			}
			res, err := machine.Run(cfg, rec.Trace)
			var mf *fault.MemFaultError
			if err != nil && !errors.As(err, &mf) {
				t.Fatal(err)
			}
			return cfg, res
		}
		if m.check != nil {
			cfg, res := replay()
			m.check(t, cfg, res)
		}
		got[m.name] = uint64(testing.AllocsPerRun(2, func() { replay() }))
	}
	key := runtime.GOARCH
	if _, ok := want[key]; !ok {
		t.Skipf("%s has no pins for %s; measured %v", allocsGolden, key, got)
	}
	drift := false
	for _, m := range allocModes {
		if w, ok := want[key][m.name]; !ok || w != got[m.name] {
			t.Errorf("%s/%s: one replay allocates %d times, golden says %d", key, m.name, got[m.name], w)
			drift = true
		}
	}
	if !drift {
		return
	}
	var b strings.Builder
	written := map[string]bool{}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 3 && f[0] == key {
			if n, ok := got[f[1]]; ok {
				fmt.Fprintf(&b, "%s %s %d\n", key, f[1], n)
				written[f[1]] = true
			}
			continue
		}
		fmt.Fprintln(&b, l)
	}
	for _, m := range allocModes {
		if !written[m.name] {
			fmt.Fprintf(&b, "%s %s %d\n", key, m.name, got[m.name])
		}
	}
	if err := os.WriteFile(allocsGolden+".new", []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s.new; if the change is deliberate, mv it over %s", allocsGolden, allocsGolden)
}

// readAllocsGolden parses "goarch mode mallocs" lines ('#' lines are
// comments) and returns them by GOARCH and mode, with the file's lines.
func readAllocsGolden(t *testing.T) (map[string]map[string]uint64, []string) {
	t.Helper()
	f, err := os.Open(allocsGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pins := map[string]map[string]uint64{}
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		l := sc.Text()
		lines = append(lines, l)
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		fs := strings.Fields(l)
		if len(fs) != 3 {
			t.Fatalf("%s: malformed line %q", allocsGolden, l)
		}
		n, err := strconv.ParseUint(fs[2], 10, 64)
		if err != nil {
			t.Fatalf("%s: %q: %v", allocsGolden, l, err)
		}
		if pins[fs[0]] == nil {
			pins[fs[0]] = map[string]uint64{}
		}
		pins[fs[0]][fs[1]] = n
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pins, lines
}
