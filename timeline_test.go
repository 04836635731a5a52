package repro_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// TestTimelinePhases checks that both the NMsort pipeline and the merge
// baseline attribute their full runtime to named phases, that the breakdown
// is consistent (phase durations cover the run), and that the Chrome
// trace-event export of the replay validates.
func TestTimelinePhases(t *testing.T) {
	if testing.Short() {
		t.Skip("replay workload; skipped in -short")
	}
	wantPhases := map[harness.Algorithm][]string{
		harness.AlgNMSort:  {"pivots", "p1:sort-chunks", "p2:merge-batches"},
		harness.AlgGNUSort: {"sort-runs", "merge-runs", "copy-back"},
	}
	for alg, names := range wantPhases {
		res, tel, err := harness.RunTimeline(alg, goldenWorkload(), 16, 10*units.Microsecond, fault.Config{})
		if err != nil {
			t.Fatal(err)
		}
		var chrome bytes.Buffer
		if err := tel.ExportChrome(&chrome); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.ValidateChromeJSON(chrome.Bytes()); err != nil {
			t.Errorf("%s: chrome export does not validate: %v", alg, err)
		}
		if len(res.Phases) == 0 {
			t.Fatalf("%s: replay produced no phase breakdown", alg)
		}
		got := map[string]bool{}
		var covered units.Time
		for _, p := range res.Phases {
			got[p.Name] = true
			if p.End < p.Start {
				t.Errorf("%s: phase %q ends before it starts", alg, p.Name)
			}
			covered += p.Duration()
		}
		for _, name := range names {
			if !got[name] {
				t.Errorf("%s: phase %q missing from breakdown %v", alg, name, res.Phases)
			}
		}
		if covered != res.SimTime {
			t.Errorf("%s: phases cover %v of %v simulated time", alg, covered, res.SimTime)
		}
	}
}

// TestTimelinePhasesWithoutTelemetry confirms phase attribution is
// machine-native: a plain replay (no Recorder attached) of a marker-bearing
// trace still yields the per-phase breakdown the sweep reports print.
func TestTimelinePhasesWithoutTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("replay workload; skipped in -short")
	}
	s, err := harness.CoreSweep(goldenWorkload(), []int{8})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		if len(p.Result.Phases) == 0 {
			t.Errorf("%s: no phase breakdown without telemetry", p.Label)
		}
	}
	if !strings.Contains(s.String(), "phase breakdown") {
		t.Error("sweep text report lacks the phase-breakdown section")
	}
}
