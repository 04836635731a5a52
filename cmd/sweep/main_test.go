package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/cli/clitest"
	"repro/internal/harness"
	"repro/internal/serve"
)

// The front end's tables, each run against sweep's flag list: every rejected
// line must carry a hint naming the offending flag.
func TestValidate(t *testing.T)              { clitest.Validate(t, cli.Sweep, clitest.Flags) }
func TestValidateTelemetry(t *testing.T)     { clitest.Validate(t, cli.Sweep, clitest.Telemetry) }
func TestValidateSupervision(t *testing.T)   { clitest.Validate(t, cli.Sweep, clitest.Supervision) }
func TestValidateTimelineEpoch(t *testing.T) { clitest.Validate(t, cli.Sweep, clitest.Epoch) }
func TestRunCancelled(t *testing.T)          { clitest.RunCancelled(t, cli.Sweep) }

// request parses args through sweep and builds their request.
func request(t *testing.T, args ...string) serve.SweepRequest {
	t.Helper()
	o, err := cli.Sweep.Parse(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return o.Request()
}

// TestFlaglessRequest: a flagless sweep builds the request the wire's minimal
// {"exp":"bandwidth"} means, plus the two seeds the wire leaves to the row
// (internal/serve's TestNormalizeSweepIsTheFlaglessSweep holds the other side).
func TestFlaglessRequest(t *testing.T) {
	want := serve.SweepRequest{Exp: "bandwidth", N: 1 << 20, Seed: 2015, Cores: 256, SPMiB: 8, Format: "text",
		FaultSeed: 1, RetrySeed: 1}
	if got := request(t); !reflect.DeepEqual(got, want) {
		t.Errorf("flagless request %+v, want %+v", got, want)
	}
}

// TestParseCoreList checks the -corelist entries reach the request, spaces
// trimmed.
func TestParseCoreList(t *testing.T) {
	if cc := request(t, "-exp", "cores", "-corelist", " 64, 128 ,256").CoreList; !reflect.DeepEqual(cc, []int{64, 128, 256}) {
		t.Fatalf("core list %v, want [64 128 256]", cc)
	}
}

// TestParseRatesEmpty confirms the empty flag selects the default axis.
func TestParseRatesEmpty(t *testing.T) {
	if rates := request(t, "-exp", "faults", "-fault-rates", "  ").FaultRates; rates != nil {
		t.Fatalf("blank -fault-rates = %v, want nil", rates)
	}
}

// TestRunFaultsSmall runs a tiny fault sweep end to end.
func TestRunFaultsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full replay")
	}
	out, failed := clitest.Run(t, context.Background(), cli.Sweep, "-exp", "faults", "-n", "4096", "-cores", "8",
		"-sp", "1", "-fault-rates", "1e-3")
	if failed != 0 {
		t.Fatalf("run reported %d failed cells", failed)
	}
	if !strings.Contains(out, "nmsort") || !strings.Contains(out, "gnusort") {
		t.Errorf("fault sweep output missing algorithm rows:\n%s", out)
	}
}

// TestExperimentRegistry checks the registry drives both lookup and the
// usage text: every registered experiment resolves, appears in the usage
// table with its description, and the timeline entry is present.
func TestExperimentRegistry(t *testing.T) {
	names := harness.ExperimentNames()
	if len(names) != len(harness.Experiments) {
		t.Fatalf("ExperimentNames() = %v, want %d entries", names, len(harness.Experiments))
	}
	var usage strings.Builder
	if _, err := cli.Sweep.Parse([]string{"-help"}, &usage); err == nil {
		t.Fatal("-help parsed as a run")
	}
	for _, e := range harness.Experiments {
		if got, ok := harness.FindExperiment(e.Name); !ok || got.Name != e.Name {
			t.Errorf("FindExperiment(%q) failed", e.Name)
		}
		if !strings.Contains(usage.String(), e.Name) || !strings.Contains(usage.String(), e.Desc) {
			t.Errorf("usage table missing %q:\n%s", e.Name, usage.String())
		}
	}
	if _, ok := harness.FindExperiment("timeline"); !ok {
		t.Errorf("timeline not registered: %v", names)
	}
	if _, ok := harness.FindExperiment("nope"); ok {
		t.Error("FindExperiment accepted an unknown name")
	}
}

// TestRunTimelineSmall runs a tiny timeline sweep end to end: both
// algorithms must report a phase breakdown.
func TestRunTimelineSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full replay")
	}
	out, failed := clitest.Run(t, context.Background(), cli.Sweep, "-exp", "timeline", "-n", "4096", "-cores", "8",
		"-sp", "1", "-epoch", "5us")
	if failed != 0 {
		t.Fatalf("run reported %d failed cells", failed)
	}
	for _, want := range []string{"phase breakdown", "p1:sort-chunks", "sort-runs"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline output missing %q:\n%s", want, out)
		}
	}
}

// TestRunResumeByteIdentical runs a sweep with a manifest, then resumes
// from it: the resumed report must be byte-identical and must come from
// the checkpoints (cells skip replaying, so a poisoned resume would show).
func TestRunResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full replay")
	}
	manifest := filepath.Join(t.TempDir(), "m.json")
	args := []string{"-exp", "dma", "-n", "4096", "-cores", "8", "-sp", "1", "-manifest", manifest}
	first, failed := clitest.Run(t, context.Background(), cli.Sweep, args...)
	if failed != 0 {
		t.Fatalf("first run: failed=%d", failed)
	}
	second, failed := clitest.Run(t, context.Background(), cli.Sweep, append(args, "-resume")...)
	if failed != 0 {
		t.Fatalf("resume run: failed=%d", failed)
	}
	if first != second {
		t.Errorf("resumed report differs:\n%s\nwant:\n%s", second, first)
	}
}

// TestRunCancelledStillFillsTraceCache: a sweep whose context expired before
// it began replays nothing and still records — both traces land in the
// -trace-cache directory, so the rerun (and `sweep-warm`'s set-up, which is
// exactly this) starts warm and leaves the files untouched.
func TestRunCancelledStillFillsTraceCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full replay")
	}
	dir := t.TempDir()
	args := []string{"-exp", "bandwidth", "-n", "4096", "-cores", "8", "-sp", "1", "-trace-cache", dir}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, failed := clitest.Run(t, ctx, cli.Sweep, args...); failed != 6 {
		t.Fatalf("cancelled run: failed=%d, want every cell cancelled", failed)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.nmt3"))
	if err != nil || len(files) != 2 {
		t.Fatalf("cache holds %v (err=%v), want the two traces", files, err)
	}
	stamp := func() (all []string) {
		for _, f := range files {
			fi, err := os.Stat(f)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, fmt.Sprint(fi.Size(), fi.ModTime().UnixNano()))
		}
		return all
	}
	before := stamp()
	if _, failed := clitest.Run(t, context.Background(), cli.Sweep, args...); failed != 0 {
		t.Fatalf("warm run: failed=%d", failed)
	}
	if after := stamp(); strings.Join(after, " ") != strings.Join(before, " ") {
		t.Errorf("the warm run rewrote the cache: %v, were %v", after, before)
	}
}
