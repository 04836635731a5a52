package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/cli/clitest"
	"repro/internal/telemetry"
)

// The front end's tables, each run against nmsim's flag list: every rejected
// line must carry a hint naming the offending flag.
func TestValidate(t *testing.T)              { clitest.Validate(t, cli.NMSim, clitest.Flags) }
func TestValidateTelemetry(t *testing.T)     { clitest.Validate(t, cli.NMSim, clitest.Telemetry) }
func TestValidateSupervision(t *testing.T)   { clitest.Validate(t, cli.NMSim, clitest.Supervision) }
func TestValidateTimelineEpoch(t *testing.T) { clitest.Validate(t, cli.NMSim, clitest.Epoch) }
func TestRunCancelled(t *testing.T)          { clitest.RunCancelled(t, cli.NMSim) }

// TestParseFlagsUnknown confirms unknown flags fail at parse time.
func TestParseFlagsUnknown(t *testing.T) {
	args := []string{"-frobnicate"}
	if _, err := cli.NMSim.Parse(args, io.Discard); err == nil {
		t.Fatalf("Parse(%v) = nil, want error", args)
	}
}

// TestFaultConfigDisabled confirms -fault-rate 0 yields a disabled config
// regardless of the seed, preserving the fault-free default path.
func TestFaultConfigDisabled(t *testing.T) {
	o, err := cli.NMSim.Parse([]string{"-fault-seed", "7"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if fc := o.Request().Params().Fault; fc.Enabled() {
		t.Fatalf("Params().Fault = %+v, want disabled at rate 0", fc)
	}
}

// TestRunSmall runs a tiny workload end to end: Table I alone, no
// telemetry phase table without an export flag.
func TestRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full replay")
	}
	out, failed := clitest.Run(t, context.Background(), cli.NMSim, "-n", "4096", "-cores", "8", "-sp", "1", "-fault-rate", "1e-3")
	if failed != 0 {
		t.Fatalf("run reported %d failed replays", failed)
	}
	if !strings.Contains(out, "NMsort") || strings.Contains(out, "timeline") {
		t.Errorf("want NMsort rows and no phase table:\n%s", out)
	}
}

// TestRunTelemetrySmall runs a tiny workload with both exporters on and
// checks the files land and the trace validates.
func TestRunTelemetrySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full replay")
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "out.trace.json")
	csvPath := filepath.Join(dir, "out.csv")
	out, failed := clitest.Run(t, context.Background(), cli.NMSim, "-n", "4096", "-cores", "8", "-sp", "1",
		"-telemetry-out", tracePath, "-telemetry-csv", csvPath, "-telemetry-epoch", "5us")
	if failed != 0 {
		t.Fatalf("run reported %d failed replays", failed)
	}
	if !strings.Contains(out, "timeline") {
		t.Errorf("output missing phase table:\n%s", out)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateChromeJSON(raw); err != nil {
		t.Errorf("exported trace does not validate: %v", err)
	}
	csvRaw, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csvRaw), "t_ps,") {
		t.Errorf("csv export lacks header: %q", string(csvRaw[:40]))
	}
}
