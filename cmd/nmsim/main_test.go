package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

// TestValidate exercises the up-front flag validation: every rejected
// combination must carry a hint naming the offending flag.
func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = valid
	}{
		{"defaults", nil, ""},
		{"negative n", []string{"-n", "-1"}, "-n"},
		{"zero cores", []string{"-cores", "0"}, "-cores"},
		{"negative cores", []string{"-cores", "-8"}, "-cores"},
		{"cores not multiple of 4", []string{"-cores", "6"}, "-cores"},
		{"zero scratchpad", []string{"-sp", "0"}, "-sp"},
		{"negative scratchpad", []string{"-sp", "-2"}, "-sp"},
		{"negative fault rate", []string{"-fault-rate", "-0.5"}, "-fault-rate"},
		{"fault rate above one", []string{"-fault-rate", "1.5"}, "-fault-rate"},
		{"bad format", []string{"-format", "xml"}, "format"},
		{"bad distribution", []string{"-dist", "bimodal"}, "bimodal"},
		{"negative par", []string{"-par", "-1"}, "-par"},
		{"valid faults", []string{"-fault-rate", "1e-4", "-fault-seed", "9"}, ""},
		{"valid zipf csv", []string{"-dist", "zipf", "-format", "csv"}, ""},
		{"valid par", []string{"-par", "8"}, ""},
		{"valid par auto", []string{"-par", "0"}, ""},
		// -shards is gone (DESIGN.md §10): every spelling, including the two
		// that used to be valid, is an undefined-flag usage error.
		{"bad shards", []string{"-shards", "-2"}, "-shards"},
		{"valid shards", []string{"-shards", "4"}, "-shards"},
		{"valid shards auto", []string{"-shards", "-1"}, "-shards"},
		{"valid profiles", []string{"-cpuprofile", "cpu.pprof", "-memprofile", "mem.pprof"}, ""},
		{"valid server", []string{"-server", "http://127.0.0.1:8080"}, ""},
		{"valid server with timeout", []string{"-server", "http://127.0.0.1:8080", "-job-timeout", "1m"}, ""},
		{"server bad scheme", []string{"-server", "unix:///tmp/s"}, "http"},
		{"server no host", []string{"-server", "https://"}, "host"},
		{"job-timeout without server", []string{"-job-timeout", "5s"}, "-job-timeout requires -server"},
		{"negative job-timeout", []string{"-server", "http://h:1", "-job-timeout", "-1s"}, "-job-timeout"},
		{"server conflicts telemetry", []string{"-server", "http://h:1", "-telemetry-out", "t.json"}, "-telemetry-out"},
		{"server conflicts telemetry csv", []string{"-server", "http://h:1", "-telemetry-csv", "t.csv"}, "-telemetry-out"},
		{"server zero n", []string{"-server", "http://h:1", "-n", "0"}, "-n 0"},
		{"server zero seed", []string{"-server", "http://h:1", "-seed", "0"}, "-seed 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// main exits 2 (usage) on a parse error and on a validate
			// error alike, so the table treats them as one outcome.
			o, _, err := parseFlags(tc.args)
			if err == nil {
				err = o.validate()
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate(%v) = %v, want nil", tc.args, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate(%v) = nil, want error mentioning %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("validate(%v) = %q, want mention of %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestParseFlagsUnknown confirms unknown flags fail at parse time.
func TestParseFlagsUnknown(t *testing.T) {
	fs := []string{"-frobnicate"}
	if _, _, err := parseFlags(fs); err == nil {
		t.Fatalf("parseFlags(%v) = nil, want error", fs)
	}
}

// TestFaultConfigDisabled confirms -fault-rate 0 yields a disabled config
// regardless of the seed, preserving the fault-free default path.
func TestFaultConfigDisabled(t *testing.T) {
	o, _, err := parseFlags([]string{"-fault-seed", "7"})
	if err != nil {
		t.Fatal(err)
	}
	if fc := o.req.Params().Fault; fc.Enabled() {
		t.Fatalf("Params().Fault = %+v, want disabled at rate 0", fc)
	}
}

// TestRunSmall runs a tiny workload end to end through run().
func TestRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full replay")
	}
	o, _, err := parseFlags([]string{"-n", "4096", "-cores", "8", "-sp", "1", "-fault-rate", "1e-3"})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	failed, err := run(context.Background(), o, &b)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if failed != 0 {
		t.Fatalf("run reported %d failed replays", failed)
	}
	if !strings.Contains(b.String(), "NMsort") {
		t.Errorf("output missing NMsort rows:\n%s", b.String())
	}
}

// TestValidateTelemetry covers the telemetry flag family: the epoch must be
// a positive unit-suffixed duration, and either output flag switches the
// telemetry replay on.
func TestValidateTelemetry(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"bad epoch", []string{"-telemetry-out", "x.json", "-telemetry-epoch", "10"}, "-telemetry-epoch"},
		{"zero epoch", []string{"-telemetry-out", "x.json", "-telemetry-epoch", "0ns"}, "-telemetry-epoch"},
		{"negative epoch", []string{"-telemetry-csv", "x.csv", "-telemetry-epoch", "-5us"}, "-telemetry-epoch"},
		{"valid chrome", []string{"-telemetry-out", "x.json", "-telemetry-epoch", "50us"}, ""},
		{"valid csv only", []string{"-telemetry-csv", "x.csv"}, ""},
		{"epoch ignored when off", []string{"-telemetry-epoch", "10"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, _, err := parseFlags(tc.args)
			if err != nil {
				t.Fatalf("parseFlags(%v): %v", tc.args, err)
			}
			err = o.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate(%v) = %v, want nil", tc.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate(%v) = %v, want mention of %q", tc.args, err, tc.wantErr)
			}
		})
	}

	o, _, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.telemetry() {
		t.Error("telemetry() = true with no output flags")
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
	o, _, err := parseFlags([]string{"-n", "4096", "-cores", "8", "-sp", "1",
		"-telemetry-out", tracePath, "-telemetry-csv", csvPath, "-telemetry-epoch", "5us"})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	failed, err := run(context.Background(), o, &b)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if failed != 0 {
		t.Fatalf("run reported %d failed replays", failed)
	}
	if !strings.Contains(b.String(), "timeline") {
		t.Errorf("output missing phase table:\n%s", b.String())
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

// TestRunCancelled: a pre-cancelled context still writes the table, with
// every replay marked cancelled and counted as failed.
func TestRunCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("full replay")
	}
	o, _, err := parseFlags([]string{"-n", "4096", "-cores", "8", "-sp", "1"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var b strings.Builder
	failed, err := run(ctx, o, &b)
	if err != nil {
		t.Fatalf("cancelled run must still report: %v", err)
	}
	if failed == 0 {
		t.Fatal("cancelled run reported no failed replays")
	}
	if !strings.Contains(b.String(), "[cancelled]") {
		t.Errorf("table missing cancelled marks:\n%s", b.String())
	}
}

// countingRecords is a RecordCache that never answers and counts the
// recordings that reach it: one CompleteRecord per recording performed.
type countingRecords struct {
	mu        sync.Mutex
	completed map[harness.Algorithm]int
}

func (c *countingRecords) LookupRecord(harness.Algorithm, harness.Workload) (harness.RecordResult, bool) {
	return harness.RecordResult{}, false
}

func (c *countingRecords) CompleteRecord(alg harness.Algorithm, _ harness.Workload, _ harness.RecordResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.completed == nil {
		c.completed = make(map[harness.Algorithm]int)
	}
	c.completed[alg]++
}

// TestTelemetryRecordsEachTraceOnce: the telemetry replay follows Table I
// under the same supervisor and replays a trace Table I already recorded.
// The supervisor's record memo records each (algorithm, RecordKey) once;
// stdout and both exports are the bytes of a run handed a nil supervisor,
// whose Table I and telemetry replay each get a zero one of their own and so
// record NMsort twice.
func TestTelemetryRecordsEachTraceOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full replay")
	}
	export := func(dir string) (options, []string) {
		paths := []string{filepath.Join(dir, "out.trace.json"), filepath.Join(dir, "out.csv")}
		o, _, err := parseFlags([]string{"-n", "4096", "-cores", "8", "-sp", "1", "-par", "1",
			"-telemetry-out", paths[0], "-telemetry-csv", paths[1], "-telemetry-epoch", "5us"})
		if err != nil {
			t.Fatal(err)
		}
		if err := o.validate(); err != nil {
			t.Fatal(err)
		}
		return o, paths
	}

	o, paths := export(t.TempDir())
	sup, err := supervisor(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if sup.Records != nil {
		t.Fatalf("without -trace-cache the run's RecordCache is %T, want none", sup.Records)
	}
	counts := &countingRecords{}
	sup.Records = counts
	var got strings.Builder
	if failed, err := runLocal(o, sup, &got); err != nil || failed != 0 {
		t.Fatalf("supervised run: failed=%d err=%v", failed, err)
	}
	if len(counts.completed) != 2 {
		t.Errorf("recorded %v, want gnusort and nmsort", counts.completed)
	}
	for alg, n := range counts.completed {
		if n != 1 {
			t.Errorf("%s recorded %d times, want once", alg, n)
		}
	}

	plain, plainPaths := export(t.TempDir())
	var want strings.Builder
	if _, err := runLocal(plain, nil, &want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("stdout differs from the memo-less run's:\n%s\nwant:\n%s", got.String(), want.String())
	}
	for i := range paths {
		g, err := os.ReadFile(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(plainPaths[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from the memo-less run's", filepath.Base(paths[i]))
		}
	}
}
