package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/serve"
)

// TestValidate exercises the up-front flag validation, including the
// experiment-specific list flags.
func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = valid
	}{
		{"defaults", nil, ""},
		{"unknown experiment", []string{"-exp", "latency"}, "unknown experiment"},
		{"negative n", []string{"-n", "-5"}, "-n"},
		{"bad cores", []string{"-cores", "10"}, "-cores"},
		{"zero scratchpad", []string{"-sp", "0"}, "-sp"},
		{"bad format", []string{"-format", "yaml"}, "format"},
		{"bad corelist entry", []string{"-exp", "cores", "-corelist", "64,91"}, "core count"},
		{"empty corelist entry", []string{"-exp", "cores", "-corelist", "64,,128"}, "core count"},
		{"corelist ignored elsewhere", []string{"-exp", "dma", "-corelist", "64,91"}, ""},
		{"bad fault rate", []string{"-exp", "faults", "-fault-rates", "0.1,2"}, "fault rate"},
		{"negative fault rate", []string{"-exp", "faults", "-fault-rates", "-1e-3"}, "fault rate"},
		{"garbage fault rate", []string{"-exp", "faults", "-fault-rates", "lots"}, "fault rate"},
		{"fault rates ignored elsewhere", []string{"-exp", "cores", "-fault-rates", "9"}, ""},
		{"negative par", []string{"-par", "-2"}, "-par"},
		{"valid faults", []string{"-exp", "faults", "-fault-rates", "1e-4,1e-3", "-fault-seed", "3"}, ""},
		{"valid kmeans", []string{"-exp", "kmeans"}, ""},
		{"valid par", []string{"-par", "4"}, ""},
		// -shards is gone (DESIGN.md §10): every spelling, including the two
		// that used to be valid, is an undefined-flag usage error.
		{"bad shards", []string{"-shards", "-3"}, "-shards"},
		{"valid shards", []string{"-shards", "2"}, "-shards"},
		{"valid shards auto", []string{"-shards", "-1"}, "-shards"},
		{"valid profiles", []string{"-cpuprofile", "cpu.pprof", "-memprofile", "mem.pprof"}, ""},
		{"valid server", []string{"-server", "http://127.0.0.1:8080"}, ""},
		{"valid server with timeout", []string{"-server", "http://127.0.0.1:8080", "-job-timeout", "30s"}, ""},
		{"server bad scheme", []string{"-server", "ftp://host:1"}, "http"},
		{"server no host", []string{"-server", "http://"}, "host"},
		{"server garbage", []string{"-server", "::"}, "-server"},
		{"job-timeout without server", []string{"-job-timeout", "5s"}, "-job-timeout requires -server"},
		{"negative job-timeout", []string{"-server", "http://h:1", "-job-timeout", "-1s"}, "-job-timeout"},
		{"server conflicts manifest", []string{"-server", "http://h:1", "-manifest", "m.json"}, "-manifest"},
		{"server conflicts resume", []string{"-server", "http://h:1", "-manifest", "m.json", "-resume"}, "-manifest"},
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

// TestRunRemoteMatchesLocal is the client-parity check: the same sweep
// flags through -server against an in-process nmsimd stack print the same
// bytes and failed count as the local path.
func TestRunRemoteMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("full replay")
	}
	hs := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer hs.Close()
	args := []string{"-exp", "dma", "-n", "8192", "-cores", "16", "-sp", "1", "-seed", "7"}
	var local, remote strings.Builder
	for _, pass := range []struct {
		extra []string
		out   *strings.Builder
	}{
		{nil, &local},
		{[]string{"-server", hs.URL}, &remote},
	} {
		o, _, err := parseFlags(append(args, pass.extra...))
		if err != nil {
			t.Fatal(err)
		}
		if err := o.validate(); err != nil {
			t.Fatal(err)
		}
		failed, err := run(context.Background(), o, pass.out)
		if err != nil {
			t.Fatalf("run(%v): %v", pass.extra, err)
		}
		if failed != 0 {
			t.Fatalf("run(%v) reported %d failed cells", pass.extra, failed)
		}
	}
	if local.String() != remote.String() {
		t.Fatalf("remote report differs from local:\n--- local\n%s\n--- remote\n%s", local.String(), remote.String())
	}
}

// TestFlaglessRequest: a flagless sweep builds the request the wire's minimal
// {"exp":"bandwidth"} means, plus the two seeds the wire leaves to the row
// (internal/serve's TestNormalizeSweepIsTheFlaglessSweep holds the other side).
func TestFlaglessRequest(t *testing.T) {
	o, _, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.request()
	if err != nil {
		t.Fatal(err)
	}
	want := serve.SweepRequest{Exp: "bandwidth", N: 1 << 20, Seed: 2015, Cores: 256, SPMiB: 8, Format: "text",
		FaultSeed: 1, RetrySeed: 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flagless request %+v, want %+v", got, want)
	}
}

// TestParseCoreList checks round-tripping of the happy path.
func TestParseCoreList(t *testing.T) {
	cc, err := parseCoreList(" 64, 128 ,256")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{64, 128, 256}
	if len(cc) != len(want) {
		t.Fatalf("parseCoreList = %v, want %v", cc, want)
	}
	for i := range want {
		if cc[i] != want[i] {
			t.Fatalf("parseCoreList = %v, want %v", cc, want)
		}
	}
}

// TestParseRatesEmpty confirms the empty flag selects the default axis.
func TestParseRatesEmpty(t *testing.T) {
	rates, err := parseRates("  ")
	if err != nil || rates != nil {
		t.Fatalf("parseRates(blank) = %v, %v; want nil, nil", rates, err)
	}
}

// TestRunFaultsSmall runs a tiny fault sweep end to end through run().
func TestRunFaultsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full replay")
	}
	o, _, err := parseFlags([]string{"-exp", "faults", "-n", "4096", "-cores", "8",
		"-sp", "1", "-fault-rates", "1e-3"})
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
		t.Fatalf("run reported %d failed cells", failed)
	}
	out := b.String()
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
	usage := usageTable()
	for _, e := range harness.Experiments {
		if got, ok := harness.FindExperiment(e.Name); !ok || got.Name != e.Name {
			t.Errorf("FindExperiment(%q) failed", e.Name)
		}
		if !strings.Contains(usage, e.Name) || !strings.Contains(usage, e.Desc) {
			t.Errorf("usage table missing %q:\n%s", e.Name, usage)
		}
	}
	found := false
	for _, n := range names {
		if n == "timeline" {
			found = true
		}
	}
	if !found {
		t.Errorf("timeline not registered: %v", names)
	}
	if _, ok := harness.FindExperiment("nope"); ok {
		t.Error("FindExperiment accepted an unknown name")
	}
}

// TestDocumentedCommandsExist keeps the documents' commands runnable: every
// `go run ./…` in README.md, EXPERIMENTS.md and DESIGN.md names a directory of
// the module, every -exp=… names a registry row, and no block cites a
// one-iteration benchmark or a verbose test run as the command behind it —
// the paper's numbers come from sweep -exp rows.
func TestDocumentedCommandsExist(t *testing.T) {
	goRun := regexp.MustCompile(`go run (\./[\w./-]+)`)
	exp := regexp.MustCompile(`-exp=([\w-]+)`)
	side := regexp.MustCompile(`-benchtime[= ]1x|go test\b.*-run\b.*\s-v\b`)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			at := fmt.Sprintf("%s:%d", doc, i+1)
			for _, m := range goRun.FindAllStringSubmatch(line, -1) {
				if fi, err := os.Stat(filepath.Join("..", "..", m[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s: go run %s names no directory", at, m[1])
				}
			}
			for _, m := range exp.FindAllStringSubmatch(line, -1) {
				if _, ok := harness.FindExperiment(m[1]); !ok {
					t.Errorf("%s: -exp=%s names no registry row", at, m[1])
				}
			}
			if m := side.FindString(line); m != "" {
				t.Errorf("%s: %q is not a command behind a paper number; cite the sweep -exp row", at, m)
			}
		}
	}
}

// TestValidateTimelineEpoch covers the -epoch flag gating for -exp=timeline.
func TestValidateTimelineEpoch(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"bad epoch", []string{"-exp", "timeline", "-epoch", "10"}, "-epoch"},
		{"zero epoch", []string{"-exp", "timeline", "-epoch", "0us"}, "-epoch"},
		{"valid epoch", []string{"-exp", "timeline", "-epoch", "2us"}, ""},
		{"epoch ignored elsewhere", []string{"-exp", "cores", "-epoch", "10"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, _, err := parseFlags(tc.args)
			if err != nil {
				t.Fatal(err)
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
}

// TestRunTimelineSmall runs a tiny timeline sweep end to end: both
// algorithms must report a phase breakdown.
func TestRunTimelineSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full replay")
	}
	o, _, err := parseFlags([]string{"-exp", "timeline", "-n", "4096", "-cores", "8",
		"-sp", "1", "-epoch", "5us"})
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
		t.Fatalf("run reported %d failed cells", failed)
	}
	out := b.String()
	if !strings.Contains(out, "phase breakdown") {
		t.Errorf("timeline output missing phase breakdown:\n%s", out)
	}
	for _, phase := range []string{"p1:sort-chunks", "sort-runs"} {
		if !strings.Contains(out, phase) {
			t.Errorf("timeline output missing phase %q:\n%s", phase, out)
		}
	}
}

// TestValidateSupervision covers the supervision flags' validation rules.
func TestValidateSupervision(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"resume without manifest", []string{"-resume"}, "-resume requires -manifest"},
		{"resume with manifest", []string{"-resume", "-manifest", "m.json"}, ""},
		{"negative retries", []string{"-retries", "-1"}, "-retries"},
		{"negative timeout", []string{"-timeout", "-1s"}, "-timeout"},
		{"valid supervision", []string{"-manifest", "m.json", "-slice", "4096", "-retries", "2", "-retry-seed", "9", "-timeout", "30s"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, _, err := parseFlags(tc.args)
			if err != nil {
				t.Fatal(err)
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
	o, _, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	var first strings.Builder
	if failed, err := run(context.Background(), o, &first); err != nil || failed != 0 {
		t.Fatalf("first run: failed=%d err=%v", failed, err)
	}

	ro, _, err := parseFlags(append(args, "-resume"))
	if err != nil {
		t.Fatal(err)
	}
	var second strings.Builder
	if failed, err := run(context.Background(), ro, &second); err != nil || failed != 0 {
		t.Fatalf("resume run: failed=%d err=%v", failed, err)
	}
	if first.String() != second.String() {
		t.Errorf("resumed report differs:\n%s\nwant:\n%s", second.String(), first.String())
	}
}

// TestRunCancelled: a pre-cancelled context still yields a report, with
// every cell marked cancelled and counted as failed.
func TestRunCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("full replay")
	}
	o, _, err := parseFlags([]string{"-exp", "dma", "-n", "4096", "-cores", "8", "-sp", "1"})
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
		t.Fatal("cancelled run reported no failed cells")
	}
	if !strings.Contains(b.String(), "[cancelled]") {
		t.Errorf("report missing cancelled marks:\n%s", b.String())
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
	o, _, err := parseFlags([]string{"-exp", "bandwidth", "-n", "4096", "-cores", "8", "-sp", "1", "-trace-cache", dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var cold strings.Builder
	if failed, err := run(ctx, o, &cold); err != nil || failed != 6 {
		t.Fatalf("cancelled run: failed=%d err=%v, want every cell cancelled", failed, err)
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
	var warm strings.Builder
	if failed, err := run(context.Background(), o, &warm); err != nil || failed != 0 {
		t.Fatalf("warm run: failed=%d err=%v", failed, err)
	}
	if after := stamp(); strings.Join(after, " ") != strings.Join(before, " ") {
		t.Errorf("the warm run rewrote the cache: %v, were %v", after, before)
	}
}
