package cli

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/serve"
)

// TestFlags pins each command's flag names and defaults to the ones the
// commands had before they shared a front end (their -help).
func TestFlags(t *testing.T) {
	for _, tc := range []struct {
		c    Command
		want string
	}{
		{NMSim, "cores=256 cpuprofile= dist=uniform dma=false fault-rate=0 fault-seed=1 format=text job-timeout=0s " +
			"memprofile= n=1048576 par=0 seed=2015 server= sp=2 telemetry-csv= telemetry-epoch=10us " +
			"telemetry-out= timings=false trace-cache="},
		{Sweep, "corelist=64,128,192,256 cores=256 cpuprofile= epoch=10us exp=bandwidth fault-rates= fault-seed=1 " +
			"format=text job-timeout=0s manifest= memprofile= n=1048576 par=0 resume=false retries=0 retry-seed=1 " +
			"seed=2015 server= sp=8 timeout=0s timings=false trace-cache="},
	} {
		var got []string
		tc.c.flagSet(new(Options), io.Discard).VisitAll(func(f *flag.Flag) {
			got = append(got, f.Name+"="+f.DefValue)
		})
		if g := strings.Join(got, " "); g != tc.want {
			t.Errorf("%s flags:\n got %s\nwant %s", tc.c.Name, g, tc.want)
		}
	}
}

// TestDocumentedCommandsExist keeps the documents' commands runnable: every
// `go run ./…` in README.md, EXPERIMENTS.md and DESIGN.md names a directory of
// the module, every -exp=… names a registry row, every nmsim or sweep command
// line (`\` continuations joined) parses and validates through that command's
// flag list (-help included), and no block cites a one-iteration benchmark or a verbose test
// run as the command behind it — the paper's numbers come from sweep -exp rows.
// The Usage: lines of cmd/nmsim's and cmd/sweep's doc comments name only
// flags their command has.
func TestDocumentedCommandsExist(t *testing.T) {
	goRun := regexp.MustCompile(`go run (\./[\w./-]+)`)
	front := regexp.MustCompile("go run \\./cmd/(nmsim|sweep)\\b([^`#]*)")
	exp := regexp.MustCompile(`-exp=([\w-]+)`)
	side := regexp.MustCompile(`-benchtime[= ]1x|go test\b.*-run\b.*\s-v\b`)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		for i, line := range lines {
			at := fmt.Sprintf("%s:%d", doc, i+1)
			for _, m := range goRun.FindAllStringSubmatch(line, -1) {
				if fi, err := os.Stat(filepath.Join("..", "..", m[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s: go run %s names no directory", at, m[1])
				}
			}
			for _, m := range front.FindAllStringSubmatch(line, -1) {
				args := m[2]
				for j := i + 1; strings.HasSuffix(strings.TrimSpace(args), `\`) && j < len(lines); j++ {
					next := lines[j] + "`"
					args = strings.TrimSuffix(strings.TrimSpace(args), `\`) + " " + next[:strings.IndexAny(next, "`#")]
				}
				c := map[string]Command{"nmsim": NMSim, "sweep": Sweep}[m[1]]
				fields := strings.Fields(args)
				if _, err := c.Parse(fields, io.Discard); err != nil && err != flag.ErrHelp {
					t.Errorf("%s: %s %s: %v", at, m[1], strings.Join(fields, " "), err)
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
	// Each command's doc comment: every -flag its Usage: lines name is one
	// of its flags.
	usageFlag := regexp.MustCompile(`(?:^|[\s\[])-(\w[\w-]*)`)
	for _, c := range []Command{NMSim, Sweep} {
		path := filepath.Join("cmd", c.Name, "main.go")
		raw, err := os.ReadFile(filepath.Join("..", "..", path))
		if err != nil {
			t.Fatal(err)
		}
		_, usage, ok := strings.Cut(string(raw), "// Usage:\n//\n")
		if !ok {
			t.Errorf("%s: no Usage: block in the doc comment", path)
			continue
		}
		fs := c.flagSet(new(Options), io.Discard)
		for _, line := range strings.Split(usage, "\n") {
			if !strings.HasPrefix(line, "//\t") {
				break
			}
			for _, m := range usageFlag.FindAllStringSubmatch(line, -1) {
				if fs.Lookup(m[1]) == nil {
					t.Errorf("%s: usage line %q names -%s, which %s does not have", path, strings.TrimPrefix(line, "//\t"), m[1], c.Name)
				}
			}
		}
	}
}

// TestRunRemoteMatchesLocal is the client-parity check for both commands: the
// same flags through -server against an in-process nmsimd stack print the
// same bytes and failed count as the local path.
func TestRunRemoteMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("full replay")
	}
	hs := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer hs.Close()
	for _, tc := range []struct {
		c    Command
		args string
	}{
		{NMSim, "-n 4096 -cores 8 -sp 1 -seed 7"},
		{Sweep, "-exp=bandwidth -n 4096 -cores 8 -sp 1 -seed 7"},
	} {
		var out [2]strings.Builder
		var failed [2]int
		for i, extra := range [][]string{nil, {"-server", hs.URL}} {
			o, err := tc.c.Parse(append(strings.Fields(tc.args), extra...), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if failed[i], err = o.Run(context.Background(), &out[i]); err != nil {
				t.Fatalf("%s %v: %v", tc.c.Name, extra, err)
			}
		}
		if out[0].String() != out[1].String() || failed[0] != failed[1] {
			t.Errorf("%s: remote report (%d failed) differs from local (%d failed):\n--- local\n%s\n--- remote\n%s",
				tc.c.Name, failed[1], failed[0], out[0].String(), out[1].String())
		}
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

// TestTelemetryRecordsEachTraceOnce: nmsim's telemetry replay follows Table I
// under the same supervisor and replays a trace Table I already recorded.
// The supervisor's record memo records each (algorithm, RecordKey) once;
// stdout and both exports are the bytes of a run handed a nil supervisor,
// whose Table I and telemetry replay each get a zero one of their own and so
// record NMsort twice.
func TestTelemetryRecordsEachTraceOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full replay")
	}
	export := func(dir string) (*Options, []string) {
		paths := []string{filepath.Join(dir, "out.trace.json"), filepath.Join(dir, "out.csv")}
		o, err := NMSim.Parse([]string{"-n", "4096", "-cores", "8", "-sp", "1", "-par", "1",
			"-telemetry-out", paths[0], "-telemetry-csv", paths[1], "-telemetry-epoch", "5us"}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return o, paths
	}

	o, paths := export(t.TempDir())
	sup, _, err := o.supervisor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sup.Records != nil {
		t.Fatalf("without -trace-cache the run's RecordCache is %T, want none", sup.Records)
	}
	counts := &countingRecords{}
	sup.Records = counts
	var got strings.Builder
	if failed, err := o.runLocal(sup, &got); err != nil || failed != 0 {
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
	if _, err := plain.runLocal(nil, &want); err != nil {
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
