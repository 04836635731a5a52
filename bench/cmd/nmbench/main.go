// Command nmbench is the repository's one yardstick: it builds the four
// binaries a user runs (nmsim, sweep, nmtrace, nmsimd), drives four
// workloads through their flags and the daemon's HTTP wire format only,
// checks every output for correctness, and prints every metric named in
// the root BENCHMARK.json with its unit. It imports nothing from
// repro/internal, so a refactor there cannot break the yardstick; the
// per-layer ledger (-trace 1) comes from a separately built probe,
// bench/_layers, whose failure to compile or run yields null metrics with
// a reason and leaves the end-to-end numbers and the exit code alone.
//
// Usage (from the repository root, or any directory below it):
//
//	bash bench/run.sh -workload table1-cold -seed 2015 -seconds 12 -trace 0
//	go run -C bench ./cmd/nmbench -seed 2015            # all four workloads
//	go run -C bench ./cmd/nmbench -seed 2015 -trace 1   # the per-layer ledger
//
// The last line of standard output is one JSON object with exactly the keys
// correct, attempted, failed and metrics (per workload when several run).
// The exit code is 0 unless a set-up step or a correctness check failed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// spec mirrors the root BENCHMARK.json, the single source of the metric and
// workload names nmbench emits.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// metric is one reported value; a nil Value marshals as null (a probe that
// could not produce it).
type metric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// result is what one workload run reports. The contract line printed last
// carries only Correct, Attempted, Failed and Metrics; the rest goes to the
// readable report and bench/out/result-*.json.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Host      hostInfo           `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Detail    map[string]float64 `json:"detail,omitempty"`
	Samples   map[string]int     `json:"samples,omitempty"`
	SimDigest string             `json:"sim_digest,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

// hostInfo records where and on what the numbers were taken.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	N          int    `json:"n"`     // keys for the three CLI workloads; serve-mix uses N/8
	Cores      int    `json:"cores"` // simulated cores for the CLI workloads; serve-mix uses Cores/4
}

// bench is one invocation's environment.
type bench struct {
	ctx  context.Context
	root string // checkout root: the directory holding BENCHMARK.json
	bin  string // built binaries
	run  string // this invocation's scratch directory, removed on exit
	out  string // bench/out: span files and result files
	spec spec
	reps int // 0 = repeat until Seconds have passed, at least twice
	hostInfo
}

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "all", "workload to run: all or a name from BENCHMARK.json")
	seed := flag.Uint64("seed", 2015, "seed for every generated input")
	seconds := flag.Int("seconds", 12, "length of one timed region, in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics with tracing off, 1 = the per-layer ledger from a traced in-process run")
	reps := flag.Int("reps", 0, "repetitions of a CLI workload's unit (0 = until -seconds have passed, at least 2)")
	n := flag.Int("n", 1<<20, "keys sorted by the CLI workloads (serve-mix sorts n/8)")
	cores := flag.Int("cores", 256, "simulated cores of the CLI workloads (serve-mix uses cores/4)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	b, err := newBench(ctx, *seed, *seconds, *reps, *n, *cores)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nmbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(b.run)

	var names []string
	for _, w := range b.spec.Workloads {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "nmbench: unknown workload %q\n", *workload)
		return 2
	}

	code := 0
	var lines []string
	for _, name := range names {
		res, err := b.runOne(name, *trace == 1)
		if err != nil {
			// Set-up failed: there is nothing to report for this workload.
			fmt.Fprintf(os.Stderr, "nmbench: %s: %v\n", name, err)
			return 1
		}
		b.print(res)
		if err := b.save(res); err != nil {
			fmt.Fprintf(os.Stderr, "nmbench: %v\n", err)
		}
		if !res.Correct {
			code = 1
		}
		line, _ := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		lines = append(lines, string(line))
	}
	fmt.Println(strings.Join(lines, "\n"))
	return code
}

// newBench locates the checkout, reads BENCHMARK.json and prepares the
// scratch directories under .bench_build.
func newBench(ctx context.Context, seed uint64, seconds, reps, n, cores int) (*bench, error) {
	if seconds < 1 || reps < 0 || n < 1024 || cores < 16 || cores%16 != 0 {
		return nil, fmt.Errorf("need -seconds >= 1, -reps >= 0, -n >= 1024 and -cores a positive multiple of 16")
	}
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	b := &bench{ctx: ctx, root: root, reps: reps,
		bin: filepath.Join(root, ".bench_build", "bin"),
		out: filepath.Join(root, "bench", "out"),
		hostInfo: hostInfo{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(root), Seed: seed, Seconds: seconds, N: n, Cores: cores,
		},
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &b.spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, dir := range []string{b.bin, b.out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	if b.run, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-"); err != nil {
		return nil, err
	}
	return b, nil
}

// findRoot walks up from the working directory to the directory that holds
// BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// commit names the measured commit, or "unknown" outside a git checkout.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown" // git would otherwise answer for some enclosing repository
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runOne runs one workload — its end-to-end measurement, or with trace the
// per-layer ledger — and shapes the outcome into the names BENCHMARK.json
// lists, so the emitted key set always equals the file's.
func (b *bench) runOne(name string, trace bool) (*result, error) {
	res := &result{Workload: name, Trace: trace, Host: b.hostInfo, Metrics: map[string]metric{}}
	if trace {
		b.ledger(res)
		return res, nil
	}
	o, err := b.workloads()[name](b)
	if err != nil {
		return nil, err
	}
	vals := o.endToEnd()
	for _, m := range b.spec.EndToEnd {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("no finite value for end-to-end metric %s", m.Name)
		}
		res.Metrics[m.Name] = metric{Value: &v, Unit: m.Unit}
	}
	res.Attempted, res.Failed = o.attempted, o.failed
	res.Correct = o.failed == 0 && o.attempted > 0
	o.detail["failed_share"] = float64(o.failed) / math.Max(1, float64(o.attempted))
	res.Detail, res.Samples, res.SimDigest, res.Notes = o.detail, o.samples, o.digest, o.notes
	return res, nil
}

// print writes the readable report: host, every metric by name with its
// unit, the workload-specific detail, and the notes.
func (b *bench) print(res *result) {
	h := res.Host
	fmt.Printf("# nmbench workload=%s trace=%v seed=%d seconds=%d n=%d cores=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		res.Workload, res.Trace, h.Seed, h.Seconds, h.N, h.Cores, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		if m.Value == nil {
			fmt.Printf("%-34s %16s %s\n", name, "null", m.Unit)
		} else {
			fmt.Printf("%-34s %16.6g %s\n", name, *m.Value, m.Unit)
		}
	}
	for _, name := range sortedKeys(res.Detail) {
		fmt.Printf("  %-32s %16.6g\n", name, res.Detail[name])
	}
	for _, name := range sortedKeys(res.Samples) {
		fmt.Printf("  samples.%-24s %16d\n", name, res.Samples[name])
	}
	if res.SimDigest != "" {
		fmt.Printf("  sim_digest %s\n", res.SimDigest)
	}
	for _, note := range res.Notes {
		fmt.Printf("  note: %s\n", note)
	}
}

// save writes the full result beside the span files.
func (b *bench) save(res *result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	kind := "e2e"
	if res.Trace {
		kind = "layers"
	}
	return os.WriteFile(filepath.Join(b.out, fmt.Sprintf("result-%s-%s.json", res.Workload, kind)), append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
