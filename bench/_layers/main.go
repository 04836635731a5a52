// Command layers (built as nmprobe) is the traced in-process run behind
// nmbench -trace 1: it calls the exported functions of each layer of
// repro/internal directly, wraps every call in a span, and prints the
// per-layer ledger as one JSON object. It is the only part of the benchmark
// that imports repro/internal, and it is built on its own: when a refactor
// breaks it, nmbench reports the ledger as null and carries on.
//
// The ledger has five sections. Three run at the CLI workloads' size (-n,
// -cores): the Table I pipeline under a CPU profile, the trace storage
// round trip, and the disk record cache. Two run at serve-mix's size (n/8,
// cores/4), where a replay takes a fraction of a second: the ratio probes
// that need several replays each (v3 against memory, shards against
// sequential, -par against sequential), the daemon's API in process, and
// the cost of tracing itself. Span files go to <out>/spans-<section>.json.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/harness"
	"repro/internal/units"
)

// ledger collects the probe's output.
type ledger struct {
	n, cores int
	seed     uint64
	out      string // span files
	scratch  string // temporary trace files
	nmsim    string // the built nmsim, for bench.inproc_over_child

	metrics   map[string]float64
	reasons   map[string]string // why a metric is deliberately absent
	failures  []string          // sections that died; their metrics are absent
	attempted int               // checks of simulated results made
	failed    int
	digest    hash.Hash // every simulated statistic seen

	// The CLI-size recordings, shared by the sections after the first.
	gnu, nm harness.RecordResult
}

func (l *ledger) set(name string, v float64) { l.metrics[name] = v }

// check counts one verification of a simulated result.
func (l *ledger) check(ok bool, format string, args ...any) {
	l.attempted++
	if !ok {
		l.failed++
		fmt.Fprintf(os.Stderr, "nmprobe: FAIL: "+format+"\n", args...)
	}
}

// multiCPU gates the parallel ratios: on one CPU they measure scheduling
// noise, so they are reported absent with this reason, never as 1.0.
func (l *ledger) multiCPU(names ...string) bool {
	if runtime.NumCPU() > 1 {
		return true
	}
	for _, name := range names {
		l.reasons[name] = "nproc is 1: a parallel ratio taken on one CPU is noise"
	}
	return false
}

// section runs one group of probes with its own span log. A panic — a
// probe's failed assumption about repro/internal — ends the section only:
// the metrics it had not yet set stay absent, with the panic as the reason.
func (l *ledger) section(name string, fn func(s *spanLog)) {
	s := newSpanLog()
	defer func() {
		if r := recover(); r != nil {
			l.failures = append(l.failures, fmt.Sprintf("probe section %s stopped: %v", name, r))
		}
		if err := s.write(filepath.Join(l.out, "spans-"+name+".json")); err != nil {
			l.failures = append(l.failures, err.Error())
		}
	}()
	fn(s)
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// must turns a layer's error into the panic that ends the section.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// cliWorkload is the input of the three CLI workloads; serveWorkload is
// serve-mix's.
func (l *ledger) cliWorkload() harness.Workload {
	return harness.Workload{N: l.n, Seed: l.seed, Threads: l.cores, SP: 2 * units.MiB}
}

func (l *ledger) serveWorkload() harness.Workload {
	return harness.Workload{N: l.n / 8, Seed: l.seed, Threads: l.cores / 4, SP: units.MiB}
}

func main() {
	l := &ledger{metrics: map[string]float64{}, reasons: map[string]string{}, digest: sha256.New()}
	flag.IntVar(&l.n, "n", 1<<20, "keys sorted at the CLI workloads' size")
	flag.IntVar(&l.cores, "cores", 256, "simulated cores at the CLI workloads' size")
	flag.Uint64Var(&l.seed, "seed", 2015, "input seed")
	flag.StringVar(&l.out, "out", ".", "directory for the span files")
	flag.StringVar(&l.scratch, "scratch", os.TempDir(), "directory for temporary trace files")
	flag.StringVar(&l.nmsim, "nmsim", "", "built nmsim binary (empty skips bench.inproc_over_child)")
	flag.Parse()

	l.section("table1-cold", l.table1)
	l.section("trace-store", l.storage)
	l.section("sweep-warm", l.sweep)
	l.section("serve-mix", l.serve)
	l.section("overhead", l.overhead)

	check(json.NewEncoder(os.Stdout).Encode(struct {
		Metrics   map[string]float64 `json:"metrics"`
		Reasons   map[string]string  `json:"reasons"`
		Failures  []string           `json:"failures"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		SimDigest string             `json:"sim_digest"`
	}{l.metrics, l.reasons, l.failures, l.attempted, l.failed, hex.EncodeToString(l.digest.Sum(nil))}))
}
