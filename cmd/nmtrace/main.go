// Command nmtrace separates the two halves of the co-design pipeline:
// record an algorithm's memory trace to a file once (expensive: native
// execution under instrumentation), then replay or inspect it as many
// times as needed.
//
//	nmtrace record  -alg nmsort -n 1048576 -cores 256 -sp 4 -o nmsort.nmt
//	nmtrace convert -i nmsort.nmt -o nmsort.nmt3
//	nmtrace replay  -i nmsort.nmt3 -near 16
//	nmtrace info    -i nmsort.nmt3
//	nmtrace stat    -i nmsort.nmt3
//	nmtrace check   nmsort.trace.json
//
// Trace files come in two serializations sharing one content digest: the
// row-oriented v2 stream (.nmt) and the columnar v3 layout (.nmt3), which
// replays straight from the file without decoding into memory. Every
// subcommand sniffs the format it reads from the file, not the extension;
// record and convert write v2 only to a .nmt file, and v3 to any other name.
// Their -o replaces the file there only once the new one is written and
// checked: a failed write leaves the old file as it was, and converting a
// file onto itself reads the old bytes to the end.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"repro/internal/cli"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "convert":
		convert(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "stat":
		stat(os.Args[2:])
	case "check":
		if len(os.Args) < 3 {
			usage()
		}
		if !check(os.Args[2:], os.Stdout, os.Stderr) {
			os.Exit(1)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  nmtrace record  -alg {%s} [-n keys] [-cores n] [-sp MiB] [-seed s] -o file
  nmtrace convert -i file -o file
  nmtrace replay  -i file [-cores n] [-near channels] [-sp MiB]
  nmtrace info    -i file
  nmtrace stat    -i file
  nmtrace check   file.trace.json [more.trace.json ...]
-o writes the v2 stream to a .nmt file and the v3 columns to any other name;
it replaces the file once the new one is written, and a failed write leaves it.
`, strings.Join(harness.AlgorithmNames(), "|"))
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	alg := fs.String("alg", "nmsort", "algorithm to record")
	n := fs.Int("n", 1<<20, "keys to sort (points, for k-means)")
	cores := fs.Int("cores", 256, "logical threads")
	spMiB := fs.Int("sp", 4, "scratchpad capacity in MiB")
	seed := fs.Uint64("seed", 2015, "input seed")
	out := fs.String("o", "", "output trace file (required)")
	fs.Parse(args)
	if *out == "" {
		log.Fatal("nmtrace record: -o is required")
	}

	w := harness.Workload{N: *n, Seed: *seed, Threads: *cores,
		SP: units.Bytes(*spMiB) * units.MiB}
	res, nBytes, err := recordFile(harness.Algorithm(*alg), w, *out)
	if err != nil {
		log.Fatalf("nmtrace record: %v", err)
	}
	fmt.Printf("recorded %s: %d threads, %d ops, %d bytes (%.1f bits/op)\n",
		*alg, res.Trace.Threads(), res.Trace.Ops(), nBytes,
		8*float64(nBytes)/float64(res.Trace.Ops()))
	c := res.Trace.Count()
	fmt.Printf("L1-filtered lines: far %d (r %d / w %d), near %d (r %d / w %d), atomics %d\n",
		c.Far(), c.FarReads, c.FarWrites, c.Near(), c.NearReads, c.NearWrites, c.Atomics)
}

// recordFile records alg on w and writes the trace at out: a .nmt output
// is the canonical v2 stream, encoded from the columns on every host CPU,
// anything else the recording's own sealed image.
func recordFile(alg harness.Algorithm, w harness.Workload, out string) (harness.RecordResult, int64, error) {
	res, err := harness.Record(alg, w)
	if err != nil {
		return res, 0, err
	}
	n, err := writeFile(out, res.Trace, nil)
	if err != nil {
		return res, n, fmt.Errorf("writing trace: %w", err)
	}
	return res, n, nil
}

// format names the serialization a trace is written in at out: v2, the
// wire form the digest is defined over, only where a .nmt file asks for it,
// and v3 for any other name.
func format(out string) string {
	if strings.HasSuffix(out, ".nmt") {
		return "v2"
	}
	return "v3"
}

// writeFile writes src at out in format(out) and returns the bytes written.
// check, when not nil, runs once the bytes are written; its error, like a
// failed write, leaves the file at out as it was (cli.WriteFile).
func writeFile(out string, src trace.Source, check func() error) (int64, error) {
	var n int64
	err := cli.WriteFile(out, func(w io.Writer) (err error) {
		if format(out) == "v2" {
			n, err = trace.WriteV2Par(w, src, par.Each)
		} else {
			var col *trace.Columnar
			if col, err = trace.Seal(src); err != nil { // src's own columns, unless it is an opened v3 file
				return err
			}
			n, err = col.WriteTo(w)
		}
		if err == nil && check != nil {
			err = check()
		}
		return err
	})
	return n, err
}

func convert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (required)")
	out := fs.String("o", "", "output trace file (required)")
	fs.Parse(args)
	if *in == "" || *out == "" {
		log.Fatal("nmtrace convert: -i and -o are required")
	}
	if err := convertFile(*in, *out); err != nil {
		log.Fatalf("nmtrace convert: %v", err)
	}
}

// convertFile rewrites the trace at in at out, in format(out).
// Conversion is lossless and digest-preserving in both directions:
// v2 -> v3 -> v2 and v3 -> v2 -> v3 both reproduce the input bytes.
func convertFile(in, out string) error {
	src, err := trace.Load(in, par.Each)
	if err != nil {
		return err
	}
	// One walk of the input serves both ends: a v2 file was validated as it
	// was read, and the walk that encodes a v3 file's ops validates them. Its
	// verdict is in before the new file replaces out, so an invalid input
	// leaves out as it was.
	n, err := writeFile(out, src, func() error {
		if err := validate(src); err != nil {
			return fmt.Errorf("invalid trace %s: %w", in, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	d, err := src.Digest()
	if err != nil {
		return err
	}
	fmt.Printf("converted %s -> %s (%s): %d threads, %d ops, %d bytes, digest %016x\n",
		in, out, format(out), src.Threads(), src.Ops(), n, d)
	return nil
}

// validate is src.Validate with a v3 file's walk run on every host CPU.
func validate(src trace.Source) error {
	if col, ok := src.(*trace.Columnar); ok {
		return col.ValidatePar(par.Each)
	}
	return src.Validate()
}

func stat(args []string) {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (required)")
	fs.Parse(args)
	if *in == "" {
		log.Fatal("nmtrace stat: -i is required")
	}
	if err := statFile(os.Stdout, *in); err != nil {
		log.Fatalf("nmtrace stat: %v", err)
	}
}

// statFile prints the physical layout of a trace file: serialization,
// digest, per-thread op counts, and (for columnar files) every column
// segment with its file offset and size.
func statFile(w io.Writer, path string) error {
	src, err := trace.Load(path, par.Each)
	if err != nil {
		return err
	}
	d, err := src.Digest()
	if err != nil {
		return err
	}
	version := "v2 (row stream)"
	if _, ok := src.(*trace.Columnar); ok {
		version = "v3 (columnar)"
	}
	fmt.Fprintf(w, "serialization: %s\n", version)
	fmt.Fprintf(w, "digest:        %016x\n", d)
	fmt.Fprintf(w, "threads:       %d\n", src.Threads())
	fmt.Fprintf(w, "total ops:     %d\n", src.Ops())
	for t := 0; t < src.Threads(); t++ {
		fmt.Fprintf(w, "  thread %4d: %d ops\n", t, src.ThreadOps(t))
	}
	col, ok := src.(*trace.Columnar)
	if !ok {
		return nil
	}
	fmt.Fprintf(w, "file size:     %d bytes\n", col.Size())
	byCol := make(map[string]int64)
	for _, s := range col.Sections() {
		byCol[s.Column] += s.Bytes
	}
	fmt.Fprintf(w, "column bytes (all threads):\n")
	for _, s := range col.Sections()[:min(5, len(col.Sections()))] {
		fmt.Fprintf(w, "  %-6s %12d\n", s.Column, byCol[s.Column])
	}
	fmt.Fprintf(w, "sections:\n")
	for _, s := range col.Sections() {
		fmt.Fprintf(w, "  thread %4d %-6s off %10d  %10d bytes  (shift %d)\n",
			s.Thread, s.Column, s.Offset, s.Bytes, col.Shift(s.Thread))
	}
	return nil
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (required)")
	cores := fs.Int("cores", 0, "simulated cores (0 = trace thread count rounded up to x4)")
	near := fs.Int("near", 16, "near-memory channels (8/16/32 = 2X/4X/8X)")
	spMiB := fs.Int("sp", 4, "scratchpad capacity in MiB")
	phases := fs.Int("phases", 0, "print the N longest inter-barrier phases")
	fs.Parse(args)
	if *in == "" {
		log.Fatal("nmtrace replay: -i is required")
	}
	node := serve.JobRequest{Cores: *cores, NearChannels: *near, SPMiB: *spMiB}
	if err := replayFile(os.Stdout, *in, node, *phases); err != nil {
		log.Fatalf("nmtrace replay: %v", err)
	}
}

// replayFile replays the trace at path on the node that node's cores, near
// channels and scratchpad describe (0 cores: the trace's thread count
// rounded up to a multiple of 4) and prints the report, with the phases
// longest inter-barrier phases. The node is held to the rules the daemon
// holds a /v1/jobs node to, so a bad flag is an error, never a panic.
func replayFile(w io.Writer, path string, node serve.JobRequest, phases int) error {
	tr, err := trace.Load(path, par.Each)
	if err != nil {
		return err
	}
	if node.Cores == 0 {
		node.Cores = (tr.Threads() + 3) / 4 * 4
	}
	if err := node.Validate(); err != nil {
		return err
	}
	cfg := harness.NodeFor(node.Cores, node.NearChannels, units.Bytes(node.SPMiB)*units.MiB)
	res, err := machine.Run(cfg, tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "node: %d cores, near %gX (%v), far %v\n",
		cfg.Cores, cfg.BandwidthExpansion(), cfg.Near.TotalBandwidth(), cfg.Far.TotalBandwidth())
	fmt.Fprintf(w, "sim time:            %v\n", res.SimTime)
	fmt.Fprintf(w, "scratchpad accesses: %d\n", res.NearAccesses)
	fmt.Fprintf(w, "DRAM accesses:       %d (row-hit rate %.1f%%)\n",
		res.FarAccesses, 100*res.FarStats.RowHitRate())
	fmt.Fprintf(w, "L2: %.1f%% miss rate; utilization far %.1f%% near %.1f%% noc %.1f%%\n",
		100*res.L2.MissRate(), 100*res.FarUtilization,
		100*res.NearUtilization, 100*res.NoCUtilization)
	fmt.Fprintf(w, "events: %d (+%d elided), barriers: %d\n", res.Events, res.Elided, len(res.BarrierTimes))

	if phases > 0 && len(res.BarrierTimes) > 0 {
		type span struct {
			idx int
			d   units.Time
		}
		spans := make([]span, 0, len(res.BarrierTimes))
		prev := units.Time(0)
		for i, bt := range res.BarrierTimes {
			spans = append(spans, span{idx: i, d: bt - prev})
			prev = bt
		}
		sort.Slice(spans, func(a, b int) bool { return spans[a].d > spans[b].d })
		if phases < len(spans) {
			spans = spans[:phases]
		}
		fmt.Fprintf(w, "\nlongest inter-barrier phases:\n")
		for _, sp := range spans {
			fmt.Fprintf(w, "  barrier %4d: %12s (%.1f%% of total)\n",
				sp.idx, sp.d, 100*float64(sp.d)/float64(res.SimTime))
		}
	}
	return nil
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (required)")
	fs.Parse(args)
	if *in == "" {
		log.Fatal("nmtrace info: -i is required")
	}
	if err := infoFile(os.Stdout, *in); err != nil {
		log.Fatalf("nmtrace info: %v", err)
	}
}

// infoFile prints the trace at path's threads, ops by kind and level, compute
// cycles, L1 and costs: every number from the one validation walk.
func infoFile(w io.Writer, path string) error {
	src, err := trace.Load(path, par.Each)
	if err != nil {
		return err
	}
	cols, ok := src.(*trace.Columnar)
	if !ok {
		cols = src.(*trace.Trace).Columns()
	}
	if err := validate(cols); err != nil {
		return fmt.Errorf("invalid trace: %w", err)
	}
	minOps, maxOps := int(^uint(0)>>1), 0
	for tid := 0; tid < cols.Threads(); tid++ {
		n := cols.ThreadOps(tid)
		minOps, maxOps = min(minOps, n), max(maxOps, n)
	}
	c := cols.Count()
	barriers, dmas, waits, cycles := cols.Tally()
	l1, costs := cols.Geometry(), cols.CostModel()
	fmt.Fprintf(w, "threads:      %d (ops per thread %d..%d)\n", cols.Threads(), minOps, maxOps)
	fmt.Fprintf(w, "total ops:    %d\n", cols.Ops())
	fmt.Fprintf(w, "  accesses:   %d (far %d, near %d)\n", c.Far()+c.Near(), c.Far(), c.Near())
	fmt.Fprintf(w, "  atomics:    %d\n", c.Atomics)
	fmt.Fprintf(w, "  barriers:   %d (%d per thread)\n", barriers, barriers/uint64(cols.Threads()))
	fmt.Fprintf(w, "  dma:        %d (+%d waits)\n", dmas, waits)
	fmt.Fprintf(w, "compute:      %d core cycles total\n", cycles)
	fmt.Fprintf(w, "L1 geometry:  %v %d-way, %vB lines\n", l1.Capacity, l1.Ways, int64(l1.LineSize))
	fmt.Fprintf(w, "costs:        issue %d, L1 hit %d, compare %d, atomic %d cycles\n",
		costs.IssueCycles, costs.L1HitCycles, costs.CompareCycles, costs.AtomicCycles)
	return nil
}

// check validates each file as a Chrome trace-event container — a non-empty
// traceEvents array whose entries all carry a phase and a name, what nmsim's
// -telemetry-out writes and Perfetto loads — reporting one verdict per file,
// and returns whether every file passed (the exit status: 0, else 1).
func check(paths []string, out, errw io.Writer) bool {
	ok := true
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err == nil {
			err = telemetry.ValidateChromeJSON(data)
		}
		if err != nil {
			fmt.Fprintf(errw, "nmtrace check: %s: %v\n", path, err)
			ok = false
			continue
		}
		fmt.Fprintf(out, "%s: ok\n", path)
	}
	return ok
}
