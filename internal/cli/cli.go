// Package cli is the one command-line front end of nmsim and sweep. A
// Command names the flags it has beyond the ones every command has, and the
// two defaults that differ (the experiment and the scratchpad); the flag
// table, the rules only a command line has, the supervisor built from the
// flags, the local-or-remote run and the exit codes are written once here.
// Both commands parse into a serve.SweepRequest — the value the nmsimd
// daemon decodes from /v1/sweeps — and run it through serve.RunSweep, or
// with -server through Client.SweepTo. A flag a command lacks keeps its
// zero value, so the rules and the run branches that read it never fire.
// WriteFile, the one writer of the commands' output files, serves nmtrace
// too.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/units"
)

// Command is one command line over the front end.
type Command struct {
	Name  string
	Exp   string   // the -exp default; the experiment itself without an -exp flag
	SPMiB int      // the -sp default
	Flags []string // the flags it has beyond the ones every command has
}

// NMSim reproduces Table I: the table1 row at -sp 2, with the DMA, key
// distribution, fault-rate and telemetry flags.
var NMSim = Command{Name: "nmsim", Exp: "table1", SPMiB: 2, Flags: []string{
	"dma", "dist", "fault-rate", "telemetry-out", "telemetry-csv", "telemetry-epoch"}}

// Sweep runs any registry row: -exp and the list flags the rows read, and
// the supervision flags (-manifest, -resume, -retries, -timeout).
var Sweep = Command{Name: "sweep", Exp: "bandwidth", SPMiB: serve.DefaultSPMiB, Flags: []string{
	"exp", "corelist", "fault-rates", "epoch", "manifest", "resume", "retries", "retry-seed", "timeout"}}

// Exit codes: 0 success, 1 fatal error, 2 usage, 3 completed with failed
// cells (the report carries marked rows), 130 interrupted by SIGINT/SIGTERM
// or -timeout (partial report and manifest flushed).
const (
	exitFatal       = 1
	exitUsage       = 2
	exitFailedCells = 3
	exitInterrupted = 130
)

// Options holds every flag value: the ones a run's request carries parse
// straight into it, the rest stay here.
type Options struct {
	req serve.SweepRequest
	// -corelist, -fault-rates and -epoch; parseLists parses the one the
	// experiment reads.
	list, faultRates, epoch string

	telemetryOut, telemetryCSV, telemetryEpoch string

	cpuProfile, memProfile string
	timings                bool

	manifest   string
	resume     bool
	timeout    time.Duration
	traceCache string

	server     string
	jobTimeout time.Duration
}

// flagSet binds the flags c has to o. Each flag's name, default, usage and
// binding are written once: first the flags every command has, then the
// ones a command may list, registered only when it does.
func (c Command) flagSet(o *Options, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(c.Name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&o.req.N, "n", serve.DefaultN, "keys to sort")
	fs.IntVar(&o.req.Cores, "cores", serve.DefaultCores, "simulated cores (multiple of 4)")
	fs.IntVar(&o.req.SPMiB, "sp", c.SPMiB, "scratchpad capacity in MiB")
	fs.Uint64Var(&o.req.Seed, "seed", serve.DefaultSeed, "input seed")
	fs.StringVar(&o.req.Format, "format", serve.DefaultFormat, "output format: text, csv, markdown")
	fs.Uint64Var(&o.req.FaultSeed, "fault-seed", 1, "fault-injection seed (0 disables injection)")
	fs.IntVar(&o.req.Par, "par", 0, "replays in flight at once; output is byte-identical at any value (0 = GOMAXPROCS, 1 = one replay at a time); recordings run beside the replays and are not counted")
	fs.BoolVar(&o.timings, "timings", false, "print one line per recording and per replayed cell to stderr: lane, start and end since process start, cached/shared marks, then the process's peak RSS where the OS reports it (host time; changes no output or manifest byte)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.traceCache, "trace-cache", "", "directory caching recorded traces as columnar .nmt3 files across runs (byte-neutral)")
	fs.StringVar(&o.server, "server", "", "run the experiment on this nmsimd daemon (e.g. http://127.0.0.1:8080) instead of in-process; the printed report is byte-identical")
	fs.DurationVar(&o.jobTimeout, "job-timeout", 0, "HTTP deadline for the -server request (0 = none)")

	o.req.Exp = c.Exp
	bind(c, fs.StringVar, &o.req.Exp, "exp", c.Exp, "experiment: "+strings.Join(harness.ExperimentNames(), ", "))
	bind(c, fs.StringVar, &o.list, "corelist", "64,128,192,256", "core counts for -exp=cores")
	bind(c, fs.StringVar, &o.faultRates, "fault-rates", "", "comma-separated bit error rates for -exp=faults (empty = default axis)")
	bind(c, fs.StringVar, &o.epoch, "epoch", "10us", "telemetry sampling epoch for -exp=timeline (e.g. 500ns, 10us)")
	bind(c, fs.StringVar, &o.manifest, "manifest", "", "checkpoint completed sweep cells to this JSON file (written atomically after each cell)")
	bind(c, fs.BoolVar, &o.resume, "resume", false, "load -manifest and skip cells it already holds; the final report is byte-identical to an uninterrupted run")
	bind(c, fs.IntVar, &o.req.Retries, "retries", 0, "deterministic re-replays of cells ending in a transient MemFault outcome")
	bind(c, fs.Uint64Var, &o.req.RetrySeed, "retry-seed", 1, "seed for the deterministic retry reseeding chain")
	bind(c, fs.DurationVar, &o.timeout, "timeout", 0, "wall-clock bound on the whole sweep (0 = none); on expiry the partial report and manifest are flushed")
	bind(c, fs.BoolVar, &o.req.DMA, "dma", false, "use the §VII DMA engines in NMsort")
	bind(c, fs.StringVar, &o.req.Dist, "dist", "uniform", "key distribution: uniform, zipf, sorted, reverse, fewkeys, gaussian, runblend")
	bind(c, fs.Float64Var, &o.req.FaultRate, "fault-rate", 0, "far-memory bit error rate per read, in [0, 1] (0 disables injection)")
	bind(c, fs.StringVar, &o.telemetryOut, "telemetry-out", "", "write a Chrome trace-event JSON timeline (Perfetto-loadable) of the NMsort replay to this file")
	bind(c, fs.StringVar, &o.telemetryCSV, "telemetry-csv", "", "write the sampled time series of the NMsort replay to this CSV file")
	bind(c, fs.StringVar, &o.telemetryEpoch, "telemetry-epoch", "10us", "telemetry sampling resolution in simulated time (e.g. 500ns, 10us)")

	if slices.Contains(c.Flags, "exp") {
		def := fs.Usage
		fs.Usage = func() {
			def()
			fmt.Fprintf(fs.Output(), "\nexperiments:\n")
			for _, e := range harness.Experiments {
				fmt.Fprintf(fs.Output(), "  %-10s %s\n", e.Name, e.Desc)
			}
		}
	}
	return fs
}

// bind registers one flag through reg when c lists it; otherwise *p keeps
// what it holds.
func bind[T any](c Command, reg func(*T, string, T, string), p *T, name string, def T, usage string) {
	if slices.Contains(c.Flags, name) {
		reg(p, name, def, usage)
	}
}

// Parse parses args (without the program name) into validated options. A
// bad command line — an unknown flag, -help, a rule it breaks — has its
// message and the usage text written to stderr and is returned; Main exits 2
// on it.
func (c Command) Parse(args []string, stderr io.Writer) (*Options, error) {
	o := new(Options)
	fs := c.flagSet(o, stderr)
	if err := fs.Parse(args); err != nil {
		return nil, err // the FlagSet has printed it and the usage
	}
	if err := o.validate(); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", c.Name, err)
		fs.Usage()
		return nil, err
	}
	return o, nil
}

// telemetry reports whether any telemetry export was requested.
func (o *Options) telemetry() bool { return o.telemetryOut != "" || o.telemetryCSV != "" }

// validate rejects inconsistent flag combinations before any work is done:
// the rules only a command line has here, then the request's own Validate.
func (o *Options) validate() error {
	switch {
	case o.timeout < 0:
		return fmt.Errorf("-timeout %v is negative", o.timeout)
	case o.resume && o.manifest == "":
		return fmt.Errorf("-resume requires -manifest")
	case o.jobTimeout < 0:
		return fmt.Errorf("-job-timeout %v is negative", o.jobTimeout)
	case o.jobTimeout > 0 && o.server == "":
		return fmt.Errorf("-job-timeout requires -server")
	}
	if o.server != "" {
		if err := serve.ValidateServerURL(o.server); err != nil {
			return err
		}
		switch {
		case o.telemetry():
			return fmt.Errorf("-telemetry-out/-telemetry-csv are local-only and conflict with -server (stream jobs via the API instead)")
		case o.manifest != "":
			return fmt.Errorf("-manifest is local-only and conflicts with -server (the daemon keeps its own result cache)")
		case o.traceCache != "":
			return fmt.Errorf("-trace-cache is local-only and conflicts with -server (the daemon keeps its own trace store)")
		case o.req.N == 0:
			return fmt.Errorf("-n 0 cannot travel to -server (the wire treats 0 as the default %d)", serve.DefaultN)
		case o.req.Seed == 0:
			return fmt.Errorf("-seed 0 cannot travel to -server (the wire treats 0 as the default %d)", serve.DefaultSeed)
		}
	}
	if o.telemetry() {
		if _, err := epochFlag("telemetry-epoch", o.telemetryEpoch); err != nil {
			return err
		}
	}
	if err := o.parseLists(); err != nil {
		return err
	}
	return o.req.Validate()
}

// parseLists fills the request's list fields from the flag strings. Only
// the one the experiment reads is parsed, keeping the historical behavior
// that a junk -corelist is ignored outside -exp=cores.
func (o *Options) parseLists() (err error) {
	switch o.req.Exp {
	case "cores":
		o.req.CoreList, err = parseList(o.list, "corelist", "core count", strconv.Atoi)
	case "faults":
		if strings.TrimSpace(o.faultRates) != "" { // empty selects the default axis
			o.req.FaultRates, err = parseList(o.faultRates, "fault-rates", "fault rate",
				func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
		}
	case "timeline":
		var epoch units.Time
		epoch, err = epochFlag("epoch", o.epoch)
		o.req.EpochPS = int64(epoch)
	}
	return err
}

// parseList parses a comma-separated list flag's entries; Validate holds
// them to the range rule.
func parseList[T any](list, flag, entry string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range strings.Split(list, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("-%s: bad %s %q", flag, entry, f)
		}
		out = append(out, v)
	}
	return out, nil
}

// epochFlag parses a sampling-epoch flag. It must be positive: the wire
// would read 0 as the default epoch.
func epochFlag(flag, v string) (units.Time, error) {
	epoch, err := units.ParseTime(v)
	if err != nil {
		return 0, fmt.Errorf("-%s: %v", flag, err)
	}
	if epoch <= 0 {
		return 0, fmt.Errorf("-%s %s must be positive", flag, v)
	}
	return epoch, nil
}

// supervisor builds the supervised runtime from the flags: cancellation
// from ctx, the -timings stage recorder, the -trace-cache directory, and
// the manifest (fresh or resumed) as its cell cache — returned too, nil
// without -manifest, for Run's final flush. The request's retry policy and
// slice reach it through serve.RunSweep. Every cell runs under it, and none
// of what it adds to the zero Supervisor moves a byte of the report.
func (o *Options) supervisor(ctx context.Context) (*harness.Supervisor, *harness.Manifest, error) {
	sup := &harness.Supervisor{Ctx: ctx}
	if o.timings {
		sup.Timings = prof.NewStages()
	}
	if o.traceCache != "" {
		rc, err := harness.NewDiskRecordCache(o.traceCache)
		if err != nil {
			return nil, nil, err
		}
		sup.Records = rc
	}
	if o.manifest == "" {
		return sup, nil, nil
	}
	var man *harness.Manifest
	var err error
	if o.resume {
		man, err = harness.OpenManifest(o.manifest)
	} else {
		// A fresh (non-resume) run must not inherit stale cells: reset the
		// file now so a crash before the first completed cell leaves a valid
		// empty manifest, not last week's.
		man = harness.NewManifest(o.manifest)
		err = man.Flush()
	}
	if err != nil {
		return nil, nil, err
	}
	sup.Cache = man
	return sup, man, nil
}

// Run executes the request under supervision and writes the report to w —
// including after cancellation or cell failures, when the partially-filled
// report (with marked rows) is the flush the shutdown path promises. It
// returns the count of failed cells. With -server the daemon runs the same
// request through the same serve.RunSweep and the report is printed
// verbatim; the failed count arrives in a header.
func (o *Options) Run(ctx context.Context, w io.Writer) (int, error) {
	if o.server != "" {
		c := &serve.Client{BaseURL: o.server, HTTP: &http.Client{Timeout: o.jobTimeout}}
		return c.SweepTo(ctx, w, o.req)
	}
	sup, man, err := o.supervisor(ctx)
	if err != nil {
		return 0, err
	}
	if o.timings {
		defer writePeakRSS(os.Stderr)
	}
	defer sup.Timings.WriteTo(os.Stderr)
	failed, err := o.runLocal(sup, w)
	if err == nil && man != nil {
		err = man.Flush()
	}
	return failed, err
}

// writePeakRSS closes the -timings lines with the process's peak resident
// set, where the platform reports one. Printed, never gated: hosts differ.
func writePeakRSS(w io.Writer) {
	if rss, ok := prof.PeakRSS(); ok {
		fmt.Fprintf(w, "timings: peak rss %.1f MiB\n", float64(rss)/(1<<20))
	}
}

// runLocal is Run in process under sup: the row, then the telemetry replay
// when an export was asked for.
func (o *Options) runLocal(sup *harness.Supervisor, w io.Writer) (int, error) {
	failed, err := serve.RunSweep(w, o.req, sup)
	if err != nil || !o.telemetry() {
		return failed, err
	}
	return failed, o.runTelemetry(sup, w)
}

// runTelemetry replays the NMsort trace on the 4X node with a telemetry
// recorder, on Table I's workload and fault environment, writes the
// requested export files, and appends the per-phase breakdown to the report.
// It runs under Table I's supervisor, whose memo hands it the NMsort trace
// Table I recorded.
func (o *Options) runTelemetry(sup *harness.Supervisor, w io.Writer) error {
	epoch, _ := units.ParseTime(o.telemetryEpoch)
	f, _ := report.ParseFormat(o.req.Format)
	alg := harness.AlgNMSort
	if o.req.DMA {
		alg = harness.AlgNMSortDM
	}
	res, tel, err := harness.RunTimeline(alg, o.req.Workload(sup), 16, epoch, o.req.Params().Fault)
	if err != nil {
		return err
	}
	if o.telemetryOut != "" {
		if err := WriteFile(o.telemetryOut, tel.ExportChrome); err != nil {
			return err
		}
	}
	if o.telemetryCSV != "" {
		if err := WriteFile(o.telemetryCSV, tel.WriteCSV); err != nil {
			return err
		}
	}
	pt := harness.PhaseTable(
		fmt.Sprintf("%s timeline, 4X near bandwidth, epoch %s", alg, epoch),
		res.SimTime, res.Phases)
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return pt.Render(w, f)
}

// WriteFile writes path's file with write: the one writer of the commands'
// output files. A regular file or a missing path is written as a new hidden
// file beside it, with os.Create's mode or the replaced file's permission
// bits, and only once write and close succeed is the old file unlinked and
// the new one renamed onto path. A failed write leaves path as it was, and a
// reader holding the old file keeps its bytes. A symlink, device or FIFO is
// written through with os.Create. Neither truncating in place nor renaming
// over path: on ext4 both flush on close, and the next overwrite waits for
// the flush (DESIGN §13); nor an fsync, since no output promises durability.
// internal/prof keeps os.Create: a CPU profile streams while the run goes on.
func WriteFile(path string, write func(io.Writer) error) error {
	st, err := os.Lstat(path) // nil when path is missing
	var f *os.File
	switch {
	case err == nil && !st.Mode().IsRegular():
		f, err = os.Create(path)
	case err == nil || errors.Is(err, fs.ErrNotExist):
		if f, err = createSibling(path); err == nil && st != nil {
			err = f.Chmod(st.Mode().Perm())
		}
	}
	if f == nil {
		return err
	}
	if err == nil {
		err = write(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr // a full disk shows up at close
	}
	if f.Name() == path { // written through
		return err
	}
	if err == nil {
		if err = os.Remove(path); errors.Is(err, fs.ErrNotExist) {
			err = nil
		}
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// createSibling creates a new file in path's directory under a hidden name
// no other file has, with os.Create's mode.
func createSibling(path string) (*os.File, error) {
	dir, base := filepath.Split(path)
	prefix := filepath.Join(dir, "."+base+"."+strconv.Itoa(os.Getpid())+".")
	for i := 0; ; i++ {
		f, err := os.OpenFile(prefix+strconv.Itoa(i)+".tmp", os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) || i == 1000 {
			return f, err
		}
	}
}

// Main runs c on the process's arguments and exits with one of the codes
// above.
func Main(c Command) {
	o, err := c.Parse(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(exitUsage)
	}
	profiles, err := prof.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.Name, err)
		os.Exit(exitFatal)
	}
	// Graceful shutdown: the first SIGINT/SIGTERM cancels the context, the
	// running slice finishes, untouched cells cancel, and Run still writes
	// the partial report (the manifest is already on disk per cell). A
	// second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	failed, runErr := o.Run(ctx, os.Stdout)
	// Stop even on failure: a profile of the partial run is still useful.
	if err := profiles.Stop(); runErr == nil {
		runErr = err
	}
	switch {
	case runErr != nil:
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.Name, runErr)
		if ctx.Err() != nil && errors.Is(runErr, ctx.Err()) {
			// The error IS the interrupt (e.g. the telemetry replay was
			// cancelled mid-flight): report it under the interrupt code.
			os.Exit(exitInterrupted)
		}
		os.Exit(exitFatal)
	case ctx.Err() != nil:
		fmt.Fprintf(os.Stderr, "%s: interrupted (%v); partial report written, %d cells incomplete\n", c.Name, ctx.Err(), failed)
		os.Exit(exitInterrupted)
	case failed > 0:
		fmt.Fprintf(os.Stderr, "%s: completed with %d failed cells (marked in the report)\n", c.Name, failed)
		os.Exit(exitFailedCells)
	}
}
