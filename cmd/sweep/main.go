// Command sweep regenerates the series behind the paper's Section V
// claims. Run "sweep -help" for the experiment list; every experiment is a
// row of the registry below, which is also the single source of the usage
// text.
//
// Usage:
//
//	sweep -exp=bandwidth [-n keys] [-cores n] [-sp MiB] [-seed s] [-par n] [-timings]
//	sweep -exp=faults [-fault-seed s] [-fault-rates r1,r2,...]
//	sweep -exp=timeline [-epoch dur]
//	sweep -exp=bandwidth -manifest run.json [-resume] [-slice n] [-retries n] [-timeout dur]
//	sweep -exp=bandwidth -server http://127.0.0.1:8080 [-job-timeout dur]
//
// Every replay runs under the supervised runtime: SIGINT/SIGTERM (or
// -timeout) cancels the sweep at the next slice boundary and the partial
// report is still written (exit code 130); with -manifest each completed
// cell is checkpointed atomically, and -resume skips checkpointed cells to
// produce a byte-identical report. A sweep that completes with failed
// cells exits 3 with the failures marked in the report.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
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

// Exit codes: 0 success, 1 fatal error, 2 usage, 3 completed with failed
// cells (the report carries marked rows), 130 interrupted by signal or
// -timeout (partial report and manifest flushed).
const (
	exitFatal       = 1
	exitUsage       = 2
	exitFailedCells = 3
	exitInterrupted = 130
)

// The experiment registry lives in harness.Experiments — shared with the
// nmsimd serving layer so the two front ends agree on experiment names.
// This command owns only the flag-string parsing into ExperimentParams.

// usageTable renders the registry as the experiment section of the usage
// text: one aligned row per experiment.
func usageTable() string {
	var b strings.Builder
	for _, e := range harness.Experiments {
		fmt.Fprintf(&b, "  %-10s %s\n", e.Name, e.Desc)
	}
	return b.String()
}

// params parses the selected experiment's string flags into registry
// parameters. Only the flags the experiment consumes are parsed, keeping
// the historical behavior that a junk -corelist is ignored outside
// -exp=cores.
func (o options) params() (harness.ExperimentParams, error) {
	p := harness.ExperimentParams{FaultSeed: o.faultSeed}
	switch o.exp {
	case "cores":
		cc, err := parseCoreList(o.list)
		if err != nil {
			return p, err
		}
		p.CoreList = cc
	case "faults":
		rates, err := parseRates(o.faultRates)
		if err != nil {
			return p, err
		}
		p.FaultRates = rates
	case "timeline":
		epoch, err := units.ParseTime(o.epoch)
		if err != nil {
			return p, err
		}
		p.Epoch = epoch
	}
	return p, nil
}

// options holds every flag value; validation is separated from parsing so
// bad combinations fail fast with a usage hint and are testable.
type options struct {
	exp        string
	n          int
	cores      int
	list       string
	spMiB      int
	seed       uint64
	format     string
	faultSeed  uint64
	faultRates string
	epoch      string
	par        int
	cpuProfile string
	memProfile string
	timings    bool

	manifest   string
	resume     bool
	slice      uint64
	retries    int
	retrySeed  uint64
	timeout    time.Duration
	traceCache string

	server     string
	jobTimeout time.Duration
}

// parseFlags parses args (without the program name) into options.
func parseFlags(args []string) (options, *flag.FlagSet, error) {
	var o options
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.StringVar(&o.exp, "exp", "bandwidth", "experiment: "+strings.Join(harness.ExperimentNames(), ", "))
	fs.IntVar(&o.n, "n", 1<<20, "keys to sort")
	fs.IntVar(&o.cores, "cores", 256, "simulated cores for the bandwidth/dma/faults/timeline sweeps")
	fs.StringVar(&o.list, "corelist", "64,128,192,256", "core counts for -exp=cores")
	fs.IntVar(&o.spMiB, "sp", 8, "scratchpad capacity in MiB")
	fs.Uint64Var(&o.seed, "seed", 2015, "input seed")
	fs.StringVar(&o.format, "format", "text", "output format: text, csv, markdown")
	fs.Uint64Var(&o.faultSeed, "fault-seed", 1, "fault-injection seed for -exp=faults (0 disables injection)")
	fs.StringVar(&o.faultRates, "fault-rates", "", "comma-separated bit error rates for -exp=faults (empty = default axis)")
	fs.StringVar(&o.epoch, "epoch", "10us", "telemetry sampling epoch for -exp=timeline (e.g. 500ns, 10us)")
	fs.IntVar(&o.par, "par", 0, "replays in flight at once; output is byte-identical at any value (0 = GOMAXPROCS, 1 = one replay at a time); recordings run beside the replays and are not counted")
	fs.BoolVar(&o.timings, "timings", false, "print one line per recording and per cell to stderr: lane, start and end since process start, cached/shared marks (host time; changes no output or manifest byte)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.manifest, "manifest", "", "checkpoint completed sweep cells to this JSON file (written atomically after each cell)")
	fs.BoolVar(&o.resume, "resume", false, "load -manifest and skip cells it already holds; the final report is byte-identical to an uninterrupted run")
	fs.Uint64Var(&o.slice, "slice", 0, "executed events per supervised replay slice; cancellation is polled between slices (0 = default); a replay executes about half the events it did before event elision")
	fs.IntVar(&o.retries, "retries", 0, "deterministic re-replays of cells ending in a transient MemFault outcome")
	fs.Uint64Var(&o.retrySeed, "retry-seed", 1, "seed for the deterministic retry reseeding chain")
	fs.DurationVar(&o.timeout, "timeout", 0, "wall-clock bound on the whole sweep (0 = none); on expiry the partial report and manifest are flushed")
	fs.StringVar(&o.traceCache, "trace-cache", "", "directory caching recorded traces as columnar .nmt3 files across runs (byte-neutral)")
	fs.StringVar(&o.server, "server", "", "run the sweep on this nmsimd daemon (e.g. http://127.0.0.1:8080) instead of in-process; the printed report is byte-identical")
	fs.DurationVar(&o.jobTimeout, "job-timeout", 0, "HTTP deadline for the -server request (0 = none)")
	def := fs.Usage
	fs.Usage = func() {
		def()
		fmt.Fprintf(fs.Output(), "\nexperiments:\n%s", usageTable())
	}
	err := fs.Parse(args)
	return o, fs, err
}

// validate rejects inconsistent flag combinations before any work is done.
func (o options) validate() error {
	if _, ok := harness.FindExperiment(o.exp); !ok {
		return fmt.Errorf("unknown experiment %q (want one of: %s)", o.exp, strings.Join(harness.ExperimentNames(), ", "))
	}
	switch {
	case o.n < 0:
		return fmt.Errorf("-n %d is negative", o.n)
	case o.cores <= 0 || o.cores%4 != 0:
		return fmt.Errorf("-cores %d must be a positive multiple of 4", o.cores)
	case o.spMiB <= 0:
		return fmt.Errorf("-sp %d MiB must be positive", o.spMiB)
	case o.par < 0:
		return fmt.Errorf("-par %d is negative (0 means GOMAXPROCS)", o.par)
	case o.retries < 0:
		return fmt.Errorf("-retries %d is negative", o.retries)
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
		case o.manifest != "":
			return fmt.Errorf("-manifest is local-only and conflicts with -server (the daemon keeps its own result cache)")
		case o.resume:
			return fmt.Errorf("-resume conflicts with -server")
		case o.traceCache != "":
			return fmt.Errorf("-trace-cache is local-only and conflicts with -server (the daemon keeps its own trace store)")
		case o.n == 0:
			return fmt.Errorf("-n 0 cannot travel to -server (the wire treats 0 as the default %d)", 1<<20)
		case o.seed == 0:
			return fmt.Errorf("-seed 0 cannot travel to -server (the wire treats 0 as the default 2015)")
		}
	}
	if _, err := report.ParseFormat(o.format); err != nil {
		return err
	}
	if o.exp == "cores" {
		if _, err := parseCoreList(o.list); err != nil {
			return err
		}
	}
	if o.exp == "faults" {
		if _, err := parseRates(o.faultRates); err != nil {
			return err
		}
	}
	if o.exp == "timeline" {
		epoch, err := units.ParseTime(o.epoch)
		if err != nil {
			return fmt.Errorf("-epoch: %v", err)
		}
		if epoch <= 0 {
			return fmt.Errorf("-epoch %s must be positive", o.epoch)
		}
	}
	return nil
}

// parseCoreList parses the -corelist flag: positive multiples of 4.
func parseCoreList(list string) ([]int, error) {
	var cc []int
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 || v%4 != 0 {
			return nil, fmt.Errorf("bad core count %q (must be a positive multiple of 4)", f)
		}
		cc = append(cc, v)
	}
	return cc, nil
}

// parseRates parses the -fault-rates flag: probabilities in [0, 1]. An
// empty flag selects the default axis.
func parseRates(list string) ([]float64, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var rates []float64
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v < 0 || v > 1 || v != v {
			return nil, fmt.Errorf("bad fault rate %q (must be in [0, 1])", f)
		}
		rates = append(rates, v)
	}
	return rates, nil
}

// supervisor builds the supervised runtime from the flags: cancellation
// from ctx, the retry policy, the -timings stage recorder, and the manifest
// (fresh or resumed) as its cell cache — returned too, nil without
// -manifest, for run's final flush. Every sweep cell runs under it; a
// do-nothing supervisor is byte-identical to the historical unsupervised
// path (pinned in internal/harness).
func supervisor(ctx context.Context, o options) (*harness.Supervisor, *harness.Manifest, error) {
	sup := &harness.Supervisor{
		Ctx:       ctx,
		Slice:     o.slice,
		Retries:   o.retries,
		RetrySeed: o.retrySeed,
	}
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
	if o.resume {
		var err error
		if man, err = harness.OpenManifest(o.manifest); err != nil {
			return nil, nil, err
		}
	} else {
		// A fresh (non-resume) run must not inherit stale cells: reset the
		// file now so a crash before the first completed cell leaves a valid
		// empty manifest, not last week's.
		man = harness.NewManifest(o.manifest)
		if err := man.Flush(); err != nil {
			return nil, nil, err
		}
	}
	sup.Cache = man
	return sup, man, nil
}

// runRemote ships the sweep to an nmsimd daemon and prints the returned
// report verbatim. The daemon renders through the same registry and
// report code, so the bytes match the in-process path — the smoke script
// cmp's exactly this. The failed-cell count arrives in a header, keeping
// the local exit-code contract.
func runRemote(ctx context.Context, o options, out io.Writer) (int, error) {
	p, err := o.params()
	if err != nil {
		return 0, err
	}
	if o.jobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.jobTimeout)
		defer cancel()
	}
	c := &serve.Client{BaseURL: o.server}
	body, failed, err := c.Sweep(ctx, serve.SweepRequest{
		Exp:        o.exp,
		N:          o.n,
		Seed:       o.seed,
		Cores:      o.cores,
		SPMiB:      o.spMiB,
		Format:     o.format,
		CoreList:   p.CoreList,
		FaultSeed:  p.FaultSeed,
		FaultRates: p.FaultRates,
		EpochPS:    int64(p.Epoch),
		Par:        o.par,
		Retries:    o.retries,
		RetrySeed:  o.retrySeed,
		Slice:      o.slice,
	})
	if err != nil {
		return 0, err
	}
	_, err = out.Write(body)
	return failed, err
}

// run executes the selected experiment under supervision and writes the
// series to out — including after cancellation or cell failures, when the
// partially-filled report (with marked rows) is the flush the shutdown
// path promises. It returns the count of failed cells. Every experiment
// yields a harness.Sweep, so fault, timeline, and plain sweeps all render
// through the same table path.
func run(ctx context.Context, o options, out io.Writer) (int, error) {
	if o.server != "" {
		return runRemote(ctx, o, out)
	}
	f, _ := report.ParseFormat(o.format)
	sup, man, err := supervisor(ctx, o)
	if err != nil {
		return 0, err
	}
	defer sup.Timings.WriteTo(os.Stderr)
	w := harness.Workload{
		N:       o.n,
		Seed:    o.seed,
		Threads: o.cores,
		SP:      units.Bytes(o.spMiB) * units.MiB,
		Par:     o.par,
		Sup:     sup,
	}
	e, _ := harness.FindExperiment(o.exp)
	p, err := o.params()
	if err != nil {
		return 0, err
	}
	s, err := e.Run(p, w)
	if err != nil {
		return 0, err
	}
	if err := harness.Render(out, s, f); err != nil {
		return s.Failed(), err
	}
	if man != nil {
		if err := man.Flush(); err != nil {
			return s.Failed(), err
		}
	}
	return s.Failed(), nil
}

func main() {
	o, fs, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(exitUsage) // the FlagSet already printed the error and usage
	}
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		fs.Usage()
		os.Exit(exitUsage)
	}
	profiles, err := prof.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(exitFatal)
	}
	// Graceful shutdown: the first SIGINT/SIGTERM cancels the context, the
	// running slice finishes, untouched cells cancel, and run still writes
	// the partial report (the manifest is already on disk per cell). A
	// second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	failed, runErr := run(ctx, o, os.Stdout)
	// Stop even on failure: a profile of the partial run is still useful.
	if err := profiles.Stop(); runErr == nil {
		runErr = err
	}
	switch {
	case runErr != nil:
		fmt.Fprintf(os.Stderr, "sweep: %v\n", runErr)
		if ctx.Err() != nil && errors.Is(runErr, ctx.Err()) {
			// The error IS the interrupt: report it under the interrupt code.
			os.Exit(exitInterrupted)
		}
		os.Exit(exitFatal)
	case ctx.Err() != nil:
		fmt.Fprintf(os.Stderr, "sweep: interrupted (%v); partial report written, %d cells incomplete\n", ctx.Err(), failed)
		os.Exit(exitInterrupted)
	case failed > 0:
		fmt.Fprintf(os.Stderr, "sweep: completed with %d failed cells (marked in the report)\n", failed)
		os.Exit(exitFailedCells)
	}
}
