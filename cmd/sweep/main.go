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
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/prof"
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

// The experiment registry lives in harness.Experiments, and a run is a
// serve.SweepRequest — the value nmsim and the nmsimd daemon run too. This
// command owns only the flag strings' parsing into that request and the
// rules only a command line has.

// usageTable renders the registry as the experiment section of the usage
// text: one aligned row per experiment.
func usageTable() string {
	var b strings.Builder
	for _, e := range harness.Experiments {
		fmt.Fprintf(&b, "  %-10s %s\n", e.Name, e.Desc)
	}
	return b.String()
}

// options holds every flag value: the ones a run's request carries parse
// straight into it, the rest stay here. Validation is separated from parsing
// so bad combinations fail fast with a usage hint and are testable.
type options struct {
	req serve.SweepRequest
	// -corelist, -fault-rates and -epoch; request parses the one the
	// experiment reads.
	list, faultRates, epoch string

	cpuProfile string
	memProfile string
	timings    bool

	manifest   string
	resume     bool
	timeout    time.Duration
	traceCache string

	server     string
	jobTimeout time.Duration
}

// parseFlags parses args (without the program name) into options.
func parseFlags(args []string) (options, *flag.FlagSet, error) {
	var o options
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.StringVar(&o.req.Exp, "exp", "bandwidth", "experiment: "+strings.Join(harness.ExperimentNames(), ", "))
	fs.IntVar(&o.req.N, "n", serve.DefaultN, "keys to sort")
	fs.IntVar(&o.req.Cores, "cores", serve.DefaultCores, "simulated cores for the bandwidth/dma/faults/timeline sweeps")
	fs.StringVar(&o.list, "corelist", "64,128,192,256", "core counts for -exp=cores")
	fs.IntVar(&o.req.SPMiB, "sp", serve.DefaultSPMiB, "scratchpad capacity in MiB")
	fs.Uint64Var(&o.req.Seed, "seed", serve.DefaultSeed, "input seed")
	fs.StringVar(&o.req.Format, "format", serve.DefaultFormat, "output format: text, csv, markdown")
	fs.Uint64Var(&o.req.FaultSeed, "fault-seed", 1, "fault-injection seed for -exp=faults (0 disables injection)")
	fs.StringVar(&o.faultRates, "fault-rates", "", "comma-separated bit error rates for -exp=faults (empty = default axis)")
	fs.StringVar(&o.epoch, "epoch", "10us", "telemetry sampling epoch for -exp=timeline (e.g. 500ns, 10us)")
	fs.IntVar(&o.req.Par, "par", 0, "replays in flight at once; output is byte-identical at any value (0 = GOMAXPROCS, 1 = one replay at a time); recordings run beside the replays and are not counted")
	fs.BoolVar(&o.timings, "timings", false, "print one line per recording and per cell to stderr: lane, start and end since process start, cached/shared marks (host time; changes no output or manifest byte)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.manifest, "manifest", "", "checkpoint completed sweep cells to this JSON file (written atomically after each cell)")
	fs.BoolVar(&o.resume, "resume", false, "load -manifest and skip cells it already holds; the final report is byte-identical to an uninterrupted run")
	fs.Uint64Var(&o.req.Slice, "slice", 0, "executed events per supervised replay slice; cancellation is polled between slices (0 = default); a replay executes about half the events it did before event elision")
	fs.IntVar(&o.req.Retries, "retries", 0, "deterministic re-replays of cells ending in a transient MemFault outcome")
	fs.Uint64Var(&o.req.RetrySeed, "retry-seed", 1, "seed for the deterministic retry reseeding chain")
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

// validate rejects inconsistent flag combinations before any work is done:
// the rules only a command line has here, then the request's own Validate.
func (o options) validate() error {
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
		case o.manifest != "":
			return fmt.Errorf("-manifest is local-only and conflicts with -server (the daemon keeps its own result cache)")
		case o.resume:
			return fmt.Errorf("-resume conflicts with -server")
		case o.traceCache != "":
			return fmt.Errorf("-trace-cache is local-only and conflicts with -server (the daemon keeps its own trace store)")
		case o.req.N == 0:
			return fmt.Errorf("-n 0 cannot travel to -server (the wire treats 0 as the default %d)", serve.DefaultN)
		case o.req.Seed == 0:
			return fmt.Errorf("-seed 0 cannot travel to -server (the wire treats 0 as the default %d)", serve.DefaultSeed)
		}
	}
	req, err := o.request()
	if err != nil {
		return err
	}
	return req.Validate()
}

// request builds the sweep's one description from the flags. Only the list
// flags the experiment reads are parsed, keeping the historical behavior
// that a junk -corelist is ignored outside -exp=cores.
func (o options) request() (serve.SweepRequest, error) {
	req := o.req
	var err error
	switch req.Exp {
	case "cores":
		req.CoreList, err = parseCoreList(o.list)
	case "faults":
		req.FaultRates, err = parseRates(o.faultRates)
	case "timeline":
		var epoch units.Time
		if epoch, err = units.ParseTime(o.epoch); err != nil {
			err = fmt.Errorf("-epoch: %v", err)
		} else if epoch == 0 {
			// The wire would read 0 as the default epoch.
			err = fmt.Errorf("-epoch %s must be positive", o.epoch)
		}
		req.EpochPS = int64(epoch)
	}
	return req, err
}

// parseCoreList parses the -corelist flag's integers; Validate holds them
// to the core-count rule.
func parseCoreList(list string) ([]int, error) {
	var cc []int
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("-corelist: bad core count %q (not an integer)", f)
		}
		cc = append(cc, v)
	}
	return cc, nil
}

// parseRates parses the -fault-rates flag's numbers; Validate holds them to
// the fault-rate rule. An empty flag selects the default axis.
func parseRates(list string) ([]float64, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var rates []float64
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("-fault-rates: bad fault rate %q (not a number)", f)
		}
		rates = append(rates, v)
	}
	return rates, nil
}

// supervisor builds the supervised runtime from the flags: cancellation
// from ctx, the -timings stage recorder, the -trace-cache directory, and
// the manifest (fresh or resumed) as its cell cache — returned too, nil
// without -manifest, for run's final flush. The request's retry policy and
// slice reach it through serve.RunSweep. Every sweep cell runs under it, and
// none of what it adds to the zero Supervisor moves a byte of the report.
func supervisor(ctx context.Context, o options) (*harness.Supervisor, *harness.Manifest, error) {
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

// run executes the selected experiment under supervision and writes the
// series to out — including after cancellation or cell failures, when the
// partially-filled report (with marked rows) is the flush the shutdown
// path promises. It returns the count of failed cells. With -server the
// daemon runs the same request through the same serve.RunSweep and the
// report is printed verbatim; the failed count arrives in a header.
func run(ctx context.Context, o options, out io.Writer) (int, error) {
	req, err := o.request()
	if err != nil {
		return 0, err
	}
	if o.server != "" {
		c := &serve.Client{BaseURL: o.server, HTTP: &http.Client{Timeout: o.jobTimeout}}
		return c.SweepTo(ctx, out, req)
	}
	sup, man, err := supervisor(ctx, o)
	if err != nil {
		return 0, err
	}
	defer sup.Timings.WriteTo(os.Stderr)
	failed, err := serve.RunSweep(out, req, sup)
	if err == nil && man != nil {
		err = man.Flush()
	}
	return failed, err
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
