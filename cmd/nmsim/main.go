// Command nmsim reproduces the paper's Table I: it records the GNU-sort
// baseline and NMsort on a scaled workload, replays the traces through the
// simulated two-level-memory node at 2X/4X/8X near-memory bandwidth, and
// prints the sim time and per-level access counts. With -fault-rate > 0
// the replays run under the deterministic fault environment of
// internal/fault (ECC corrections and retries in the far memory, degraded
// near channels, NoC retransmissions); rows whose replay returned
// uncorrected data are marked "!".
//
// With -telemetry-out (Chrome trace-event JSON, loadable in Perfetto)
// and/or -telemetry-csv (time-series dump), nmsim additionally replays the
// NMsort trace on the 4X node with a telemetry recorder sampling every
// -telemetry-epoch of simulated time, writes the export files, and appends
// the per-phase bandwidth breakdown. Telemetry output is bit-identical
// across runs: same flags, same bytes.
//
// Usage:
//
//	nmsim [-n keys] [-cores n] [-sp MiB] [-seed s] [-dma]
//	      [-fault-seed s] [-fault-rate r] [-max-events n] [-par n] [-timings]
//	      [-telemetry-out f.trace.json] [-telemetry-csv f.csv] [-telemetry-epoch dur]
//	nmsim -server http://127.0.0.1:8080 [-job-timeout dur]
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
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/units"
)

// Exit codes: 0 success, 1 fatal error, 2 usage, 3 completed with failed
// replays (marked in the table), 130 interrupted by SIGINT/SIGTERM (the
// partial table is still written).
const (
	exitFatal       = 1
	exitUsage       = 2
	exitFailedCells = 3
	exitInterrupted = 130
)

// options holds every flag value: the ones Table I's request carries parse
// straight into it, the rest stay here. Validation is separated from flag
// parsing so bad combinations are rejected up front with a usage hint and a
// non-zero exit, and so the rules are testable without a process.
type options struct {
	req serve.SweepRequest

	telemetryOut   string
	telemetryCSV   string
	telemetryEpoch string

	cpuProfile string
	memProfile string
	timings    bool

	traceCache string

	server     string
	jobTimeout time.Duration
}

// parseFlags parses args (without the program name) into options.
func parseFlags(args []string) (options, *flag.FlagSet, error) {
	o := options{req: serve.SweepRequest{Exp: "table1"}}
	fs := flag.NewFlagSet("nmsim", flag.ContinueOnError)
	fs.IntVar(&o.req.N, "n", serve.DefaultN, "keys to sort")
	fs.IntVar(&o.req.Cores, "cores", serve.DefaultCores, "simulated cores (multiple of 4)")
	fs.IntVar(&o.req.SPMiB, "sp", 2, "scratchpad capacity in MiB")
	fs.Uint64Var(&o.req.Seed, "seed", serve.DefaultSeed, "input seed")
	fs.BoolVar(&o.req.DMA, "dma", false, "use the §VII DMA engines in NMsort")
	fs.StringVar(&o.req.Format, "format", serve.DefaultFormat, "output format: text, csv, markdown")
	fs.StringVar(&o.req.Dist, "dist", "uniform", "key distribution: uniform, zipf, sorted, reverse, fewkeys, gaussian, runblend")
	fs.Uint64Var(&o.req.FaultSeed, "fault-seed", 1, "fault-injection seed (0 disables injection)")
	fs.Float64Var(&o.req.FaultRate, "fault-rate", 0, "far-memory bit error rate per read, in [0, 1] (0 disables injection)")
	fs.Uint64Var(&o.req.MaxEvents, "max-events", 0, "per-replay budget of executed events (0 = generous default); elided events are not counted, so Table I runs ~31M where it ran ~64M before event elision")
	fs.IntVar(&o.req.Par, "par", 0, "replays in flight at once; output is byte-identical at any value (0 = GOMAXPROCS, 1 = one replay at a time); recordings run beside the replays and are not counted")
	fs.BoolVar(&o.timings, "timings", false, "print one line per recording and per replayed cell to stderr: lane, start and end since process start, cached/shared marks (host time; changes no output byte)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.telemetryOut, "telemetry-out", "", "write a Chrome trace-event JSON timeline (Perfetto-loadable) of the NMsort replay to this file")
	fs.StringVar(&o.telemetryCSV, "telemetry-csv", "", "write the sampled time series of the NMsort replay to this CSV file")
	fs.StringVar(&o.telemetryEpoch, "telemetry-epoch", "10us", "telemetry sampling resolution in simulated time (e.g. 500ns, 10us)")
	fs.StringVar(&o.traceCache, "trace-cache", "", "directory caching recorded traces as columnar .nmt3 files across runs (byte-neutral)")
	fs.StringVar(&o.server, "server", "", "run Table I on this nmsimd daemon (e.g. http://127.0.0.1:8080) instead of in-process; the printed table is byte-identical")
	fs.DurationVar(&o.jobTimeout, "job-timeout", 0, "HTTP deadline for the -server request (0 = none)")
	err := fs.Parse(args)
	return o, fs, err
}

// telemetry reports whether any telemetry export was requested.
func (o options) telemetry() bool { return o.telemetryOut != "" || o.telemetryCSV != "" }

// validate rejects inconsistent flag combinations before any work is done:
// the rules only a command line has here, then the request's own Validate.
func (o options) validate() error {
	switch {
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
		case o.traceCache != "":
			return fmt.Errorf("-trace-cache is local-only and conflicts with -server (the daemon keeps its own trace store)")
		case o.req.N == 0:
			return fmt.Errorf("-n 0 cannot travel to -server (the wire treats 0 as the default %d)", serve.DefaultN)
		case o.req.Seed == 0:
			return fmt.Errorf("-seed 0 cannot travel to -server (the wire treats 0 as the default %d)", serve.DefaultSeed)
		}
	}
	if o.telemetry() {
		epoch, err := units.ParseTime(o.telemetryEpoch)
		if err != nil {
			return fmt.Errorf("-telemetry-epoch: %v", err)
		}
		if epoch <= 0 {
			return fmt.Errorf("-telemetry-epoch %s must be positive", o.telemetryEpoch)
		}
	}
	return o.req.Validate()
}

// supervisor builds the supervised runtime from the flags: cancellation from
// ctx, the -trace-cache directory when given, and the -timings stage
// recorder. The telemetry replay runs under the same supervisor as Table I,
// so its memo hands it the NMsort trace Table I recorded.
func supervisor(ctx context.Context, o options) (*harness.Supervisor, error) {
	sup := &harness.Supervisor{Ctx: ctx}
	if o.traceCache != "" {
		rc, err := harness.NewDiskRecordCache(o.traceCache)
		if err != nil {
			return nil, err
		}
		sup.Records = rc
	}
	if o.timings {
		sup.Timings = prof.NewStages()
	}
	return sup, nil
}

// run executes the experiment under supervision and writes the table to w,
// including after cancellation, when the partially-filled table (with
// marked rows) is the graceful-shutdown flush. It returns the count of
// replays that did not complete. With -server the daemon runs the same
// request through the same serve.RunSweep and the table is printed verbatim.
func run(ctx context.Context, o options, w io.Writer) (int, error) {
	if o.server != "" {
		c := &serve.Client{BaseURL: o.server, HTTP: &http.Client{Timeout: o.jobTimeout}}
		return c.SweepTo(ctx, w, o.req)
	}
	sup, err := supervisor(ctx, o)
	if err != nil {
		return 0, err
	}
	defer sup.Timings.WriteTo(os.Stderr)
	return runLocal(o, sup, w)
}

// runLocal is run, in process, under the given supervisor.
func runLocal(o options, sup *harness.Supervisor, w io.Writer) (int, error) {
	failed, err := serve.RunSweep(w, o.req, sup)
	if err != nil || !o.telemetry() {
		return failed, err
	}
	return failed, runTelemetry(o, sup, w)
}

// runTelemetry replays the NMsort trace on the 4X node with a telemetry
// recorder, on Table I's workload and fault environment, writes the
// requested export files, and appends the per-phase breakdown to the report.
func runTelemetry(o options, sup *harness.Supervisor, w io.Writer) error {
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
		if err := writeFile(o.telemetryOut, tel.ExportChrome); err != nil {
			return err
		}
	}
	if o.telemetryCSV != "" {
		if err := writeFile(o.telemetryCSV, tel.WriteCSV); err != nil {
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

// writeFile writes one telemetry export, surfacing both write and close
// errors (a full disk shows up at close).
func writeFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return write(f)
}

func main() {
	o, fs, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(exitUsage) // the FlagSet already printed the error and usage
	}
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "nmsim: %v\n", err)
		fs.Usage()
		os.Exit(exitUsage)
	}
	profiles, err := prof.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nmsim: %v\n", err)
		os.Exit(exitFatal)
	}
	// Graceful shutdown: the first SIGINT/SIGTERM cancels the context, the
	// supervised replays stop at their next slice boundary, and run still
	// writes the partial table. A second signal kills the process the
	// default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	failed, runErr := run(ctx, o, os.Stdout)
	// Stop even on failure: a profile of the partial run is still useful.
	if err := profiles.Stop(); runErr == nil {
		runErr = err
	}
	switch {
	case runErr != nil:
		fmt.Fprintf(os.Stderr, "nmsim: %v\n", runErr)
		if ctx.Err() != nil && errors.Is(runErr, ctx.Err()) {
			// The error IS the interrupt (e.g. the telemetry replay was
			// cancelled mid-flight): report it under the interrupt code.
			os.Exit(exitInterrupted)
		}
		os.Exit(exitFatal)
	case ctx.Err() != nil:
		fmt.Fprintf(os.Stderr, "nmsim: interrupted (%v); partial table written, %d replays incomplete\n", ctx.Err(), failed)
		os.Exit(exitInterrupted)
	case failed > 0:
		fmt.Fprintf(os.Stderr, "nmsim: completed with %d failed replays (marked in the table)\n", failed)
		os.Exit(exitFailedCells)
	}
}
