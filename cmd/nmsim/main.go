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
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/units"
	"repro/internal/workload"
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

// options holds every flag value; validation is separated from flag
// parsing so bad combinations are rejected up front with a usage hint and
// a non-zero exit, and so the rules are testable without a process.
type options struct {
	n         int
	cores     int
	spMiB     int
	seed      uint64
	dma       bool
	format    string
	dist      string
	faultSeed uint64
	faultRate float64
	maxEvents uint64
	par       int

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
	var o options
	fs := flag.NewFlagSet("nmsim", flag.ContinueOnError)
	fs.IntVar(&o.n, "n", 1<<20, "keys to sort")
	fs.IntVar(&o.cores, "cores", 256, "simulated cores (multiple of 4)")
	fs.IntVar(&o.spMiB, "sp", 2, "scratchpad capacity in MiB")
	fs.Uint64Var(&o.seed, "seed", 2015, "input seed")
	fs.BoolVar(&o.dma, "dma", false, "use the §VII DMA engines in NMsort")
	fs.StringVar(&o.format, "format", "text", "output format: text, csv, markdown")
	fs.StringVar(&o.dist, "dist", "uniform", "key distribution: uniform, zipf, sorted, reverse, fewkeys, gaussian, runblend")
	fs.Uint64Var(&o.faultSeed, "fault-seed", 1, "fault-injection seed (0 disables injection)")
	fs.Float64Var(&o.faultRate, "fault-rate", 0, "far-memory bit error rate per read, in [0, 1] (0 disables injection)")
	fs.Uint64Var(&o.maxEvents, "max-events", 0, "per-replay budget of executed events (0 = generous default); elided events are not counted, so Table I runs ~31M where it ran ~64M before event elision")
	fs.IntVar(&o.par, "par", 0, "replays in flight at once; output is byte-identical at any value (0 = GOMAXPROCS, 1 = one replay at a time); recordings run beside the replays and are not counted")
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

// validate rejects inconsistent flag combinations before any work is done.
func (o options) validate() error {
	switch {
	case o.n < 0:
		return fmt.Errorf("-n %d is negative", o.n)
	case o.cores <= 0 || o.cores%4 != 0:
		return fmt.Errorf("-cores %d must be a positive multiple of 4", o.cores)
	case o.spMiB <= 0:
		return fmt.Errorf("-sp %d MiB must be positive", o.spMiB)
	case o.faultRate < 0 || o.faultRate > 1:
		return fmt.Errorf("-fault-rate %v must be in [0, 1]", o.faultRate)
	case o.par < 0:
		return fmt.Errorf("-par %d is negative (0 means GOMAXPROCS)", o.par)
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
		case o.n == 0:
			return fmt.Errorf("-n 0 cannot travel to -server (the wire treats 0 as the default %d)", 1<<20)
		case o.seed == 0:
			return fmt.Errorf("-seed 0 cannot travel to -server (the wire treats 0 as the default 2015)")
		}
	}
	if _, err := report.ParseFormat(o.format); err != nil {
		return err
	}
	if _, err := workload.Parse(o.dist); err != nil {
		return err
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
	if o.faultRate > 0 {
		return o.faultConfig().Validate()
	}
	return nil
}

// faultConfig derives the injected fault environment from the flags.
func (o options) faultConfig() fault.Config {
	if o.faultRate == 0 {
		return fault.Config{}
	}
	return fault.Profile(o.faultSeed, o.faultRate)
}

// experiment names the registry entry nmsim runs, here or on a daemon.
const experiment = "table1"

// runRemote ships Table I to an nmsimd daemon and prints the returned
// table verbatim; the daemon runs the same registry entry, so the bytes
// match the in-process path.
func runRemote(ctx context.Context, o options, w io.Writer) (int, error) {
	if o.jobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.jobTimeout)
		defer cancel()
	}
	c := &serve.Client{BaseURL: o.server}
	body, failed, err := c.Sweep(ctx, serve.SweepRequest{
		Exp:       experiment,
		N:         o.n,
		Seed:      o.seed,
		Cores:     o.cores,
		SPMiB:     o.spMiB,
		Format:    o.format,
		DMA:       o.dma,
		Dist:      o.dist,
		FaultSeed: o.faultSeed,
		FaultRate: o.faultRate,
		MaxEvents: o.maxEvents,
		Par:       o.par,
	})
	if err != nil {
		return 0, err
	}
	_, err = w.Write(body)
	return failed, err
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
// replays that did not complete.
func run(ctx context.Context, o options, w io.Writer) (int, error) {
	if o.server != "" {
		return runRemote(ctx, o, w)
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
	f, _ := report.ParseFormat(o.format)
	d, _ := workload.Parse(o.dist)
	wl := harness.Workload{
		N:         o.n,
		Seed:      o.seed,
		Threads:   o.cores,
		SP:        units.Bytes(o.spMiB) * units.MiB,
		Dist:      d,
		MaxEvents: o.maxEvents,
		Par:       o.par,
		Sup:       sup,
	}
	e, _ := harness.FindExperiment(experiment)
	t, err := e.Run(harness.ExperimentParams{DMA: o.dma, Fault: o.faultConfig()}, wl)
	if err != nil {
		return 0, err
	}
	failed := t.Failed()
	if err := harness.Render(w, t, f); err != nil {
		return failed, err
	}
	if o.telemetry() {
		return failed, runTelemetry(o, wl, w, f)
	}
	return failed, nil
}

// runTelemetry replays the NMsort trace on the 4X node with a telemetry
// recorder, writes the requested export files, and appends the per-phase
// breakdown to the report.
func runTelemetry(o options, wl harness.Workload, w io.Writer, f report.Format) error {
	epoch, _ := units.ParseTime(o.telemetryEpoch)
	alg := harness.AlgNMSort
	if o.dma {
		alg = harness.AlgNMSortDM
	}
	res, tel, err := harness.RunTimeline(alg, wl, 16, epoch, o.faultConfig())
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
