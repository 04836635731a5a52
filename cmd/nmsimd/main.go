// Command nmsimd is the sweep-as-a-service daemon: a long-running HTTP
// server exposing the deterministic replay kernel — content-addressed
// trace store (record or upload once, shared read-only by every replay),
// CellKey-addressed result cache (identical jobs answered without
// re-simulation, byte for byte), bounded admission gate (429 on
// overload), and NDJSON streaming telemetry for long jobs.
//
// Usage:
//
//	nmsimd [-addr host:port] [-workers n] [-queue n] [-store-mb n]
//	       [-cache-entries n] [-drain dur]
//
// A replay past 3 events per trace op plus one per thread (machine.EventBound)
// is a runaway: its job fails with a budget error. Nothing sets that bound.
//
// Endpoints (see internal/serve): POST /v1/traces, POST /v1/traces/record,
// GET /v1/traces/{digest}, POST /v1/jobs, POST /v1/sweeps, GET /v1/stats,
// GET /v1/experiments. cmd/sweep -server and cmd/nmsim -server are the
// first-party clients.
//
// SIGINT/SIGTERM drains gracefully: the listener closes, in-flight jobs
// run to completion (bounded by -drain), and the process exits 0. A
// second signal kills it the default way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

// Exit codes: 0 clean (including signal-initiated drain), 1 fatal, 2 usage.
const (
	exitFatal = 1
	exitUsage = 2
)

// options holds every flag value; validation is separated from parsing so
// bad combinations fail fast with a usage hint and are testable.
type options struct {
	addr         string
	workers      int
	queue        int
	storeMB      int
	cacheEntries int
	drain        time.Duration
}

// parseFlags parses args (without the program name) into options.
func parseFlags(args []string) (options, *flag.FlagSet, error) {
	var o options
	fs := flag.NewFlagSet("nmsimd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	fs.IntVar(&o.workers, "workers", 0, "concurrently running jobs (0 = 4)")
	fs.IntVar(&o.queue, "queue", 64, "jobs waiting beyond -workers before 429")
	fs.IntVar(&o.storeMB, "store-mb", 256, "trace store budget in MiB (pinned in-flight traces may exceed it); a trace costs ~3.3 B/op however it arrived (recorded, v2 or v3 upload), and recordings kept for later requests live here too")
	fs.IntVar(&o.cacheEntries, "cache-entries", 4096, "result cache capacity in completed cells")
	fs.DurationVar(&o.drain, "drain", 10*time.Second, "grace period for in-flight jobs on shutdown (0 = wait forever)")
	err := fs.Parse(args)
	return o, fs, err
}

// validate rejects inconsistent flag values before any work is done.
func (o options) validate() error {
	switch {
	case o.addr == "":
		return fmt.Errorf("-addr must not be empty")
	case o.workers < 0:
		return fmt.Errorf("-workers %d is negative (0 means the default)", o.workers)
	case o.queue < 0:
		return fmt.Errorf("-queue %d is negative", o.queue)
	case o.storeMB <= 0:
		return fmt.Errorf("-store-mb %d must be positive", o.storeMB)
	case o.cacheEntries < 0:
		return fmt.Errorf("-cache-entries %d is negative", o.cacheEntries)
	case o.drain < 0:
		return fmt.Errorf("-drain %v is negative", o.drain)
	}
	if _, _, err := net.SplitHostPort(o.addr); err != nil {
		return fmt.Errorf("-addr %q: %v", o.addr, err)
	}
	return nil
}

// run serves on lis until ctx is cancelled, then drains gracefully:
// Shutdown waits for in-flight requests up to -drain, after which the
// server force-closes (cancelling each request's context, so supervised
// replays abandon at their next slice boundary). The listener is passed
// in so tests and port-0 callers learn the bound address; the printed
// line is the startup handshake scripts wait for.
func run(ctx context.Context, o options, lis net.Listener, out io.Writer) error {
	srv := serve.New(serve.Config{
		Workers:      o.workers,
		Queue:        o.queue,
		StoreBytes:   int64(o.storeMB) << 20,
		CacheEntries: o.cacheEntries,
	})
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(out, "nmsimd: listening on %s\n", lis.Addr())
	// context.AfterFunc is the shutdown trigger (the runtime runs the
	// callback on its own goroutine — this package, like the rest of the
	// repo outside internal/par, contains no go statements).
	unregister := context.AfterFunc(ctx, func() {
		dctx := context.Background()
		if o.drain > 0 {
			var cancel context.CancelFunc
			dctx, cancel = context.WithTimeout(dctx, o.drain)
			defer cancel()
		}
		if err := hs.Shutdown(dctx); err != nil {
			// Drain expired: force-close, which cancels in-flight request
			// contexts and unblocks Serve.
			hs.Close()
		}
	})
	defer unregister()
	err := hs.Serve(lis)
	if errors.Is(err, http.ErrServerClosed) {
		return nil // clean drain
	}
	return err
}

func main() {
	o, fs, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(exitUsage) // the FlagSet already printed the error and usage
	}
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "nmsimd: %v\n", err)
		fs.Usage()
		os.Exit(exitUsage)
	}
	lis, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nmsimd: %v\n", err)
		os.Exit(exitFatal)
	}
	// First SIGINT/SIGTERM starts the drain; a second kills the process
	// the default way (NotifyContext unregisters after cancellation).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, lis, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "nmsimd: %v\n", err)
		os.Exit(exitFatal)
	}
}
