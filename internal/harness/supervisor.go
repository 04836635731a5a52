package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// The supervised execution runtime: every replay of every sweep runs under
// a Supervisor, which polls for cancellation and chaos every slice of
// executed events (the engine pauses its one RunBudget call to do so,
// leaving no trace in the replay), contains panics to their cell, retries
// transient MemFault outcomes deterministically, and checkpoints completed
// cells in a Manifest so an interrupted sweep resumes to a byte-identical
// report. A nil Supervisor is the zero one, substituted where a supervisor
// enters the harness.

// defaultSlice is how many executed events a supervised replay runs
// between cancellation polls: small enough that cancellation latency stays
// in the milliseconds on the paper's configurations, large enough that a
// poll is noise next to event execution. No flag or request field sets it.
const defaultSlice uint64 = 1 << 16

// CellKey identifies one sweep cell content-addressably: the digest of
// the recorded trace and the digest of the machine configuration (plus
// the supervisor's retry policy, which changes fault outcomes). Equal
// keys mean byte-identical replays, so a manifest entry under this key
// can stand in for re-running the cell.
type CellKey struct {
	Trace  uint64 // trace.Digest of the recorded stream
	Config uint64 // ConfigDigest of the machine.Config + retry policy
}

// String renders the key in the manifest's stable hex form.
func (k CellKey) String() string { return fmt.Sprintf("t%016x-c%016x", k.Trace, k.Config) }

// ReplayPanicError is a panic contained to its sweep cell: the panic
// value and the cell's coordinates.
// The sweep continues; the cell renders as a marked row.
type ReplayPanicError struct {
	Cell  CellKey
	Label string // the cell's report label, when the sweep provided one
	Value any    // the recovered panic value
}

// Error implements error.
func (e *ReplayPanicError) Error() string {
	return fmt.Sprintf("harness: replay %s (cell %s) panicked: %v", e.Label, e.Cell, e.Value)
}

// CancelledError marks a cell abandoned by cancellation — a context
// deadline, a signal, or a chaos interrupt — between event-budget slices.
// Unwrap exposes the cause, so errors.Is(err, context.Canceled) works.
type CancelledError struct {
	Cell  CellKey
	Label string
	Cause error
}

// Error implements error.
func (e *CancelledError) Error() string {
	return fmt.Sprintf("harness: replay %s (cell %s) cancelled: %v", e.Label, e.Cell, e.Cause)
}

// Unwrap exposes the cancellation cause to errors.Is/As.
func (e *CancelledError) Unwrap() error { return e.Cause }

// Supervisor wraps sweep replays in the supervised runtime. The zero
// value is usable — no context, no manifest, no retries, default slice —
// and is what a nil *Supervisor in a Workload or a sweep means.
// One Supervisor may serve many sweeps in sequence, and they share its
// recordings: each (algorithm, RecordKey) is recorded once per supervisor,
// which keeps the trace until it is dropped. Its methods are goroutine-safe
// with respect to the worker pool (cells run concurrently).
type Supervisor struct {
	// Ctx, when non-nil, is polled between event-budget slices: a
	// deadline or cancellation abandons the running cell with a
	// CancelledError and skips all cells not yet started.
	Ctx context.Context

	// Slice is the executed events between cancellation polls; 0 means
	// defaultSlice. Only tests set it.
	Slice uint64

	// Retries bounds deterministic re-replays of cells whose replay
	// completed with a transient MemFault outcome while fault injection
	// is active. Each retry reseeds the fault stream from
	// xrand.Mix(RetrySeed, trace, config, attempt) — no wall clock
	// anywhere in the decision, so retry outcomes are reproducible.
	Retries   int
	RetrySeed uint64

	// Cache, when non-nil, checkpoints completed cells: lookups skip
	// replays it already holds, and every completed cell is written
	// through. cmd/sweep plugs a *Manifest in here (atomic on-disk
	// checkpoints), the serving layer its in-memory result cache. Equal
	// keys stand in for byte-identical replays; cells with telemetry
	// recorders attached never use it (their recorder must actually record).
	Cache CellCache

	// Records, when non-nil, holds recordings across supervised runs: the
	// -trace-cache directory, or the daemon's trace store. Within one
	// supervisor every (algorithm, RecordKey) is recorded or looked up once
	// anyway — the supervisor memoizes its own recordings, writing fresh ones
	// through to Records. Byte-neutral: equal workloads record byte-identical
	// traces, so a cached trace replays identically to a re-recorded one.
	Records RecordCache

	// Timings, when non-nil, records one host-time stage per recording and
	// per cell (nmsim/sweep -timings). Observation only: nothing read from
	// it reaches a result, a key or a manifest.
	Timings *prof.Stages

	// Interrupt, when non-nil, is polled between slices alongside Ctx —
	// the deterministic chaos hook. It must be goroutine-safe. A non-nil
	// return cancels like a context cancellation.
	Interrupt func() error

	// stop latches the first cancellation cause: once any cell observes
	// cancellation, every later poll fails fast without re-deriving it.
	stop atomic.Pointer[error]

	// recorded is the supervisor's record memo, allocated on first use: every
	// recording this supervisor made or found, kept as long as it lives.
	recMu    sync.Mutex
	recorded map[recordKey]RecordResult
}

// recordKey is one memoized recording: the workload normalized by RecordKey
// is comparable and pointer-free.
type recordKey struct {
	alg Algorithm
	w   Workload
}

// CellCache is a checkpoint store for completed sweep cells, keyed
// content-addressably by CellKey. Implementations must be goroutine-safe:
// pool workers look up and complete cells concurrently. *Manifest is the
// on-disk implementation; internal/serve provides an in-memory LRU.
type CellCache interface {
	// Lookup returns the stored outcome for key, if any.
	Lookup(key CellKey) (CellOutcome, bool)
	// Complete stores a finished cell's outcome. An error fails the cell
	// (a checkpoint that cannot persist must not be silently dropped).
	Complete(key CellKey, cell CellOutcome) error
}

// RecordCache holds Record() results across supervised runs. The key
// workload is normalized by the caller (replay-only knobs zeroed), so
// implementations may use it directly as a map key. *DiskRecordCache is the
// on-disk implementation; internal/serve's trace store is the daemon's. Must
// be goroutine-safe.
type RecordCache interface {
	LookupRecord(alg Algorithm, w Workload) (RecordResult, bool)
	CompleteRecord(alg Algorithm, w Workload, res RecordResult)
}

// record is Record under this supervisor: its memo, then Records, then a
// fresh recording written through to Records; whatever answered is
// memoized. It reports whether the recording was found rather than made.
// The lock guards the map only, never a recording or a call into Records:
// two goroutines recording one key at once may both record it, byte-identical
// traces, and the memo keeps the later. A schedule's recorder lane records
// one trace at a time, so sweeps never do.
func (sup *Supervisor) record(alg Algorithm, w Workload) (RecordResult, bool, error) {
	key := recordKey{alg, RecordKey(w)}
	sup.recMu.Lock()
	res, found := sup.recorded[key]
	sup.recMu.Unlock()
	if found {
		return res, true, nil
	}
	if sup.Records != nil {
		res, found = sup.Records.LookupRecord(alg, key.w)
	}
	if !found {
		var err error
		if res, err = recordNative(alg, w); err != nil {
			return res, false, err
		}
		if sup.Records != nil {
			sup.Records.CompleteRecord(alg, key.w, res)
		}
	}
	sup.recMu.Lock()
	if sup.recorded == nil {
		sup.recorded = make(map[recordKey]RecordResult)
	}
	sup.recorded[key] = res
	sup.recMu.Unlock()
	return res, found, nil
}

// interrupted reports the sticky cancellation state, latching the first
// cause it observes from the context or the chaos hook.
func (sup *Supervisor) interrupted() error {
	if p := sup.stop.Load(); p != nil {
		return *p
	}
	var cause error
	if sup.Ctx != nil {
		cause = sup.Ctx.Err()
	}
	if cause == nil && sup.Interrupt != nil {
		cause = sup.Interrupt()
	}
	if cause == nil {
		return nil
	}
	sup.stop.CompareAndSwap(nil, &cause)
	return *sup.stop.Load()
}

// ConfigDigest is the keyDigest of a machine configuration and the retry
// policy, which changes fault outcomes: the one cell key of the checkpoint
// manifest and the serving layer's result cache. Its result-neutral fields
// are zeroed first: Shards (see machine.Config.Shards), and Telemetry, a
// recorder pointer, not a value (telemetry cells skip cache use anyway).
func ConfigDigest(cfg machine.Config, retries int, retrySeed uint64) uint64 {
	cfg.Shards = 0
	cfg.Telemetry = nil
	return keyDigest(struct {
		Config             machine.Config
		Retries, RetrySeed uint64
	}{cfg, uint64(retries), retrySeed})
}

// cellKeys derives every job's CellKey. Trace digests are memoized on the
// trace itself (sweeps share one recorded trace across many cells, and a
// recording's digest rode its validation walk), so this is cheap. Runs as a
// trace is published, before any of its cells can be claimed.
func (sup *Supervisor) cellKeys(jobs []replayJob) ([]CellKey, error) {
	keys := make([]CellKey, len(jobs))
	for i, j := range jobs {
		td, err := j.tr.Digest()
		if err != nil {
			return nil, fmt.Errorf("harness: digesting trace for cell %d: %w", i, err)
		}
		keys[i] = CellKey{Trace: td, Config: ConfigDigest(j.cfg, sup.Retries, sup.RetrySeed)}
	}
	return keys, nil
}

// ReplayCell runs one supervised cell by itself — the serving layer's
// entry point into the supervised runtime. It derives the cell's key,
// then executes the full runCell path: cache lookup, sliced replay with
// panic containment, deterministic MemFault retries, checkpoint write.
// The returned outcome is valid whenever err is nil, and the bool says
// whether Cache answered it — taken from the lookup itself, so a cache that
// counts its hits agrees with it however identical cells race.
func (sup *Supervisor) ReplayCell(cfg machine.Config, tr trace.Source, label string) (CellKey, CellOutcome, bool, error) {
	td, err := tr.Digest()
	if err != nil {
		return CellKey{}, CellOutcome{}, false, fmt.Errorf("harness: digesting trace: %w", err)
	}
	key := CellKey{Trace: td, Config: ConfigDigest(cfg, sup.Retries, sup.RetrySeed)}
	out := sup.runCell(replayJob{cfg: cfg, tr: tr, label: label}, key)
	if out.err != nil {
		return key, CellOutcome{}, false, out.err
	}
	return key, CellOutcome{MemFault: out.memFault, Attempts: out.attempts, Result: out.res}, out.cached, nil
}

// runCell executes one supervised cell end to end: manifest lookup,
// sliced replay with panic containment, deterministic MemFault retries,
// and the checkpoint write. Called concurrently from pool workers.
func (sup *Supervisor) runCell(j replayJob, key CellKey) replayOut {
	return sup.cell(j, key, func() replayOut { return sup.replay(j, key) })
}

// cell is the checkpoint protocol around one cell's outcome, wherever the
// outcome comes from — its own replay, or (runReplays) a representative's:
// a stored outcome under the cell's key wins, a cancelled sweep starts no
// new cell, and a successful outcome is written through under that key.
func (sup *Supervisor) cell(j replayJob, key CellKey, outcome func() replayOut) replayOut {
	useCache := sup.Cache != nil && j.cfg.Telemetry == nil
	if useCache {
		if c, ok := sup.Cache.Lookup(key); ok {
			return replayOut{res: c.Result, memFault: c.MemFault, attempts: c.Attempts, cached: true}
		}
	}
	if err := sup.interrupted(); err != nil {
		return replayOut{err: &CancelledError{Cell: key, Label: j.label, Cause: err}}
	}
	out := outcome()
	if out.err == nil && useCache {
		if err := sup.Cache.Complete(key, CellOutcome{
			MemFault: out.memFault, Attempts: out.attempts, Result: out.res,
		}); err != nil {
			out.err = err
		}
	}
	return out
}

// replay runs the cell's attempts: one sliced replay, then up to Retries
// deterministic re-replays of a MemFault outcome.
func (sup *Supervisor) replay(j replayJob, key CellKey) replayOut {
	out := sup.attempt(j, key)
	attempts := 1
	var mf *fault.MemFaultError
	for errors.As(out.err, &mf) && attempts <= sup.Retries {
		// The outcome is valid data but the simulated program read
		// uncorrected bits — the transient class worth re-running. Reseed
		// the fault stream deterministically and replay the cell.
		rj := j
		rj.cfg.Fault.Seed = xrand.Mix(sup.RetrySeed, key.Trace, key.Config, uint64(attempts))
		out = sup.attempt(rj, key)
		attempts++
	}
	if errors.As(out.err, &mf) {
		// Retries exhausted (or disabled): tolerate the MemFault outcome as
		// data — the result is complete and correctly timed, only the
		// simulated program's output is poisoned.
		out.memFault = true
		out.err = nil
	}
	out.attempts = attempts
	return out
}

// attempt runs one sliced replay with panic containment. The machine is
// built inside the recover scope, so a config that fails validation (New
// panics) becomes a ReplayPanicError for its cell instead of killing the
// sweep. So does a memory fault: a trace replayed in place from a cache
// file is a MAP_SHARED mapping held for the whole replay, and another
// process truncating that file turns a cursor's next read into SIGBUS —
// fatal by default, a panic on this goroutine while SetPanicOnFault is on.
func (sup *Supervisor) attempt(j replayJob, key CellKey) (out replayOut) {
	defer func() {
		if r := recover(); r != nil {
			out = replayOut{err: &ReplayPanicError{
				Cell: key, Label: j.label, Value: r,
			}}
		}
	}()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	slice := sup.Slice
	if slice == 0 {
		slice = defaultSlice
	}
	pause := func() error {
		if err := sup.interrupted(); err != nil {
			return &CancelledError{Cell: key, Label: j.label, Cause: err}
		}
		return nil
	}
	res, err := machine.New(j.cfg).ReplaySliced(j.tr, slice, pause)
	return replayOut{res: res, err: err}
}

// FailKind classifies a supervised cell's terminal error for report
// marking: "" (success), "panic", "cancelled", "budget", "stall", or
// "error" for anything else. Every class is errors.As-reachable through
// the wrap chain, pinned by the error-taxonomy test.
func FailKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.As(err, new(*ReplayPanicError)):
		return "panic"
	case errors.As(err, new(*CancelledError)):
		return "cancelled"
	case errors.As(err, new(*engine.BudgetError)):
		return "budget"
	case errors.As(err, new(*engine.StallError)):
		return "stall"
	default:
		return "error"
	}
}
