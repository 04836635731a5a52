package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

// Config sizes one Server. Zero values select the documented defaults.
type Config struct {
	// Workers bounds concurrently running jobs (0 = 4). Each job may
	// itself fan out over Par replay workers, so total CPU use is
	// Workers x Par in the worst case; daemons size both.
	Workers int
	// Queue bounds jobs waiting beyond Workers before 429 (0 = 64).
	Queue int
	// StoreBytes is the trace store budget (0 = 256 MiB).
	StoreBytes int64
	// CacheEntries bounds the result cache (0 = 4096).
	CacheEntries int
	// Slice is the default supervised per-slice event budget (0 =
	// harness.DefaultSlice) — also the streaming granularity.
	Slice uint64
	// MaxEvents is the default per-job event budget when a request does
	// not set one (0 = machine.DefaultEventBudget).
	MaxEvents uint64
	// MaxUploadBytes bounds POST /v1/traces bodies (0 = 1 GiB).
	MaxUploadBytes int64
}

// Server is the nmsimd serving core: store + cache + gate + handlers.
// Jobs execute synchronously on their request goroutines — the package
// spawns no goroutines of its own, so concurrency is exactly what the
// HTTP layer and the gate admit.
type Server struct {
	cfg   Config
	store *Store // also the RecordCache of every request that records
	cache *ResultCache
	gate  *Gate
	mux   *http.ServeMux

	jobsDone     atomic.Uint64
	jobsRejected atomic.Uint64
	sweepsDone   atomic.Uint64
}

// New returns a ready Server.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Queue == 0 {
		cfg.Queue = 64
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 1 << 30
	}
	s := &Server{
		cfg:   cfg,
		store: NewStore(cfg.StoreBytes),
		cache: NewResultCache(cfg.CacheEntries),
		gate:  NewGate(cfg.Workers, cfg.Queue),
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/traces", s.handleUpload)
	s.mux.HandleFunc("POST /v1/traces/record", s.handleRecord)
	s.mux.HandleFunc("GET /v1/traces/{digest}", s.handleFetchTrace)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJob)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	return s
}

// Handler returns the HTTP handler; the daemon wraps it in an
// http.Server, tests in httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the trace store (tests, stats).
func (s *Server) Store() *Store { return s.store }

// Cache exposes the result cache (tests, stats).
func (s *Server) Cache() *ResultCache { return s.cache }

// fail writes the JSON error envelope with a status derived from the
// error's supervised failure kind.
func fail(w http.ResponseWriter, err error, status int) {
	kind := ""
	switch {
	case errors.As(err, new(*harness.ReplayPanicError)):
		kind, status = "panic", http.StatusInternalServerError
	case errors.As(err, new(*harness.CancelledError)):
		kind, status = "cancelled", http.StatusServiceUnavailable
	case errors.Is(err, ErrBusy):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrTraceNotFound):
		status = http.StatusNotFound
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: err.Error(), Kind: kind})
}

// maxJSONBody bounds the JSON request bodies of /v1/jobs, /v1/sweeps and
// /v1/traces/record. The largest legitimate one is a sweep request of a
// few hundred bytes; without a cap one client could make the daemon buffer
// an arbitrarily long token (only trace uploads were bounded before).
const maxJSONBody = 1 << 20

// decodeBody decodes a size-capped JSON request body into v, answering 413
// for an oversized body and 400 for a malformed one. It reports whether
// the handler should go on.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	if errors.As(err, new(*http.MaxBytesError)) {
		status = http.StatusRequestEntityTooLarge
	}
	fail(w, fmt.Errorf("serve: decoding %s request: %w", what, err), status)
	return false
}

// writeJSON writes one JSON response body. json.Marshal is deterministic
// for struct types (field order is declaration order), so equal payloads
// are byte-identical — the property the cache-hit cmp test rides on.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	b, err := json.Marshal(v)
	if err != nil {
		fail(w, fmt.Errorf("serve: encoding response: %w", err), http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	w.Write(b)
}

// traceInfo builds the metadata response for a stored trace.
func traceInfo(digest uint64, src trace.Source) TraceInfo {
	heap, mapped := sourceBytes(src)
	return TraceInfo{
		Digest:  digestString(digest),
		Threads: src.Threads(),
		Ops:     int64(src.Ops()),
		Bytes:   heap + mapped,
	}
}

// handleUpload ingests a serialized trace stream into the store, in either
// serialization, sniffed by magic, and either way as columns replayed in
// place. A v2 body (trace.WriteTo bytes) is checksum-verified, validated
// and sealed by ReadTrace's one pass. A v3 body is stored as it arrived —
// but only after Verify recomputes both its payload CRC and its content
// digest: the store is content-addressed by the footer's digest claim, so a
// forged footer could otherwise poison the cache entry of a different trace.
// Verify's walk validates as it goes, so the Validate after it is a lookup;
// it runs on the handler's goroutine — one request, one CPU. A trace larger
// than the whole store budget is a 507, and nothing resident is evicted.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		fail(w, fmt.Errorf("serve: reading trace: %w", err), status)
		return
	}
	var src trace.Source
	if trace.IsColumnar(body) {
		var col *trace.Columnar
		if col, err = trace.OpenBytes(body); err == nil {
			err = col.Verify()
		}
		src = col
	} else {
		src, err = trace.ReadTrace(bytes.NewReader(body))
	}
	if err != nil {
		fail(w, fmt.Errorf("serve: reading trace: %w", err), http.StatusBadRequest)
		return
	}
	if err := src.Validate(); err != nil {
		fail(w, fmt.Errorf("serve: invalid trace: %w", err), http.StatusBadRequest)
		return
	}
	d, err := s.store.Put(src)
	if errors.Is(err, ErrTraceTooLarge) {
		fail(w, fmt.Errorf("%w (nmsimd -store-mb)", err), http.StatusInsufficientStorage)
		return
	}
	if err != nil {
		fail(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, traceInfo(d, src))
}

// handleRecord records an algorithm trace server-side and stores it: a bad
// field is a 400, and only then does the recording (replay-grade CPU work)
// pass the admission gate; a workload its program refuses is a 422. The store
// is the record cache, so a repeat finds the trace while it is resident.
func (s *Server) handleRecord(w http.ResponseWriter, r *http.Request) {
	var req RecordRequest
	if !decodeBody(w, r, "record", &req) {
		return
	}
	dist, err := parseDist(req.Dist)
	if err == nil {
		err = cmp.Or(
			oneOf("algorithm", req.Alg, harness.AlgorithmNames()),
			nonNegative("n (-n)", req.N),
			coreCount("threads (-cores)", req.Threads),
			positive("sp_mib (-sp)", req.SPMiB),
		)
	}
	if err != nil {
		fail(w, err, http.StatusBadRequest)
		return
	}
	release, err := s.gate.Acquire(r.Context())
	if err != nil {
		s.jobsRejected.Add(1)
		fail(w, err, http.StatusTooManyRequests)
		return
	}
	defer release()
	wl := harness.Workload{
		N: req.N, Seed: req.Seed, Threads: req.Threads,
		SP: units.Bytes(req.SPMiB) * units.MiB, Buckets: req.Buckets, Dist: dist,
		Sup: &harness.Supervisor{Ctx: r.Context(), Records: s.store},
	}
	res, err := harness.Record(harness.Algorithm(req.Alg), wl)
	if err != nil {
		fail(w, err, http.StatusUnprocessableEntity)
		return
	}
	// The store already holds the trace: Record found it there or put it there.
	d, err := res.Trace.Digest()
	if err != nil {
		fail(w, fmt.Errorf("serve: digesting trace: %w", err), http.StatusInternalServerError)
		return
	}
	s.jobsDone.Add(1)
	writeJSON(w, traceInfo(d, res.Trace))
}

// handleFetchTrace streams a stored trace back in its serialized form —
// v2 bytes for a *trace.Trace (a recording, a v2 upload), the raw v3 file for
// a *trace.Columnar (both WriteTo implementations satisfy io.WriterTo). The
// trace stays pinned for the duration of the write.
func (s *Server) handleFetchTrace(w http.ResponseWriter, r *http.Request) {
	d, err := parseDigest(r.PathValue("digest"))
	if err != nil {
		fail(w, err, http.StatusBadRequest)
		return
	}
	src, release, err := s.store.Pin(d)
	if err != nil {
		fail(w, err, http.StatusNotFound)
		return
	}
	defer release()
	wt, ok := src.(io.WriterTo)
	if !ok {
		fail(w, fmt.Errorf("serve: trace %016x is not serializable", d), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	wt.WriteTo(w)
}

// jobConfig translates a JobRequest into the machine configuration,
// applying the server's default event budget.
func (s *Server) jobConfig(req JobRequest) machine.Config {
	cfg := harness.NodeFor(req.Cores, req.NearChannels, units.Bytes(req.SPMiB)*units.MiB)
	if req.FaultRate > 0 {
		cfg.Fault = fault.Profile(req.FaultSeed, req.FaultRate)
	}
	cfg.MaxEvents = req.MaxEvents
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = s.cfg.MaxEvents
	}
	return cfg
}

// validateJob rejects malformed job parameters up front, through the rules
// SweepRequest.Validate words.
func validateJob(req JobRequest) error {
	return cmp.Or(
		coreCount("cores (-cores)", req.Cores),
		positive("near_channels", req.NearChannels),
		positive("sp_mib (-sp)", req.SPMiB),
		faultRate("fault_rate (-fault-rate)", req.FaultSeed, req.FaultRate),
		nonNegative("retries (-retries)", req.Retries),
		nonNegative("epoch_ps (-epoch)", req.EpochPS),
	)
}

// handleJob runs one replay cell: admission gate, trace pin, supervised
// replay (panic-contained, deterministically retried, cache-backed), one
// JSON result. Stream requests answer in NDJSON instead.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeBody(w, r, "job", &req) {
		return
	}
	if err := validateJob(req); err != nil {
		fail(w, err, http.StatusBadRequest)
		return
	}
	digest, err := parseDigest(req.TraceDigest)
	if err != nil {
		fail(w, err, http.StatusBadRequest)
		return
	}
	release, err := s.gate.Acquire(r.Context())
	if err != nil {
		s.jobsRejected.Add(1)
		fail(w, err, http.StatusTooManyRequests)
		return
	}
	defer release()
	tr, unpin, err := s.store.Pin(digest)
	if err != nil {
		fail(w, err, http.StatusNotFound)
		return
	}
	defer unpin()

	cfg := s.jobConfig(req)
	sup := &harness.Supervisor{
		Ctx: r.Context(), Slice: s.cfg.Slice,
		Retries: req.Retries, RetrySeed: req.RetrySeed,
		Cache: s.cache,
	}
	if req.Stream {
		s.streamJob(w, req, sup, cfg, tr, digest)
		return
	}
	key, out, hit, err := sup.ReplayCell(cfg, tr, req.Label)
	if err != nil {
		fail(w, err, http.StatusInternalServerError)
		return
	}
	s.jobsDone.Add(1)
	if hit {
		w.Header().Set("X-Nmsimd-Cache", "hit")
	} else {
		w.Header().Set("X-Nmsimd-Cache", "miss")
	}
	writeJSON(w, JobResponse{
		TraceKey:  digestString(key.Trace),
		ConfigKey: digestString(key.Config),
		MemFault:  out.MemFault,
		Attempts:  out.Attempts,
		Result:    out.Result,
	})
}

// streamJob is the NDJSON variant: a telemetry recorder samples the
// replay, and the supervisor's between-slice hook flushes new sample rows
// to the client as they appear — live progress derived purely from
// simulated time, so the stream contents are byte-deterministic even
// though their pacing is not. The final line is the job's result object
// (or an error object; the HTTP status is already committed by then).
func (s *Server) streamJob(w http.ResponseWriter, req JobRequest, sup *harness.Supervisor, cfg machine.Config, tr trace.Source, digest uint64) {
	epoch := units.Time(req.EpochPS)
	if epoch <= 0 {
		epoch = harness.DefaultEpoch
	}
	rec := telemetry.New(epoch)
	cfg.Telemetry = rec // also disqualifies the cell from the result cache

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Nmsimd-Cache", "bypass")
	flusher, _ := w.(http.Flusher)
	sent := 0
	drain := func() error {
		for ; sent < rec.Samples(); sent++ {
			if err := rec.WriteSampleNDJSON(w, sent); err != nil {
				return fmt.Errorf("serve: client gone: %w", err)
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	// The between-slice hook runs on this goroutine (the replay executes
	// synchronously below), so drain needs no locking. A write error
	// cancels the replay at the next slice boundary — abandoned clients
	// stop burning simulation time.
	sup.Interrupt = drain

	key, out, _, err := sup.ReplayCell(cfg, tr, req.Label)
	if derr := drain(); err == nil && derr != nil {
		err = derr
	}
	if err != nil {
		json.NewEncoder(w).Encode(struct {
			Type string `json:"type"`
			errorBody
		}{Type: "error", errorBody: errorBody{Error: err.Error(), Kind: harness.FailKind(err)}})
		return
	}
	telemetry.WritePhasesNDJSON(w, out.Result.Phases)
	resp := struct {
		Type string `json:"type"`
		JobResponse
	}{Type: "result", JobResponse: JobResponse{
		TraceKey:  digestString(key.Trace),
		ConfigKey: digestString(key.Config),
		MemFault:  out.MemFault,
		Attempts:  out.Attempts,
		Result:    out.Result,
	}}
	s.jobsDone.Add(1)
	json.NewEncoder(w).Encode(resp)
}

// handleSweep runs a whole experiment server-side and returns the rendered
// report: the wire's defaults, then the request's own Validate (400, before
// the gate and before any recording), then RunSweep — the path cmd/sweep and
// cmd/nmsim run locally. The count of failed cells travels in
// X-Nmsimd-Failed so remote clients keep the local exit-code contract.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeBody(w, r, "sweep", &req) {
		return
	}
	req = normalizeSweep(req)
	if err := req.Validate(); err != nil {
		fail(w, err, http.StatusBadRequest)
		return
	}
	release, err := s.gate.Acquire(r.Context())
	if err != nil {
		s.jobsRejected.Add(1)
		fail(w, err, http.StatusTooManyRequests)
		return
	}
	defer release()

	sup := &harness.Supervisor{
		Ctx: r.Context(), Slice: s.cfg.Slice,
		Cache: s.cache, Records: s.store,
	}
	// Render into a buffer first: a failed experiment must still be able
	// to answer with a clean error status.
	var body strings.Builder
	failed, err := RunSweep(&body, req, sup)
	if err != nil {
		fail(w, err, http.StatusUnprocessableEntity)
		return
	}
	s.sweepsDone.Add(1)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Nmsimd-Failed", fmt.Sprintf("%d", failed))
	io.WriteString(w, body.String())
}

// handleStats snapshots the serving counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	entries, hits, misses := s.cache.Stats()
	writeJSON(w, Stats{
		Traces:           s.store.Len(),
		TraceBytes:       s.store.Bytes(),
		TraceMappedBytes: s.store.MappedBytes(),
		CacheEntries:     entries,
		CacheHits:        hits,
		CacheMisses:      misses,
		Records:          s.store.recordCount(),
		JobsRunning:      s.gate.Running(),
		JobsAdmitted:     s.gate.Admitted(),
		JobsDone:         s.jobsDone.Load(),
		JobsRejected:     s.jobsRejected.Load(),
		SweepsDone:       s.sweepsDone.Load(),
	})
}

// handleExperiments lists the shared registry.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	infos := make([]ExperimentInfo, 0, len(harness.Experiments))
	for _, e := range harness.Experiments {
		infos = append(infos, ExperimentInfo{Name: e.Name, Desc: e.Desc})
	}
	writeJSON(w, infos)
}
