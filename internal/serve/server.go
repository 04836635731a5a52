package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/prof"
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
	cache *resultCache
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
		cache: newResultCache(cfg.CacheEntries),
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

// storeFull answers a trace larger than the whole store budget: 507, naming
// the flag that sets it.
func storeFull(w http.ResponseWriter, err error) {
	fail(w, fmt.Errorf("%w (nmsimd -store-mb)", err), http.StatusInsufficientStorage)
}

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
func traceInfo(digest uint64, col *trace.Columnar) TraceInfo {
	return TraceInfo{
		Digest:  digestString(digest),
		Threads: col.Threads(),
		Ops:     int64(col.Ops()),
		Bytes:   col.Size(),
	}
}

// uploadReserve caps what a Content-Length header alone can make the daemon
// allocate for an upload body: the header is a hint, and a body longer than
// the reserve grows by doubling as its bytes actually arrive.
const uploadReserve = 4 << 20

// readBody reads a request body into one buffer after head, the bytes of it
// already read, reserved from the Content-Length hint (at most limit and
// uploadReserve, or head's length if that is more; MinRead more, so an honest
// body fills it without a growth copy at EOF).
func readBody(r io.Reader, hint, limit int64, head ...[]byte) ([]byte, error) {
	n := 0
	for _, h := range head {
		n += len(h)
	}
	b := bytes.NewBuffer(make([]byte, 0, max(min(max(hint, 0), limit, uploadReserve), int64(n))+bytes.MinRead))
	for _, h := range head {
		b.Write(h)
	}
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// compareChunk is what the compare reads at a time: the memory a re-upload
// of a resident trace costs, whatever the trace's size.
const compareChunk = 64 << 10

// segments is a v3 image as trace.Columnar.Segments gives it: slices that,
// put together in order, are the file.
type segments [][]byte

// equalAt reports whether b is the image's bytes from offset off on.
func (im segments) equalAt(off int64, b []byte) bool {
	for _, s := range im {
		if len(b) == 0 {
			break
		}
		if off >= int64(len(s)) {
			off -= int64(len(s))
			continue
		}
		n := min(int64(len(s))-off, int64(len(b)))
		if !bytes.Equal(s[off:off+n], b[:n]) {
			return false
		}
		b, off = b[n:], 0
	}
	return len(b) == 0
}

// head returns the image's first n bytes, as slices of its segments.
func (im segments) head(n int64) [][]byte {
	var out [][]byte
	for _, s := range im {
		if n <= 0 {
			break
		}
		m := min(int64(len(s)), n)
		out, n = append(out, s[:m]), n-m
	}
	return out
}

// readUpload reads an upload body, comparing it as it streams, compareChunk
// bytes at a time, with the images of cands (the resident traces whose image
// is Content-Length bytes), segment by segment. A body that ends exactly
// where a still-equal image ends is that trace: its columns come back, and
// the body was never buffered. Any other body comes back whole from
// readBody, after the prefix the last candidates matched, copied from the
// segments of an image it equals.
func readUpload(r io.Reader, hint, limit int64, cands []resident) (*trace.Columnar, []byte, error) {
	defer runtime.KeepAlive(cands) // a mapped image stays mapped while it is read
	if len(cands) == 0 {
		body, err := readBody(r, hint, limit)
		return nil, body, err
	}
	chunk := make([]byte, compareChunk)
	for matched := int64(0); ; {
		n, err := r.Read(chunk)
		if err != nil && err != io.EOF {
			return nil, nil, err
		}
		var prefix segments // an image the body before this chunk equals
		live := 0
		for i := range cands {
			c := &cands[i]
			if c.image == nil {
				continue
			}
			prefix = c.image
			if c.size-matched < int64(n) || !c.image.equalAt(matched, chunk[:n]) {
				c.image = nil // differs: out of the compare
				continue
			}
			if err == io.EOF && c.size == matched+int64(n) {
				return c.col, nil, nil
			}
			live++
		}
		if live == 0 || err == io.EOF {
			body, err := readBody(r, hint, limit, append(prefix.head(matched), chunk[:n])...)
			return nil, body, err
		}
		matched += int64(n)
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
// it runs on the handler's goroutine — one request, one CPU.
//
// A body that is, byte for byte, the v3 image of a resident trace is answered
// from that entry instead, and is never buffered: readUpload compares it as it
// arrives with every resident image of its Content-Length. The verdict is a
// function of the bytes, and a resident image either passed Verify or was
// sealed here with a footer from its own validation walk, so equal bytes get
// the verdict the walk would reach, and the memoized Validate returns it. The
// read (with the compare) and then the checks ("verify") or the memo lookup
// ("resident") are the request's stages, sent in a Server-Timing header. A
// trace larger than the whole store budget is a 507, and nothing resident is
// evicted.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	timing := prof.NewStages()
	read := timing.Start(0, "request", "read")
	col, body, err := readUpload(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes),
		r.ContentLength, s.cfg.MaxUploadBytes, s.store.sized(r.ContentLength))
	read.End()
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		fail(w, fmt.Errorf("serve: reading trace: %w", err), status)
		return
	}
	check := timing.Start(0, "request", "verify")
	stage := "verify"
	switch {
	case col != nil:
		stage = "resident"
	case trace.IsColumnar(body):
		if col, err = trace.OpenBytes(body); err == nil {
			err = col.Verify()
		}
	default:
		var tr *trace.Trace
		if tr, err = trace.ReadTrace(bytes.NewReader(body)); err == nil {
			col = tr.Columns()
		}
	}
	var invalid error
	if err == nil {
		invalid = col.Validate()
	}
	check.EndAs(stage)
	w.Header().Set("Server-Timing", timing.ServerTiming())
	if err != nil {
		fail(w, fmt.Errorf("serve: reading trace: %w", err), http.StatusBadRequest)
		return
	}
	if invalid != nil {
		fail(w, fmt.Errorf("serve: invalid trace: %w", invalid), http.StatusBadRequest)
		return
	}
	d, err := s.store.Put(col)
	if errors.Is(err, ErrTraceTooLarge) {
		storeFull(w, err)
		return
	}
	if err != nil {
		fail(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, traceInfo(d, col))
}

// handleRecord records an algorithm trace server-side and stores it: a bad
// field is a 400, and only then does the recording (replay-grade CPU work)
// pass the admission gate; a workload its program refuses is a 422, and a
// recording larger than the whole store budget a 507 — the store could not
// hold the digest the answer would name. The store is the record cache, so a
// repeat finds the trace while it is resident. The gate wait and the
// recording travel in a Server-Timing header.
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
	timing := prof.NewStages()
	queue := timing.Start(0, "request", "queue")
	release, err := s.gate.Acquire(r.Context())
	queue.End()
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
	record := timing.Start(0, "request", "record")
	res, err := harness.Record(harness.Algorithm(req.Alg), wl)
	record.End()
	w.Header().Set("Server-Timing", timing.ServerTiming())
	if err != nil {
		fail(w, err, http.StatusUnprocessableEntity)
		return
	}
	// The store holds the trace — Record found it there or put it there —
	// unless it is larger than the budget.
	col := res.Trace.Columns()
	if err := s.store.fits(col); err != nil {
		storeFull(w, err)
		return
	}
	d, err := col.Digest()
	if err != nil {
		fail(w, fmt.Errorf("serve: digesting trace: %w", err), http.StatusInternalServerError)
		return
	}
	s.jobsDone.Add(1)
	writeJSON(w, traceInfo(d, col))
}

// handleFetchTrace streams a stored trace back as its sealed v3 image —
// whichever way it arrived: a recording's or a v2 upload's columns, or the v3
// bytes that were uploaded — written from where it lives, with no copy. The
// trace stays pinned for the duration of the write.
func (s *Server) handleFetchTrace(w http.ResponseWriter, r *http.Request) {
	d, err := parseDigest(r.PathValue("digest"))
	if err != nil {
		fail(w, err, http.StatusBadRequest)
		return
	}
	col, release, err := s.store.Pin(d)
	if err != nil {
		fail(w, err, http.StatusNotFound)
		return
	}
	defer release()
	w.Header().Set("Content-Type", "application/octet-stream")
	col.WriteTo(w)
}

// Validate rejects malformed job parameters up front, through the rules
// SweepRequest.Validate words: /v1/jobs answers 400 with it, and nmtrace
// replay holds its node flags to it.
func (r JobRequest) Validate() error {
	return cmp.Or(
		coreCount("cores (-cores)", r.Cores),
		positive("near_channels (-near)", r.NearChannels),
		positive("sp_mib (-sp)", r.SPMiB),
		faultRate("fault_rate (-fault-rate)", r.FaultSeed, r.FaultRate),
		nonNegative("retries (-retries)", r.Retries),
		nonNegative("epoch_ps (-epoch)", r.EpochPS),
	)
}

// handleJob runs one replay cell: admission gate, trace pin, supervised
// replay (panic-contained, deterministically retried, cache-backed), one
// JSON result, with the gate wait and the replay in a Server-Timing header.
// Stream requests answer in NDJSON instead.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeBody(w, r, "job", &req) {
		return
	}
	if err := req.Validate(); err != nil {
		fail(w, err, http.StatusBadRequest)
		return
	}
	digest, err := parseDigest(req.TraceDigest)
	if err != nil {
		fail(w, err, http.StatusBadRequest)
		return
	}
	timing := prof.NewStages()
	queue := timing.Start(0, "request", "queue")
	release, err := s.gate.Acquire(r.Context())
	queue.End()
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

	cfg := harness.NodeFor(req.Cores, req.NearChannels, units.Bytes(req.SPMiB)*units.MiB)
	if req.FaultRate > 0 {
		cfg.Fault = fault.Profile(req.FaultSeed, req.FaultRate)
	}
	sup := &harness.Supervisor{Ctx: r.Context(), Retries: req.Retries, RetrySeed: req.RetrySeed, Cache: s.cache}
	if req.Stream {
		s.streamJob(w, req, sup, cfg, tr, digest)
		return
	}
	replay := timing.Start(0, "request", "replay")
	key, out, hit, err := sup.ReplayCell(cfg, tr, req.Label)
	replay.End()
	w.Header().Set("Server-Timing", timing.ServerTiming())
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
// the gate and before any recording), then RunSweep — the path internal/cli
// runs locally for cmd/sweep and cmd/nmsim. The count of failed cells
// travels in X-Nmsimd-Failed so remote clients keep the local exit-code
// contract, and the gate wait, RunSweep's time and its summed recordings and
// cells (the stages sweep -timings prints) in a Server-Timing header.
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
	timing := prof.NewStages()
	queue := timing.Start(0, "request", "queue")
	release, err := s.gate.Acquire(r.Context())
	queue.End()
	if err != nil {
		s.jobsRejected.Add(1)
		fail(w, err, http.StatusTooManyRequests)
		return
	}
	defer release()

	sup := &harness.Supervisor{
		Ctx:   r.Context(),
		Cache: s.cache, Records: s.store,
		Timings: prof.NewStages(),
	}
	// Render into a buffer first: a failed experiment must still be able
	// to answer with a clean error status.
	var body strings.Builder
	sweep := timing.Start(0, "request", "sweep")
	failed, err := RunSweep(&body, req, sup)
	sweep.End()
	w.Header().Set("Server-Timing", strings.Join([]string{timing.ServerTiming(),
		prof.Metric("record", sup.Timings.Sum("record")), prof.Metric("cells", sup.Timings.Sum("cell"))}, ", "))
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
	entries, hits, misses := s.cache.stats()
	writeJSON(w, Stats{
		Traces:           s.store.Len(),
		TraceBytes:       s.store.Bytes(),
		TraceMappedBytes: trace.MappedBytes(),
		CacheEntries:     entries,
		CacheHits:        hits,
		CacheMisses:      misses,
		Records:          s.store.recordCount(),
		JobsRunning:      s.gate.running(),
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
		infos = append(infos, ExperimentInfo{Name: e.Name, Desc: e.Desc, Paper: e.Paper})
	}
	writeJSON(w, infos)
}
