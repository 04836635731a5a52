package serve

import (
	"fmt"
	"strconv"

	"repro/internal/machine"
)

// The wire types of the nmsimd HTTP/JSON API, shared by the server and
// the Go client so the two cannot drift. All digests travel as 16-hex
// strings (the manifest's stable key form).

// TraceInfo describes one stored trace.
type TraceInfo struct {
	Digest  string `json:"digest"`  // 16-hex trace digest
	Threads int    `json:"threads"` // recorded thread count
	Ops     int64  `json:"ops"`     // total recorded ops
	Bytes   int64  `json:"bytes"`   // resident footprint estimate
}

// RecordRequest asks the server to record an algorithm trace
// (POST /v1/traces/record). Equal requests record byte-identical traces,
// so the response digest is stable, and a repeat is answered from the
// trace store while the trace is resident.
type RecordRequest struct {
	Alg     string `json:"alg"`               // one of harness.AlgorithmNames, e.g. "nmsort"
	N       int    `json:"n"`                 // keys to sort (points, for k-means)
	Seed    uint64 `json:"seed"`              // input seed
	Threads int    `json:"threads"`           // logical threads (simulated cores)
	SPMiB   int    `json:"sp_mib"`            // scratchpad capacity in MiB
	Buckets int    `json:"buckets,omitempty"` // NMsort bucket override (0 = automatic)
	Dist    string `json:"dist,omitempty"`    // key distribution ("" = uniform)
}

// JobRequest submits one replay cell (POST /v1/jobs): a stored trace
// replayed on one node configuration under the supervised runtime.
type JobRequest struct {
	TraceDigest  string  `json:"trace_digest"`
	Cores        int     `json:"cores"`         // simulated cores (multiple of 4)
	NearChannels int     `json:"near_channels"` // 8/16/32 for the paper's 2X/4X/8X
	SPMiB        int     `json:"sp_mib"`
	FaultSeed    uint64  `json:"fault_seed,omitempty"` // 0 disables injection
	FaultRate    float64 `json:"fault_rate,omitempty"` // far-memory bit error rate in [0, 1]
	Retries      int     `json:"retries,omitempty"`    // deterministic MemFault retries
	RetrySeed    uint64  `json:"retry_seed,omitempty"`
	Label        string  `json:"label,omitempty"` // report label for failure messages

	// Stream switches the response to NDJSON progress: telemetry sample
	// rows as the replay crosses slice boundaries, then phase rows, then
	// one final result (or error) object. Streamed jobs attach a recorder
	// and therefore bypass the result cache (a cached outcome has no
	// samples to stream).
	Stream  bool  `json:"stream,omitempty"`
	EpochPS int64 `json:"epoch_ps,omitempty"` // telemetry epoch in simulated ps (0 = 10us)
}

// JobResponse is one completed replay cell. Identical requests — cold,
// cached, or raced — marshal to identical bytes; the cache-hit indicator
// travels in the X-Nmsimd-Cache header precisely so it cannot perturb
// the body.
type JobResponse struct {
	TraceKey  string         `json:"trace_key"`  // CellKey.Trace, 16-hex
	ConfigKey string         `json:"config_key"` // CellKey.Config, 16-hex
	MemFault  bool           `json:"mem_fault,omitempty"`
	Attempts  int            `json:"attempts"`
	Result    machine.Result `json:"result"`
}

// SweepRequest is one run of a registry experiment: the body of
// POST /v1/sweeps, and what cmd/sweep and cmd/nmsim build from their flags.
// All three check it with Validate and run it with RunSweep (sweep.go) — in
// process under the caller's supervisor, or on a daemon through
// Client.SweepTo — so local and remote print the same bytes. On the wire a
// zero N, Seed, Cores, SPMiB or Format means the sweep default (DefaultN and
// its siblings).
type SweepRequest struct {
	Exp    string `json:"exp"`
	N      int    `json:"n,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	Cores  int    `json:"cores,omitempty"`
	SPMiB  int    `json:"sp_mib,omitempty"`
	Format string `json:"format,omitempty"`

	CoreList   []int     `json:"core_list,omitempty"`   // cores: the core axis (empty = the harness's default)
	FaultSeed  uint64    `json:"fault_seed,omitempty"`  // faults: injection seed; table1: seeds fault_rate's profile
	FaultRates []float64 `json:"fault_rates,omitempty"` // faults: the error-rate axis (empty = the harness's default)
	EpochPS    int64     `json:"epoch_ps,omitempty"`    // timeline: sampling epoch in ps (0 = harness.DefaultEpoch)

	Par       int    `json:"par,omitempty"`
	Retries   int    `json:"retries,omitempty"`
	RetrySeed uint64 `json:"retry_seed,omitempty"`

	DMA bool `json:"dma,omitempty"` // table1: NMsort with the §VII DMA engines
	// Dist is the key distribution ("" = uniform). Every row that records a
	// sort reads it — bandwidth, cores, dma, appends, faults, timeline,
	// codesign and table1; kmeans and the model-side rows ignore it.
	Dist      string  `json:"dist,omitempty"`
	FaultRate float64 `json:"fault_rate,omitempty"` // table1: far bit error rate of every node (0 = none)
}

// Stats is the GET /v1/stats snapshot. TraceBytes is the size of the trace
// images the store holds, what its budget counts. TraceMappedBytes is the
// bytes of trace files the process has mapped (trace.MappedBytes): a daemon
// maps none, so it reads 0 unless a mapping leaks.
type Stats struct {
	Traces           int    `json:"traces"`
	TraceBytes       int64  `json:"trace_bytes"`
	TraceMappedBytes int64  `json:"trace_mapped_bytes"`
	CacheEntries     int    `json:"cache_entries"`
	CacheHits        uint64 `json:"cache_hits"`
	CacheMisses      uint64 `json:"cache_misses"`
	// Records counts the recordings — (algorithm, workload) pairs — whose
	// trace is resident in the store: a sweep or record request naming one
	// replays it without recording. Those traces count in Traces and are
	// charged to the store budget like any upload.
	Records      int    `json:"records"`
	JobsRunning  int    `json:"jobs_running"`
	JobsAdmitted int    `json:"jobs_admitted"`
	JobsDone     uint64 `json:"jobs_done"`
	JobsRejected uint64 `json:"jobs_rejected"`
	SweepsDone   uint64 `json:"sweeps_done"`
}

// ExperimentInfo is one GET /v1/experiments row.
type ExperimentInfo struct {
	Name  string `json:"name"`
	Desc  string `json:"desc"`
	Paper string `json:"paper"` // what the row reproduces: "Table I", "Theorem 6", …
}

// errorBody is the JSON error envelope on every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"` // supervised failure kind, when one applies
}

// digestString renders a digest in the API's 16-hex form.
func digestString(d uint64) string { return fmt.Sprintf("%016x", d) }

// parseDigest parses the API's 16-hex digest form.
func parseDigest(s string) (uint64, error) {
	d, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: bad digest %q", s)
	}
	return d, nil
}
