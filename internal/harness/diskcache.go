package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"

	"repro/internal/par"
	"repro/internal/trace"
)

// DiskRecordCache memoizes Record() results as columnar v3 trace files in
// a directory, so recorded traces survive process restarts: the first
// sweep against a workload pays the recording cost, every later sweep —
// in any process — opens the file. Byte-neutral like every RecordCache:
// equal workloads record byte-identical traces, and the digest-checked
// on-disk copy replays identically to a fresh recording.
//
// Safe for concurrent use: lookups only read, and completions write via
// an atomic temp-file rename, so a torn write can never be observed. Two
// processes racing the same key converge on identical bytes.
type DiskRecordCache struct {
	dir string

	loaded func(path string) // test hook: a file was mapped and is about to be walked
}

// NewDiskRecordCache returns a cache rooted at dir, creating it if needed.
func NewDiskRecordCache(dir string) (*DiskRecordCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: trace cache dir: %w", err)
	}
	return &DiskRecordCache{dir: dir}, nil
}

// path is the cache file base path (no extension) of a RecordKey workload.
func (c *DiskRecordCache) path(alg Algorithm, w Workload) string {
	key := keyDigest(struct {
		Alg      Algorithm
		Workload Workload
	}{alg, w})
	return filepath.Join(c.dir, fmt.Sprintf("%s-%016x", alg, key))
}

// LookupRecord implements RecordCache: it opens the key's .nmt3 file. A
// missing, unreadable, corrupted (its payload CRC disagrees with the footer)
// or invalid file is a miss — the caller re-records and overwrites — and so
// is one another process truncates under the walk (validateMapped). A hit is
// replayed from its mapping, never decoded. The mapping lives as long as
// anything can reach the returned trace (a cursor included) and is released
// by trace.Open's finalizer after that.
func (c *DiskRecordCache) LookupRecord(alg Algorithm, w Workload) (RecordResult, bool) {
	path := c.path(alg, w) + ".nmt3"
	col, err := trace.Open(path)
	if err != nil {
		return RecordResult{}, false
	}
	if c.loaded != nil {
		c.loaded(path)
	}
	if err := validateMapped(col); err != nil {
		col.Close()
		return RecordResult{}, false
	}
	return RecordResult{Trace: col.AsTrace()}, true
}

// validateMapped is CheckPayload and then ValidatePar, both under par.Each,
// over what may be a MAP_SHARED mapping: a bit flipped on disk fails the
// first, and another process truncating the file turns a read into SIGBUS,
// fatal unless the reading goroutine — each forked worker — has
// SetPanicOnFault on. par.Each re-raises the panic here, where it becomes
// the error of a miss.
func validateMapped(s *trace.Columnar) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
			err = fmt.Errorf("harness: cache file changed under its mapping: %v", r)
		}
	}()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	fj := func(n int, body func(int)) {
		par.Each(n, func(i int) {
			defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
			body(i)
		})
	}
	if err := s.CheckPayload(fj); err != nil {
		return err
	}
	return s.ValidatePar(fj)
}

// CompleteRecord implements RecordCache: it writes the trace as a columnar
// v3 file via an atomic temp-file rename — a recording's own sealed image,
// not a re-encoding of it. Persistence is best-effort — a failed write only
// costs a future re-recording, so errors are swallowed (the RecordCache
// interface has no error channel by design: the record itself succeeded).
func (c *DiskRecordCache) CompleteRecord(alg Algorithm, w Workload, res RecordResult) {
	col, err := trace.Seal(res.Trace)
	if err != nil {
		return
	}
	dst := c.path(alg, w) + ".nmt3"
	tmp, err := os.CreateTemp(c.dir, "tmp-*.nmt3")
	if err != nil {
		return
	}
	_, err = col.WriteTo(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), dst)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
}
