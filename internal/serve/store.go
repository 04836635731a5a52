package serve

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"repro/internal/harness"
	"repro/internal/trace"
)

// The content-addressed trace store: every trace lives in memory exactly
// once, keyed by its digest, shared read-only by every replay that needs
// it. Eviction is LRU within a byte budget, but a trace pinned by an
// in-flight job is never evicted — a replay must keep its streams for its
// whole run. The budget is therefore soft under load: pinned bytes can
// exceed it, and the store converges back under it as pins release.
//
// Entries are trace.Sources, and a Source is columns: a recording's sealed
// image, an uploaded v2 body sealed by ReadTrace, or an uploaded v3 body
// charge their image size as heap bytes; a locally opened file charges
// mapped bytes, because a mapped trace holds address space and page cache,
// not Go heap. Both spend the same budget; Stats reports the split. An image
// costs ~3.3 B/op whichever way it arrived. Eviction only
// drops the store's reference: a pinned Source stays valid for its
// borrower, and a mapped Columnar's pages are released by the finalizer
// trace.Open installs once the last reference (store, pin, or cursor)
// goes away — the store never unmaps under a reader.
//
// The store is also the daemon's harness.RecordCache, and its only one: a
// recording is Put like an upload, and an index maps each (algorithm,
// RecordKey) to the digest it recorded, dropped with the entry on eviction.
// So every trace the daemon holds between requests is charged to the budget,
// and a recording larger than the budget is recorded again by the next
// request that needs it.
//
// A trace larger than the whole budget is refused before anything is
// evicted (ErrTraceTooLarge), and a trace just put is never its own eviction
// victim: when every other entry is pinned, it stays and the budget is
// exceeded until a pin releases.

// ErrTraceNotFound marks a digest the store does not (or no longer does)
// hold; callers re-upload or re-record.
var ErrTraceNotFound = errors.New("serve: trace not found")

// ErrTraceTooLarge marks a trace whose footprint alone exceeds the store's
// budget: holding it would evict every other trace and then itself.
var ErrTraceTooLarge = errors.New("serve: trace larger than the store budget")

// sourceBytes splits a source's resident footprint into heap and mapped
// bytes: the size of the image behind it, on whichever side it lives.
func sourceBytes(src trace.Source) (heap, mapped int64) {
	col := columnsOf(src)
	if col.Mapped() {
		return 0, col.Size()
	}
	return col.Size(), 0
}

// columnsOf is the v3 image behind a source: a recording's or a v2 upload's
// sealed columns, or the Columnar itself.
func columnsOf(src trace.Source) *trace.Columnar {
	if tr, ok := src.(*trace.Trace); ok {
		return tr.Columns()
	}
	return src.(*trace.Columnar)
}

// recordKey names one recording: the workload is RecordKey-normalized, so
// comparable and pointer-free.
type recordKey struct {
	alg harness.Algorithm
	w   harness.Workload
}

// storeEntry is one resident trace.
type storeEntry struct {
	src     trace.Source
	heap    int64
	mapped  int64
	pins    int
	records []recordKey   // the recordings indexed to this trace
	elem    *list.Element // position in the recency list; value is the digest
}

// Store is the content-addressed trace store. Safe for concurrent use.
type Store struct {
	mu         sync.Mutex
	budget     int64
	usedHeap   int64
	usedMapped int64
	entries    map[uint64]*storeEntry
	records    map[recordKey]uint64 // recording → digest of a resident entry
	order      *list.List           // front = most recently used; element values are uint64 digests
}

// NewStore returns a store bounded by budget bytes (<= 0 means a 256 MiB
// default). The budget covers heap and mapped bytes together.
func NewStore(budget int64) *Store {
	if budget <= 0 {
		budget = 256 << 20
	}
	return &Store{budget: budget, entries: make(map[uint64]*storeEntry),
		records: make(map[recordKey]uint64), order: list.New()}
}

// Put inserts src under its digest and returns the digest. A trace already
// resident is not duplicated — the store keeps the first copy and
// refreshes its recency — so concurrent uploads of the same logical trace
// (in either serialization; the digest is encoding-independent) cost one
// resident copy.
func (s *Store) Put(src trace.Source) (uint64, error) { return s.put(src, nil) }

// put is Put, also indexing the entry under rec when there is one — inside
// the same critical section, so the index never names an evicted trace.
func (s *Store) put(src trace.Source, rec *recordKey) (uint64, error) {
	d, err := src.Digest()
	if err != nil {
		return 0, fmt.Errorf("serve: digesting trace: %w", err)
	}
	if err := s.fits(src); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[d]
	if ok {
		s.order.MoveToFront(e.elem)
	} else {
		e = &storeEntry{src: src}
		e.heap, e.mapped = sourceBytes(src)
		e.elem = s.order.PushFront(d)
		s.entries[d] = e
		s.usedHeap += e.heap
		s.usedMapped += e.mapped
	}
	if rec != nil {
		if _, known := s.records[*rec]; !known {
			s.records[*rec] = d
			e.records = append(e.records, *rec)
		}
	}
	s.evictLocked(e)
	return d, nil
}

// fits returns ErrTraceTooLarge, with the sizes, for a trace larger than the
// whole budget: one Put refuses. The budget never changes, so it needs no
// lock.
func (s *Store) fits(src trace.Source) error {
	heap, mapped := sourceBytes(src)
	if size := heap + mapped; size > s.budget {
		return fmt.Errorf("%w: %d bytes, budget %d", ErrTraceTooLarge, size, s.budget)
	}
	return nil
}

// LookupRecord implements harness.RecordCache: the resident trace a
// recording of alg on w produced, whichever way it arrived — a columnar
// upload with the same digest answers through a handle over its columns.
func (s *Store) LookupRecord(alg harness.Algorithm, w harness.Workload) (harness.RecordResult, bool) {
	s.mu.Lock()
	d, ok := s.records[recordKey{alg, w}]
	var src trace.Source
	if ok {
		e := s.entries[d]
		s.order.MoveToFront(e.elem)
		src = e.src
	}
	s.mu.Unlock()
	if !ok {
		return harness.RecordResult{}, false
	}
	tr, isTrace := src.(*trace.Trace)
	if !isTrace {
		tr = src.(*trace.Columnar).AsTrace()
	}
	return harness.RecordResult{Trace: tr}, true
}

// CompleteRecord implements harness.RecordCache: it is Put, indexed under
// the recording. A trace that cannot be digested, or that is larger than the
// budget, is not stored; the caller keeps its recording either way, and
// POST /v1/traces/record answers the second case with a 507.
func (s *Store) CompleteRecord(alg harness.Algorithm, w harness.Workload, res harness.RecordResult) {
	s.put(res.Trace, &recordKey{alg, w})
}

// Pin returns the trace for digest and pins it resident until release is
// called. Pin/release pairs bracket every replay, so eviction can never
// pull a stream — or unmap a columnar file — out from under a running job.
func (s *Store) Pin(digest uint64) (src trace.Source, release func(), err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[digest]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %016x", ErrTraceNotFound, digest)
	}
	e.pins++
	s.order.MoveToFront(e.elem)
	var once sync.Once
	release = func() {
		once.Do(func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			e.pins--
			s.evictLocked(nil)
		})
	}
	return e.src, release, nil
}

// resident is a trace the store holds, with its v3 image.
type resident struct {
	src   trace.Source
	image segments
	size  int64
}

// sized returns the resident traces whose v3 image is size bytes, with their
// images, without touching recency: an upload found to be one of them Puts
// it, and one that is not leaves the store as it found it. A resident entry's
// digest is known, so its segments are at hand in O(threads). The caller
// reads the images outside the lock; an entry evicted meanwhile stays
// readable, since eviction only drops the store's reference and src keeps a
// mapped image mapped.
func (s *Store) sized(size int64) []resident {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []resident
	for el := s.order.Front(); el != nil; el = el.Next() {
		e := s.entries[el.Value.(uint64)]
		if e.heap+e.mapped != size {
			continue
		}
		if image, err := columnsOf(e.src).Segments(); err == nil {
			out = append(out, resident{e.src, image, size})
		}
	}
	return out
}

// evictLocked drops least-recently-used unpinned traces other than keep, and
// the recordings indexed to them, until the store fits its budget. Walks the
// recency list back to front — never a map — skipping pinned entries.
func (s *Store) evictLocked(keep *storeEntry) {
	for el := s.order.Back(); el != nil && s.usedHeap+s.usedMapped > s.budget; {
		prev := el.Prev()
		d := el.Value.(uint64)
		if e := s.entries[d]; e.pins == 0 && e != keep {
			s.order.Remove(el)
			delete(s.entries, d)
			for _, k := range e.records {
				delete(s.records, k)
			}
			s.usedHeap -= e.heap
			s.usedMapped -= e.mapped
		}
		el = prev
	}
}

// Len reports the resident trace count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// recordCount reports the recordings whose trace is resident.
func (s *Store) recordCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.records)
}

// Bytes reports the resident heap footprint estimate.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.usedHeap
}

// MappedBytes reports the resident mmap footprint.
func (s *Store) MappedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.usedMapped
}
