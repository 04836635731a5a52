package serve

import (
	"container/list"
	"sync"

	"repro/internal/harness"
)

// resultCache is the in-memory harness.CellCache: completed cell outcomes
// keyed content-addressably by CellKey, bounded LRU. Because cell keys
// fingerprint both the trace bytes and the full replay configuration
// (including the retry policy), a hit is byte-equivalent to re-running
// the replay — the whole point of the serving layer's "identical jobs
// answered without re-simulation" contract.
//
// It stays a type of its own beside harness.Manifest, the other CellCache:
// the manifest persists every cell and never evicts, this one bounds itself
// and counts hits, and one type doing both would branch on its caller.
type resultCache struct {
	mu      sync.Mutex
	limit   int
	entries map[harness.CellKey]*list.Element
	order   *list.List // front = most recently used; holds cacheEntry values
	hits    uint64
	miss    uint64
}

// cacheEntry is one cached cell on the recency list. Eviction walks the
// list, never the map (Go map order is the nondeterminism source nmlint
// bans from this package).
type cacheEntry struct {
	key harness.CellKey
	out harness.CellOutcome
}

// resultCache implements the supervisor's checkpoint-store interface.
var _ harness.CellCache = (*resultCache)(nil)

// newResultCache returns a cache holding at most limit outcomes (<= 0
// means a 4096-entry default).
func newResultCache(limit int) *resultCache {
	if limit <= 0 {
		limit = 4096
	}
	return &resultCache{limit: limit, entries: make(map[harness.CellKey]*list.Element), order: list.New()}
}

// Lookup returns the cached outcome for key, if any, marking it most
// recently used.
func (c *resultCache) Lookup(key harness.CellKey) (harness.CellOutcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.miss++
		return harness.CellOutcome{}, false
	}
	c.hits++
	c.order.MoveToFront(e)
	return e.Value.(cacheEntry).out, true
}

// Complete stores a finished cell, evicting the least recently used cells
// beyond the limit. In-memory completion cannot fail, so the error is always
// nil (the CellCache contract reserves it for stores that persist).
func (c *resultCache) Complete(key harness.CellKey, cell harness.CellOutcome) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.Value = cacheEntry{key, cell}
		c.order.MoveToFront(e)
		return nil
	}
	c.entries[key] = c.order.PushFront(cacheEntry{key, cell})
	for c.order.Len() > c.limit {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(cacheEntry).key)
	}
	return nil
}

// stats returns (entries, hits, misses) — the cache-hit observability the
// smoke test asserts on.
func (c *resultCache) stats() (entries int, hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.hits, c.miss
}
