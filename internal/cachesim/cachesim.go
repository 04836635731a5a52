// Package cachesim provides a set-associative, write-back, write-allocate
// cache model with true LRU replacement. It is used twice in the
// simulation pipeline:
//
//   - as the per-core private L1 (16KB-class, 2-way) that filters the raw
//     access stream at trace-record time, playing the role Ariel's cache
//     components play in the paper's SST configuration (Figure 5), and
//   - as the shared per-group L2 (512KB-class, 16-way) simulated at replay
//     time, where the interleaving of the four cores in a group determines
//     its contents.
//
// The model tracks tags only: data values live in the native Go arrays the
// algorithms operate on, so the cache decides *timing and traffic*, never
// correctness.
package cachesim

import (
	"fmt"
	"math/bits"

	"repro/internal/units"
)

// Result describes the consequence of one cache access.
type Result struct {
	Hit       bool
	Writeback uint64 // line address of the dirty victim; valid when HasWB
	HasWB     bool   // a dirty line was evicted and must be written back
}

// Stats aggregates cache activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns misses over total accesses (0 for no accesses).
func (s Stats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// maxWays is the widest associativity the model supports: a set's LRU order
// is a permutation of way indices packed four bits apiece into one word.
const maxWays = 16

// CheckGeometry reports why a cache of the given capacity, line size and
// associativity cannot be built, or nil when it can. It is the one home of
// the geometry rules: New panics with its text, and the configuration types
// that carry a geometry (machine.Config, trace.L1Geometry) return it wrapped
// with the name of the offending field.
func CheckGeometry(capacity, lineSize units.Bytes, ways int) error {
	if capacity <= 0 || lineSize <= 0 || ways <= 0 {
		return fmt.Errorf("cachesim: non-positive geometry (capacity %d, line %d, %d ways)",
			int64(capacity), int64(lineSize), ways)
	}
	if ways > maxWays {
		return fmt.Errorf("cachesim: %d ways, at most %d supported", ways, maxWays)
	}
	if uint64(lineSize)&(uint64(lineSize)-1) != 0 {
		return fmt.Errorf("cachesim: line size %d must be a power of two", int64(lineSize))
	}
	sets := int64(capacity) / int64(lineSize) / int64(ways)
	if sets <= 0 || sets*int64(ways)*int64(lineSize) != int64(capacity) {
		return fmt.Errorf("cachesim: capacity %v not divisible into %d-way sets of %v lines",
			capacity, ways, lineSize)
	}
	if uint64(sets)&(uint64(sets)-1) != 0 {
		return fmt.Errorf("cachesim: set count %d must be a power of two", sets)
	}
	return nil
}

// setState is everything about one set except its tags: 16 bytes, so a
// 16-way set is 128 B of tags plus this record where a way-per-struct layout
// with a timestamp each took 384 B.
type setState struct {
	// order is the true-LRU recency order: nibble k holds the index of the
	// k-th most recently used way, so nibble 0 is the MRU way and nibble
	// ways-1 the LRU one; nibbles at and above ways are never read (they
	// collect stale copies of evicted nibbles). A set starts as
	// ways-1, …, 1, 0 and an invalid way is never touched, so the invalid
	// ways are always the tail of the order with the lowest index last: the
	// LRU nibble is the lowest-index invalid way while one exists, and the
	// least recently used way once the set is full.
	order uint64
	valid uint16 // bit w: way w holds a line
	dirty uint16 // bit w: way w's line is modified; a subset of valid
}

const (
	nibbleOnes  = 0x1111111111111111
	nibbleHighs = 0x8888888888888888
	// descending is a 16-way set's initial order; narrower sets shift it
	// down to their own ways-1, …, 0.
	descending = 0x0123456789abcdef
)

// eq is a == b as a 0/1 word. The compiler lowers this shape to a compare
// and a SETEQ, not a jump (checked with -gcflags=-S); were it ever to emit a
// branch, Access would only be slower, never wrong.
func eq(a, b uint64) uint32 {
	var e uint32
	if a == b {
		e = 1
	}
	return e
}

// touch returns order with way w moved to the MRU position and the ways that
// were more recent than it each aged by one place. w must be in the order.
func touch(order uint64, w uint) uint64 {
	// Find w: XOR with w in every nibble zeroes exactly the nibbles that
	// hold w, and the lowest set bit of the classic SWAR zero test marks the
	// lowest of them (bits above it may be borrow artefacts, or unused high
	// nibbles that happen to match; both lie above the real one).
	x := order ^ uint64(w)*nibbleOnes
	p := uint(bits.TrailingZeros64((x-nibbleOnes)&^x&nibbleHighs)) &^ 3 & 63
	below := order & (1<<p - 1)
	return order&^(below|0xf<<p) | below<<4 | uint64(w)
}

// Cache is a single set-associative cache. Not safe for concurrent use;
// each L1 belongs to one recording thread and the L2s are touched only from
// the single-threaded event loop.
type Cache struct {
	lineSize uint64
	setMask  uint64
	setShift uint
	ways     int
	lruShift uint     // bit offset of the LRU nibble: 4*(ways-1)
	tags     []uint64 // set-major: way w of set s is tags[s*ways+w]
	sets     []setState
	stats    Stats
}

// New builds a cache of the given capacity, line size, and associativity.
// Capacity must be ways*lineSize*2^k for some k ≥ 0, and ways at most
// maxWays; see CheckGeometry, whose error New panics with.
func New(capacity, lineSize units.Bytes, ways int) *Cache {
	if err := CheckGeometry(capacity, lineSize, ways); err != nil {
		panic(err.Error())
	}
	sets := int(int64(capacity) / int64(lineSize) / int64(ways))
	c := &Cache{
		lineSize: uint64(lineSize),
		setMask:  uint64(sets) - 1,
		setShift: uint(bits.TrailingZeros64(uint64(lineSize))),
		ways:     ways,
		lruShift: 4 * uint(ways-1),
		tags:     make([]uint64, sets*ways),
		sets:     make([]setState, sets),
	}
	c.Reset()
	return c
}

// Access performs one access to the line containing addr. write marks the
// line dirty (write-allocate). The returned Result reports hit/miss and any
// dirty victim the caller must write back toward memory.
func (c *Cache) Access(addr uint64, write bool) Result {
	line := addr &^ (c.lineSize - 1)
	si := (line >> c.setShift) & c.setMask
	s := &c.sets[si]
	tags := c.tags[int(si)*c.ways:][:c.ways]

	// Probe the MRU way first. The record-time L1 sees the raw stream, where
	// most hits re-touch the line just used: they end here, with no scan and
	// the order already right. The replay-time L2 sees what an L1 let
	// through, so for it this is one well-predicted not-taken branch.
	if mru := uint(s.order) & 0xf; tags[mru] == line && s.valid>>mru&1 != 0 {
		if write {
			s.dirty |= 1 << mru
		}
		c.stats.Hits++
		return Result{Hit: true}
	}

	// Hit scan over the tags alone: one match bit per way, highest way
	// first so each bit is shifted in by one, and no branch on any of them.
	var m uint32
	for w := len(tags) - 1; w >= 0; w-- {
		m = m<<1 | eq(tags[w], line)
	}
	if match := uint16(m) & s.valid; match != 0 {
		w := uint(bits.TrailingZeros16(match))
		s.order = touch(s.order, w)
		if write {
			s.dirty |= 1 << w
		}
		c.stats.Hits++
		return Result{Hit: true}
	}

	// Miss: the LRU nibble names the victim (see setState.order), and
	// shifting it back in at the bottom makes the refilled way the MRU one.
	c.stats.Misses++
	v := uint(s.order>>c.lruShift) & 0xf
	s.order = s.order<<4 | uint64(v)
	res := Result{}
	if s.dirty>>v&1 != 0 {
		res.HasWB = true
		res.Writeback = tags[v]
		c.stats.Writebacks++
	}
	tags[v] = line
	s.valid |= 1 << v
	s.dirty &^= 1 << v
	if write {
		s.dirty |= 1 << v
	}
	return res
}

// FlushDirty returns the addresses of all dirty lines — in ascending set,
// then ascending way, the order the recorder emits them as writebacks — and
// marks them clean. Used at the end of a recorded phase to account for the
// final writeback wave (the paper's sorted chunks "scheduled for transfer
// back to DRAM").
func (c *Cache) FlushDirty() []uint64 {
	var out []uint64
	for si := range c.sets {
		s := &c.sets[si]
		for d := s.dirty; d != 0; d &= d - 1 {
			out = append(out, c.tags[si*c.ways+bits.TrailingZeros16(d)])
			c.stats.Writebacks++
		}
		s.dirty = 0
	}
	return out
}

// Reset invalidates every line and clears statistics.
func (c *Cache) Reset() {
	for i := range c.sets {
		c.sets[i] = setState{order: descending >> (4 * uint(maxWays-c.ways))}
	}
	c.stats = Stats{}
}

// Stats returns a copy of the access statistics.
func (c *Cache) Stats() Stats { return c.stats }
