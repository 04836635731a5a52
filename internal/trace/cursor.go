package trace

import (
	"encoding/binary"
	"fmt"
)

// Column indices within a v3 per-thread section group. The file stores the
// five columns of one thread contiguously in this order; colNames names
// them in DecodeErrors and nmtrace stat output.
const (
	colTags   = iota // run/literal blocks of tag bytes (see columnar.go)
	colGaps          // u32 dictionary + uvarint index per op whose tag sets tagHasGap
	colAddrs         // signed varint delta of (addr >> shift) per OpAccess/OpAtomic
	colDMAs          // uvarint src, dst, size triple per OpDMA
	colPhases        // uvarint phase id per OpPhase
	numCols
)

// colNames names the columns for DecodeError sections and stat output.
var colNames = [numCols]string{"tags", "gaps", "addrs", "dma", "phase"}

// Cursor streams one thread's ops in order. It is a value type: CursorAt
// returns it on the stack and the replay core embeds it, so iteration
// allocates nothing. It decodes each op on the fly from a v3 image's
// per-thread column segments; there is no other mode.
//
// Usage:
//
//	cur := src.CursorAt(tid)
//	for cur.Next() {
//		op := cur.Cur
//		...
//	}
//	if err := cur.Err(); err != nil { ... }
//
// Next never allocates, including on malformed input: a decode failure
// latches the cursor into a terminal failed state and Next reports false;
// Err materializes the *DecodeError afterwards, off the hot path. A cursor
// holds its owning *Columnar, so the mapped file cannot be unmapped by the
// finalizer while any cursor can still read it.
type Cursor struct {
	// Cur is the current op: valid after each Next that returned true.
	Cur Op

	owner  *Columnar // keeps the mapping alive while cursors exist
	n      int64     // claimed ops not yet produced
	run    uint64    // ops remaining in the current tag run block
	lit    uint64    // tag bytes remaining in the current literal block
	tag    byte      // current op's tag byte
	prev   uint64    // shifted-address accumulator (see Columnar shift)
	shift  uint      // per-thread address shift
	dict   []byte    // gap dictionary: fixed-width u32 entries
	tags   []byte    // unconsumed remainder of each column
	gaps   []byte    // (gaps: the index stream past the dictionary)
	addrs  []byte
	dmas   []byte
	phases []byte
	ends   [numCols]int64 // file offset one past each column, for Err

	failed bool
	col    int // column that failed, valid when failed
	tid    int
}

// Next advances to the next op, reporting false at end of stream or on a
// decode failure (distinguish with Err). This is the replay kernel's
// per-event decode step, so the failure paths only latch state: building
// the error is deferred to Err.
func (c *Cursor) Next() bool {
	if c.failed || c.n <= 0 {
		return false
	}
	if c.run == 0 && c.lit == 0 {
		ctl, m := binary.Uvarint(c.tags)
		if m <= 0 {
			return c.fail(colTags)
		}
		c.tags = c.tags[m:]
		if ctl&1 != 0 {
			rl := (ctl >> 1) + minTagRun
			if rl > uint64(c.n) || len(c.tags) == 0 {
				return c.fail(colTags)
			}
			tag := c.tags[0]
			if tag&tagReserved != 0 || Kind(tag&tagKindMask) > OpPhase {
				return c.fail(colTags)
			}
			c.tags = c.tags[1:]
			c.tag = tag
			c.run = rl
		} else {
			ll := (ctl >> 1) + 1
			if ll > uint64(c.n) {
				return c.fail(colTags)
			}
			c.lit = ll
		}
	}
	if c.run > 0 {
		c.run--
	} else {
		if len(c.tags) == 0 {
			return c.fail(colTags)
		}
		tag := c.tags[0]
		if tag&tagReserved != 0 || Kind(tag&tagKindMask) > OpPhase {
			return c.fail(colTags)
		}
		c.tags = c.tags[1:]
		c.tag = tag
		c.lit--
	}
	c.n--
	op := Op{Kind: Kind(c.tag & tagKindMask), Write: c.tag&tagWrite != 0}
	if c.tag&tagHasGap != 0 {
		idx, m := binary.Uvarint(c.gaps)
		if m <= 0 || idx >= uint64(len(c.dict))/4 {
			return c.fail(colGaps)
		}
		c.gaps = c.gaps[m:]
		g := binary.LittleEndian.Uint32(c.dict[idx*4:])
		if g == 0 {
			return c.fail(colGaps)
		}
		op.Gap = g
	}
	switch op.Kind {
	case OpAccess, OpAtomic:
		d, m := binary.Varint(c.addrs)
		if m <= 0 {
			return c.fail(colAddrs)
		}
		c.addrs = c.addrs[m:]
		c.prev += uint64(d)
		op.Addr = c.prev << c.shift
	case OpDMA:
		src, m := binary.Uvarint(c.dmas)
		if m <= 0 {
			return c.fail(colDMAs)
		}
		c.dmas = c.dmas[m:]
		dst, m := binary.Uvarint(c.dmas)
		if m <= 0 {
			return c.fail(colDMAs)
		}
		c.dmas = c.dmas[m:]
		sz, m := binary.Uvarint(c.dmas)
		if m <= 0 || sz > uint64(^uint32(0)) {
			return c.fail(colDMAs)
		}
		c.dmas = c.dmas[m:]
		op.Addr, op.Addr2, op.Size = src, dst, uint32(sz)
	case OpPhase:
		id, m := binary.Uvarint(c.phases)
		if m <= 0 {
			return c.fail(colPhases)
		}
		c.phases = c.phases[m:]
		op.Addr = id
	}
	c.Cur = op
	return true
}

// fail latches the cursor into its terminal failed state. It allocates
// nothing: Err builds the *DecodeError on demand.
func (c *Cursor) fail(col int) bool {
	c.failed = true
	c.col = col
	return false
}

// Err returns the decode failure that stopped the cursor, or nil if Next
// reported false because the stream is simply exhausted. The error is a
// *DecodeError naming the thread's column and the file byte offset at
// which decoding stopped.
func (c *Cursor) Err() error {
	if !c.failed {
		return nil
	}
	return decodeErrf(c.colSection(c.col), int(c.colOffset(c.col)),
		"truncated or malformed column data (%d ops still claimed)", c.n)
}

// colSection names column col of this cursor's thread for error reporting.
func (c *Cursor) colSection(col int) string {
	return fmt.Sprintf("thread %d %s column", c.tid, colNames[col])
}

// colOffset returns the file byte offset at which column col's next
// unconsumed byte sits (== the column's end offset once fully consumed).
func (c *Cursor) colOffset(col int) int64 {
	rem := [numCols]int{len(c.tags), len(c.gaps), len(c.addrs), len(c.dmas), len(c.phases)}
	return c.ends[col] - int64(rem[col])
}

// remaining reports the first column with unconsumed bytes, or -1 when the
// walk consumed every column exactly. Columnar.Validate uses it to reject
// files whose columns carry trailing garbage past the claimed op count.
func (c *Cursor) remaining() int {
	for col, rem := range [numCols]int{len(c.tags), len(c.gaps), len(c.addrs), len(c.dmas), len(c.phases)} {
		if rem != 0 {
			return col
		}
	}
	return -1
}
