// Package addr defines the simulated physical address space of the
// two-level main memory and implements the paper's programmatic interface
// (Section VI-B2): the scratchpad occupies a fixed portion of the physical
// address range, loads and stores treat both spaces identically, and a
// modified malloc hands out scratchpad space.
//
// The far (capacity) memory and the near (scratchpad) memory each own a
// disjoint address window; routing a memory request is a pure function of
// its address, exactly as in the paper's directory-controller design
// ("references to scratchpad data ... on the basis of a fixed address
// range").
package addr

import "fmt"

// Addr is a simulated physical byte address.
type Addr uint64

// Address-space layout. The far window is placed low and the near window
// high, with a guard gap so arithmetic overflow bugs surface as routing
// panics rather than silent misrouting.
const (
	FarBase  Addr = 0x0000_1000_0000_0000
	NearBase Addr = 0x4000_0000_0000_0000
)

// Level identifies which main-memory device backs an address.
type Level uint8

// The two levels of main memory.
const (
	Far  Level = iota // capacity DRAM, block size B
	Near              // scratchpad, block size ρB
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Far:
		return "far"
	case Near:
		return "near"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// LevelOf routes an address to its backing memory. It panics on an address
// outside both windows: in this simulator every access must come from an
// arena allocation, so a stray address is a bug.
func LevelOf(a Addr) Level {
	switch {
	case a >= NearBase:
		return Near
	case a >= FarBase:
		return Far
	default:
		panic(fmt.Sprintf("addr: address %#x outside both memory windows", uint64(a)))
	}
}

// Line returns the cache-line index of an address for the given line size,
// which must be a power of two.
func Line(a Addr, lineSize uint64) uint64 {
	return uint64(a) &^ (lineSize - 1)
}

// Arena is a bump allocator carving a memory window into named regions.
// The far memory is modeled as arbitrarily large, so its arena never
// refuses an allocation; the near arena is bounded by the scratchpad
// capacity and refusals are real (callers fall back to SPAllocator for
// dynamic use, or size their chunks to fit).
type Arena struct {
	name  string
	base  Addr
	limit Addr // zero means unbounded
	next  Addr
}

// NewFarArena returns the arena for the capacity memory window.
func NewFarArena() *Arena {
	return &Arena{name: "far", base: FarBase, next: FarBase}
}

// NewNearArena returns the arena for a scratchpad of the given byte
// capacity.
func NewNearArena(capacity uint64) *Arena {
	return &Arena{
		name:  "near",
		base:  NearBase,
		next:  NearBase,
		limit: NearBase + Addr(capacity),
	}
}

// Alloc reserves n bytes aligned to align (a power of two; 0 means 64) and
// returns the base address. Alloc panics when a bounded arena is exhausted:
// the algorithms size their scratchpad working sets deliberately, so
// exhaustion is a programming error, not a runtime condition.
func (ar *Arena) Alloc(n uint64, align uint64) Addr {
	if align == 0 {
		align = 64
	}
	if align&(align-1) != 0 {
		panic("addr: alignment must be a power of two")
	}
	p := (uint64(ar.next) + align - 1) &^ (align - 1)
	end := p + n
	if ar.limit != 0 && Addr(end) > ar.limit {
		panic(fmt.Sprintf("addr: %s arena exhausted: want %d bytes, %d free",
			ar.name, n, uint64(ar.limit)-uint64(ar.next)))
	}
	ar.next = Addr(end)
	return Addr(p)
}

// Used reports the bytes consumed so far.
func (ar *Arena) Used() uint64 { return uint64(ar.next - ar.base) }

// Free reports the bytes remaining, or ^uint64(0) for an unbounded arena.
func (ar *Arena) Free() uint64 {
	if ar.limit == 0 {
		return ^uint64(0)
	}
	return uint64(ar.limit - ar.next)
}

// Reset returns the arena to empty. Used between independent experiment
// runs that reuse one machine description.
func (ar *Arena) Reset() { ar.next = ar.base }
