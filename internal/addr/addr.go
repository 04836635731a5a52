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

// Arena is a bump allocator carving the far memory window into regions.
// The far memory is modeled as arbitrarily large, so an arena never
// refuses an allocation; scratchpad space comes from SPAllocator.
type Arena struct {
	next Addr
}

// NewFarArena returns the arena for the capacity memory window.
func NewFarArena() *Arena {
	return &Arena{next: FarBase}
}

// Alloc reserves n bytes aligned to align (a power of two; 0 means 64) and
// returns the base address.
func (ar *Arena) Alloc(n uint64, align uint64) Addr {
	if align == 0 {
		align = 64
	}
	if align&(align-1) != 0 {
		panic("addr: alignment must be a power of two")
	}
	p := (uint64(ar.next) + align - 1) &^ (align - 1)
	ar.next = Addr(p + n)
	return Addr(p)
}
