package addr

import (
	"fmt"
	"sort"
)

// SPAllocator is the paper's "modified malloc() call to allocate a portion
// of the scratchpad space" (Section VI-B2): a first-fit free-list allocator
// with immediate coalescing over the near-memory window. The OS/runtime
// virtual-to-physical concerns the paper delegates are out of scope; this
// allocator hands out simulated physical addresses directly.
//
// SPAllocator is not safe for concurrent use; in this codebase allocation
// happens on the coordinating goroutine between parallel phases, matching
// the algorithms' structure.
type SPAllocator struct {
	base     Addr
	capacity uint64
	free     []span          // sorted by address, pairwise non-adjacent
	live     map[Addr]uint64 // allocation base -> size
	inUse    uint64
	peak     uint64
}

type span struct {
	base Addr
	size uint64
}

// NewSPAllocator returns an allocator managing a scratchpad of the given
// byte capacity.
func NewSPAllocator(capacity uint64) *SPAllocator {
	return &SPAllocator{
		base:     NearBase,
		capacity: capacity,
		free:     []span{{base: NearBase, size: capacity}},
		live:     make(map[Addr]uint64),
	}
}

// SPMalloc allocates n bytes of scratchpad (64-byte aligned, like a cache
// line) and reports whether the allocation succeeded. A false return means
// the scratchpad cannot currently satisfy the request — the algorithmic
// signal to spill to far memory instead.
func (s *SPAllocator) SPMalloc(n uint64) (Addr, bool) {
	if n == 0 {
		return 0, false
	}
	n = (n + 63) &^ 63
	for i, f := range s.free {
		if f.size < n {
			continue
		}
		a := f.base
		if f.size == n {
			s.free = append(s.free[:i], s.free[i+1:]...)
		} else {
			s.free[i] = span{base: f.base + Addr(n), size: f.size - n}
		}
		s.live[a] = n
		s.inUse += n
		if s.inUse > s.peak {
			s.peak = s.inUse
		}
		return a, true
	}
	return 0, false
}

// SPFree releases an allocation made by SPMalloc. Freeing an address that
// is not a live allocation base panics: the simulator would rather crash
// than silently corrupt its accounting.
func (s *SPAllocator) SPFree(a Addr) {
	n, ok := s.live[a]
	if !ok {
		panic(fmt.Sprintf("addr: SPFree of non-allocated address %#x", uint64(a)))
	}
	delete(s.live, a)
	s.inUse -= n

	// Insert the span in address order, then coalesce with neighbors.
	i := sort.Search(len(s.free), func(i int) bool { return s.free[i].base > a })
	s.free = append(s.free, span{})
	copy(s.free[i+1:], s.free[i:])
	s.free[i] = span{base: a, size: n}

	// Coalesce with successor first so the predecessor merge sees the
	// combined span.
	if i+1 < len(s.free) && s.free[i].base+Addr(s.free[i].size) == s.free[i+1].base {
		s.free[i].size += s.free[i+1].size
		s.free = append(s.free[:i+1], s.free[i+2:]...)
	}
	if i > 0 && s.free[i-1].base+Addr(s.free[i-1].size) == s.free[i].base {
		s.free[i-1].size += s.free[i].size
		s.free = append(s.free[:i], s.free[i+1:]...)
	}
}

// Peak returns the high-water mark of allocated bytes, used to verify the
// sub-1% metadata overhead claim of Section IV-D.
func (s *SPAllocator) Peak() uint64 { return s.peak }

// CheckInvariants verifies the free list is sorted, non-overlapping,
// non-adjacent (fully coalesced), inside the window, and that free+live
// bytes account for the whole capacity. Used by property tests.
func (s *SPAllocator) CheckInvariants() error {
	var freeBytes uint64
	prevEnd := Addr(0)
	for i, f := range s.free {
		if f.size == 0 {
			return fmt.Errorf("free[%d]: zero-size span", i)
		}
		if f.base < s.base || f.base+Addr(f.size) > s.base+Addr(s.capacity) {
			return fmt.Errorf("free[%d]: span outside window", i)
		}
		if i > 0 {
			if f.base < prevEnd {
				return fmt.Errorf("free[%d]: overlaps predecessor", i)
			}
			if f.base == prevEnd {
				return fmt.Errorf("free[%d]: not coalesced with predecessor", i)
			}
		}
		prevEnd = f.base + Addr(f.size)
		freeBytes += f.size
	}
	var liveBytes uint64
	for _, n := range s.live {
		liveBytes += n
	}
	if freeBytes+liveBytes != s.capacity {
		return fmt.Errorf("accounting: free %d + live %d != capacity %d",
			freeBytes, liveBytes, s.capacity)
	}
	if liveBytes != s.inUse {
		return fmt.Errorf("inUse counter %d != live bytes %d", s.inUse, liveBytes)
	}
	return nil
}
