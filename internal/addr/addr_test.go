package addr

import (
	"testing"
	"testing/quick"
)

func TestLevelOf(t *testing.T) {
	if LevelOf(FarBase) != Far {
		t.Error("FarBase should route far")
	}
	if LevelOf(FarBase+123456) != Far {
		t.Error("far window should route far")
	}
	if LevelOf(NearBase) != Near {
		t.Error("NearBase should route near")
	}
	if LevelOf(NearBase+1<<30) != Near {
		t.Error("near window should route near")
	}
}

func TestLevelOfPanicsBelowWindows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for null-ish address")
		}
	}()
	LevelOf(0x1000)
}

func TestLevelString(t *testing.T) {
	if Far.String() != "far" || Near.String() != "near" {
		t.Error("Level strings wrong")
	}
	if Level(9).String() != "Level(9)" {
		t.Error("unknown level string wrong")
	}
}

func TestArenaAlloc(t *testing.T) {
	ar := NewFarArena()
	a := ar.Alloc(100, 0)
	if a != FarBase {
		t.Errorf("first alloc at %#x, want FarBase", uint64(a))
	}
	b := ar.Alloc(8, 64)
	if uint64(b)%64 != 0 {
		t.Errorf("alignment violated: %#x", uint64(b))
	}
	if b < a+100 {
		t.Errorf("allocations overlap")
	}
}

func TestArenaBadAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two alignment")
		}
	}()
	NewFarArena().Alloc(8, 3)
}

func TestSPMallocBasic(t *testing.T) {
	s := NewSPAllocator(1 << 20)
	a, ok := s.SPMalloc(1000)
	if !ok {
		t.Fatal("SPMalloc failed")
	}
	if uint64(a)%64 != 0 {
		t.Error("allocation not line aligned")
	}
	if s.InUse() != 1024 { // rounded to 64
		t.Errorf("InUse = %d, want 1024", s.InUse())
	}
	s.SPFree(a)
	if s.InUse() != 0 {
		t.Errorf("InUse after free = %d", s.InUse())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSPMallocExhaustion(t *testing.T) {
	s := NewSPAllocator(4096)
	a, ok := s.SPMalloc(4096)
	if !ok {
		t.Fatal("full-capacity alloc should succeed")
	}
	if _, ok := s.SPMalloc(64); ok {
		t.Error("alloc from exhausted scratchpad should fail")
	}
	s.SPFree(a)
	if _, ok := s.SPMalloc(4096); !ok {
		t.Error("full capacity should be reusable after free")
	}
}

func TestSPMallocZero(t *testing.T) {
	s := NewSPAllocator(4096)
	if _, ok := s.SPMalloc(0); ok {
		t.Error("zero-byte alloc should fail")
	}
}

func TestSPFreeCoalesces(t *testing.T) {
	s := NewSPAllocator(3 * 64)
	a, _ := s.SPMalloc(64)
	b, _ := s.SPMalloc(64)
	c, _ := s.SPMalloc(64)
	// Free in an order that requires both-side coalescing for the middle.
	s.SPFree(a)
	s.SPFree(c)
	s.SPFree(b)
	if got := s.LargestFree(); got != 3*64 {
		t.Errorf("LargestFree = %d, want %d (full coalescing)", got, 3*64)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSPFreeDoubleFreePanics(t *testing.T) {
	s := NewSPAllocator(4096)
	a, _ := s.SPMalloc(64)
	s.SPFree(a)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double free")
		}
	}()
	s.SPFree(a)
}

func TestSPPeakTracking(t *testing.T) {
	s := NewSPAllocator(1 << 16)
	a, _ := s.SPMalloc(1 << 10)
	b, _ := s.SPMalloc(1 << 12)
	s.SPFree(a)
	s.SPFree(b)
	if got := s.Peak(); got != 1<<10+1<<12 {
		t.Errorf("Peak = %d", got)
	}
}

// TestSPAllocatorRandomWorkload drives the allocator through a randomized
// alloc/free sequence and checks the free-list invariants at every step —
// the property-based workout for the paper's modified-malloc substrate.
func TestSPAllocatorRandomWorkload(t *testing.T) {
	f := func(ops []uint16, seed uint8) bool {
		s := NewSPAllocator(1 << 16)
		var live []Addr
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				n := uint64(op%2048) + 1
				if a, ok := s.SPMalloc(n); ok {
					live = append(live, a)
				}
			} else {
				i := int(op/3) % len(live)
				s.SPFree(live[i])
				live = append(live[:i], live[i+1:]...)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		for _, a := range live {
			s.SPFree(a)
		}
		if s.InUse() != 0 {
			return false
		}
		if got := s.LargestFree(); got != s.capacity {
			t.Logf("fragmentation after freeing everything: largest %d of %d", got, s.capacity)
			return false
		}
		return s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAllocationsDisjoint(t *testing.T) {
	s := NewSPAllocator(1 << 16)
	type iv struct{ lo, hi uint64 }
	var ivs []iv
	for i := 0; i < 100; i++ {
		n := uint64(i%7)*64 + 64
		a, ok := s.SPMalloc(n)
		if !ok {
			break
		}
		ivs = append(ivs, iv{uint64(a), uint64(a) + n})
	}
	for i := range ivs {
		for j := i + 1; j < len(ivs); j++ {
			if ivs[i].lo < ivs[j].hi && ivs[j].lo < ivs[i].hi {
				t.Fatalf("allocations %d and %d overlap", i, j)
			}
		}
	}
}

// InUse returns the bytes currently allocated.
func (s *SPAllocator) InUse() uint64 { return s.inUse }

// LargestFree returns the size of the largest free span — what the next
// SPMalloc could satisfy.
func (s *SPAllocator) LargestFree() uint64 {
	var max uint64
	for _, f := range s.free {
		if f.size > max {
			max = f.size
		}
	}
	return max
}
