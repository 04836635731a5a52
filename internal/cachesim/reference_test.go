package cachesim

// The oracles for the packed sets, neither of which is the packed sets.
//
// refCache is the model this package shipped before its sets were laid out
// for the host: one struct per way, a 64-bit timestamp each, a global clock,
// a compare-and-branch scan. It is kept verbatim (renamed only) as the
// definition of what Access, FlushDirty, Contains, Reset and Stats mean; the
// trace digests and cache-file hashes of every recording depend on the two
// agreeing result for result, so the differential below compares them on
// every operation, not just in aggregate.
//
// stackOracle is the textbook reuse-distance argument and shares no code
// with either implementation: per set, keep every line ever touched in
// recency order; an access hits exactly when its line's depth in that stack
// is below the associativity. It knows nothing of ways, victims or dirty
// bits, and predicts Stats.Hits/Misses exactly.

import (
	"reflect"
	"testing"

	"repro/internal/units"
	"repro/internal/xrand"
)

type refWay struct {
	tag   uint64 // line address; valid bit folded in via valid flag
	valid bool
	dirty bool
	used  uint64 // global LRU clock value at last touch
}

type refCache struct {
	lineSize uint64
	setMask  uint64
	setShift uint
	sets     [][]refWay
	clock    uint64
	stats    Stats
}

func newRef(capacity, lineSize units.Bytes, ways int) *refCache {
	lines := int64(capacity) / int64(lineSize)
	sets := lines / int64(ways)
	var shift uint
	for l := uint64(lineSize); l > 1; l >>= 1 {
		shift++
	}
	c := &refCache{
		lineSize: uint64(lineSize),
		setMask:  uint64(sets) - 1,
		setShift: shift,
		sets:     make([][]refWay, sets),
	}
	backing := make([]refWay, int(sets)*ways)
	for i := range c.sets {
		c.sets[i] = backing[i*ways : (i+1)*ways : (i+1)*ways]
	}
	return c
}

func (c *refCache) Access(addr uint64, write bool) Result {
	line := addr &^ (c.lineSize - 1)
	set := c.sets[(line>>c.setShift)&c.setMask]
	c.clock++

	// Hit path.
	for i := range set {
		if set[i].valid && set[i].tag == line {
			set[i].used = c.clock
			if write {
				set[i].dirty = true
			}
			c.stats.Hits++
			return Result{Hit: true}
		}
	}

	// Miss: find an invalid way or the LRU victim.
	c.stats.Misses++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			goto fill
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
fill:
	res := Result{}
	if set[victim].valid && set[victim].dirty {
		res.HasWB = true
		res.Writeback = set[victim].tag
		c.stats.Writebacks++
	}
	set[victim] = refWay{tag: line, valid: true, dirty: write, used: c.clock}
	return res
}

func (c *refCache) Contains(addr uint64) bool {
	line := addr &^ (c.lineSize - 1)
	set := c.sets[(line>>c.setShift)&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == line {
			return true
		}
	}
	return false
}

func (c *refCache) FlushDirty() []uint64 {
	var out []uint64
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid && set[i].dirty {
				out = append(out, set[i].tag)
				set[i].dirty = false
				c.stats.Writebacks++
			}
		}
	}
	return out
}

func (c *refCache) Reset() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = refWay{}
		}
	}
	c.stats = Stats{}
	c.clock = 0
}

// stackOracle counts hits and misses from per-set LRU stack distances.
type stackOracle struct {
	lineSize, sets uint64
	ways           int
	stacks         [][]uint64 // per set: line numbers, most recent first
	hits, misses   uint64
}

func newStackOracle(lineSize uint64, sets, ways int) *stackOracle {
	return &stackOracle{lineSize: lineSize, sets: uint64(sets), ways: ways, stacks: make([][]uint64, sets)}
}

func (o *stackOracle) access(addr uint64) {
	n := addr / o.lineSize
	st := o.stacks[n%o.sets]
	depth := len(st)
	for i, l := range st {
		if l == n {
			depth = i
			break
		}
	}
	if depth < len(st) && depth < o.ways {
		o.hits++
	} else {
		o.misses++
	}
	if depth == len(st) {
		st = append(st, 0)
	}
	copy(st[1:depth+1], st[:depth])
	st[0] = n
	o.stacks[n%o.sets] = st
}

func (o *stackOracle) reset() {
	for i := range o.stacks {
		o.stacks[i] = nil
	}
	o.hits, o.misses = 0, 0
}

const refLine = 64

var refWays = [...]int{1, 2, 4, 8, 16}

// differential interprets script as a stream of cache operations, two bytes
// apiece, and drives the packed cache, the timestamp reference and the
// stack-distance oracle through it in lockstep. Most accesses land in one of
// four hot sets and draw their tag from a pool a little over twice the
// associativity, so a set sees hits at every recency depth, evictions of
// clean and dirty lines, and refills of a way that was dirty — with reads and
// writes interleaved and a FlushDirty or Reset every few dozen operations.
func differential(t *testing.T, ways, sets int, script []byte) {
	t.Helper()
	capacity := units.Bytes(ways * sets * refLine)
	c := New(capacity, refLine, ways)
	ref := newRef(capacity, refLine, ways)
	oracle := newStackOracle(refLine, sets, ways)

	var touched []uint64
	seen := map[uint64]bool{} // lookup only
	check := func(step int, what string) {
		t.Helper()
		if got, want := c.Stats(), ref.stats; got != want {
			t.Fatalf("%d-way %d sets, step %d (%s): Stats = %+v, reference %+v", ways, sets, step, what, got, want)
		}
		if got := c.Stats(); got.Hits != oracle.hits || got.Misses != oracle.misses {
			t.Fatalf("%d-way %d sets, step %d (%s): %d hits / %d misses, stack distances predict %d / %d",
				ways, sets, step, what, got.Hits, got.Misses, oracle.hits, oracle.misses)
		}
		for _, a := range touched {
			if got, want := c.Contains(a), ref.Contains(a); got != want {
				t.Fatalf("%d-way %d sets, step %d (%s): Contains(%#x) = %v, reference %v", ways, sets, step, what, a, got, want)
			}
		}
	}

	tags := uint64(2*ways + 3)
	for i := 0; i+1 < len(script); i += 2 {
		b0, b1 := script[i], script[i+1]
		step := i / 2
		switch b0 & 0x3f {
		case 0:
			got, want := c.FlushDirty(), ref.FlushDirty()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d-way %d sets, step %d: FlushDirty = %#x, reference %#x", ways, sets, step, got, want)
			}
			check(step, "after FlushDirty")
			continue
		case 1:
			if b1 < 32 { // an eighth of the selector's hits: a rare full restart
				check(step, "before Reset")
				c.reset()
				ref.Reset()
				oracle.reset()
				check(step, "after Reset")
				continue
			}
		}
		set := uint64(b0&0x3f) % uint64(sets)
		if b0&0x40 != 0 {
			set = uint64(b1&3) * uint64(sets) / 4 // one of four hot sets
		}
		tag := uint64(b1>>2) % tags
		n := tag*uint64(sets) + set
		if tag&1 != 0 {
			n |= 1 << 41 // tags differ in high bits too
		}
		addr := n*refLine + uint64(b1&3)*8
		write := b0&0x80 != 0

		got, want := c.Access(addr, write), ref.Access(addr, write)
		oracle.access(addr)
		if got != want {
			t.Fatalf("%d-way %d sets, step %d: Access(%#x, write=%v) = %+v, reference %+v", ways, sets, step, addr, write, got, want)
		}
		if !seen[n] {
			seen[n] = true
			touched = append(touched, addr)
		}
	}
	check(len(script)/2, "end of stream")
	if got, want := c.FlushDirty(), ref.FlushDirty(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%d-way %d sets: final FlushDirty = %#x, reference %#x", ways, sets, got, want)
	}
	check(len(script)/2, "after final FlushDirty")
}

// TestAccessMatchesReference runs the differential over every supported
// associativity and every set count from 1 to 64.
func TestAccessMatchesReference(t *testing.T) {
	for _, ways := range refWays {
		for sets := 1; sets <= 64; sets *= 2 {
			rng := xrand.New(uint64(ways)<<8 | uint64(sets))
			script := make([]byte, 2*6000)
			for i := range script {
				script[i] = byte(rng.Intn(256))
			}
			differential(t, ways, sets, script)
		}
	}
}

// FuzzAccessMatchesReference lets the fuzzer choose the geometry and the
// operation stream.
func FuzzAccessMatchesReference(f *testing.F) {
	f.Add(uint8(4), uint8(5), []byte{0xc0, 0x00, 0xc0, 0x04, 0x40, 0x08, 0xc0, 0x0c, 0x00, 0x00, 0x40, 0x00})
	f.Add(uint8(0), uint8(0), []byte{0x80, 0x00, 0x02, 0x04, 0x01, 0x00, 0x82, 0x08})
	f.Add(uint8(1), uint8(3), []byte{0xc1, 0x11, 0xc1, 0x21, 0x41, 0x31, 0xc1, 0x11, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, waysSel, setsSel uint8, script []byte) {
		differential(t, refWays[int(waysSel)%len(refWays)], 1<<(setsSel%7), script)
	})
}
