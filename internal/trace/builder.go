package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
)

// The v3 column builder: the only writer of the columnar format. A
// recording is born columnar — every probe owns one colBuilder and TP.emit
// puts each op straight into it — and EncodeColumnar drives the same
// builder from any Source's cursors, so the file format has one encoder.
//
// The contract is put/seal. put appends one op to the thread's raw columns:
// a tag byte, a provisional gap-dictionary index when the op carries a gap,
// a shifted-delta address varint, a DMA triple, a phase id — about 4 bytes
// per op where a decoded Op is 32. seal fixes what only the whole stream
// decides — the address shift every address shares, the frequency order of
// the gap dictionary — and measures the canonical columns of the layout
// documented in columnar.go; writeTo then encodes them straight into their
// slots of the image, so no column exists twice. Sealing is canonical:
// equal op streams seal to equal bytes whatever the raw columns looked
// like on the way, which is what lets a cache file written by a recorder
// be compared, by hash, with one written by nmtrace convert.

// ForkJoin runs body(0) … body(n-1), possibly concurrently, and returns
// once every call has. The per-thread seal and validation walks take one so
// they can run on all host CPUs without this package starting goroutines:
// internal/par imports trace, so callers hand par.Each in. A nil ForkJoin
// runs the bodies in order on the calling goroutine; with n == 0 nothing is
// called.
type ForkJoin func(n int, body func(i int))

func (fj ForkJoin) run(n int, body func(i int)) {
	if fj != nil && n > 0 {
		fj(n, body)
		return
	}
	for i := 0; i < n; i++ {
		body(i)
	}
}

// chunkBuf is an append-only byte buffer that grows by adding chunks, never
// by copying: a recording's raw columns total tens of megabytes across 256
// threads, and doubling-and-copying 32-byte ops was a quarter of a Table I
// run. Chunks double from minChunk to maxChunk, so a short stream wastes
// little and a long one allocates its size plus at most one chunk of slack.
// No varint ever straddles two chunks.
type chunkBuf struct {
	full [][]byte
	cur  []byte
}

const (
	minChunk = 256
	maxChunk = 8 << 10
)

// room makes the current chunk able to take n more bytes.
func (c *chunkBuf) room(n int) {
	if cap(c.cur)-len(c.cur) >= n {
		return
	}
	size := minChunk
	if c.cur != nil {
		c.full = append(c.full, c.cur)
		if size = 2 * cap(c.cur); size > maxChunk {
			size = maxChunk
		}
	}
	c.cur = make([]byte, 0, size)
}

func (c *chunkBuf) putByte(b byte) {
	c.room(1)
	c.cur = append(c.cur, b)
}

func (c *chunkBuf) putUvarint(v uint64) {
	c.room(binary.MaxVarintLen64)
	c.cur = binary.AppendUvarint(c.cur, v)
}

func (c *chunkBuf) putVarint(v int64) {
	c.room(binary.MaxVarintLen64)
	c.cur = binary.AppendVarint(c.cur, v)
}

// size returns the bytes held.
func (c *chunkBuf) size() int {
	n := len(c.cur)
	for _, ch := range c.full {
		n += len(ch)
	}
	return n
}

// each visits the chunks in append order.
func (c *chunkBuf) each(visit func(chunk []byte)) {
	for _, ch := range c.full {
		visit(ch)
	}
	if len(c.cur) > 0 {
		visit(c.cur)
	}
}

// copyTo copies the held bytes to the front of dst, which must have room.
func (c *chunkBuf) copyTo(dst []byte) {
	c.each(func(chunk []byte) { dst = dst[copy(dst, chunk):] })
}

// gapDict numbers a thread's distinct gap values in first-seen order and
// counts their occurrences: an open-addressing table keyed by the gap
// itself. Recorded gaps draw from a few hundred cost sums, so the table
// stays a few kilobytes while millions of gaps stream through it — where
// sorting every gap to find the distinct ones was the old encoder's
// largest cost. Zero marks an empty slot: a zero gap never reaches the
// column (it clears tagHasGap instead).
type gapDict struct {
	keys   []uint32 // hash slots: the gap value, 0 when empty
	ids    []uint32 // hash slots: the value's id
	vals   []uint32 // by id: the gap value
	counts []uint64 // by id: occurrences
}

// id returns gap's id, assigning the next one on first sight, and counts
// the occurrence.
func (d *gapDict) id(gap uint32) uint32 {
	if 2*len(d.vals) >= len(d.keys) {
		d.grow()
	}
	i := d.slot(gap)
	if d.keys[i] == 0 {
		d.keys[i], d.ids[i] = gap, uint32(len(d.vals))
		d.vals = append(d.vals, gap)
		d.counts = append(d.counts, 0)
	}
	id := d.ids[i]
	d.counts[id]++
	return id
}

// slot returns the index holding gap, or the empty slot where it belongs.
func (d *gapDict) slot(gap uint32) int {
	mask := len(d.keys) - 1
	i := int(gap*0x9E3779B1>>8) & mask // multiplicative hash, high bits
	for d.keys[i] != gap && d.keys[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

func (d *gapDict) grow() {
	n := 2 * len(d.keys)
	if n == 0 {
		n = 64
	}
	d.keys, d.ids = make([]uint32, n), make([]uint32, n)
	for id, gap := range d.vals {
		i := d.slot(gap)
		d.keys[i], d.ids[i] = gap, uint32(id)
	}
}

// ranks orders the ids by frequency (ties by value, for determinism) — the
// canonical dictionary order, which puts the hottest values in the 1-byte
// index range — and returns the ids in rank order plus each id's rank.
func (d *gapDict) ranks() (order, rank []uint32) {
	order, rank = make([]uint32, len(d.vals)), make([]uint32, len(d.vals))
	for id := range order {
		order[id] = uint32(id)
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if d.counts[ia] != d.counts[ib] {
			return d.counts[ia] > d.counts[ib]
		}
		return d.vals[ia] < d.vals[ib]
	})
	for r, id := range order {
		rank[id] = uint32(r)
	}
	return order, rank
}

// colBuilder accumulates one thread's raw columns. The zero value is
// usable (it starts at shift 0); it is a single-goroutine object, like the
// probe that owns it.
type colBuilder struct {
	ops    int64
	shift  uint   // address shift the addrs column is currently written under
	orAddr uint64 // OR of every access/atomic address put so far
	prev   uint64 // last address, shifted
	dict   gapDict
	tags   chunkBuf // one raw tag byte per op
	gaps   chunkBuf // uvarint gapDict id per op whose tag sets tagHasGap
	addrs  chunkBuf // signed varint delta of (addr >> shift)
	dmas   chunkBuf // uvarint src, dst, size: already in final form
	phases chunkBuf // uvarint phase id: already in final form

	// Set by seal, consumed by writeTo.
	order, rank []uint32
}

// provisionalShift is the shift a builder starts under: log2 of the L1
// line, which is what every recorded address is aligned to. It only saves
// work — the sealed shift does not depend on it.
func provisionalShift(l1 L1Geometry) uint {
	if l1.LineSize <= 0 {
		return 0
	}
	return uint(bits.TrailingZeros64(uint64(l1.LineSize)))
}

// put appends one op.
func (b *colBuilder) put(op Op) {
	tag := byte(op.Kind) & tagKindMask
	if op.Write {
		tag |= tagWrite
	}
	if op.Gap != 0 {
		tag |= tagHasGap
		b.gaps.putUvarint(uint64(b.dict.id(op.Gap)))
	}
	b.tags.putByte(tag)
	b.ops++
	switch op.Kind {
	case OpAccess, OpAtomic:
		b.putAddr(op.Addr)
	case OpDMA:
		b.dmas.putUvarint(op.Addr)
		b.dmas.putUvarint(op.Addr2)
		b.dmas.putUvarint(uint64(op.Size))
	case OpPhase:
		b.phases.putUvarint(op.Addr)
	}
}

// putAddr appends one address under the current shift, lowering the shift
// first if this address has fewer trailing zeros than every one before it:
// no address bit is ever shifted out.
func (b *colBuilder) putAddr(a uint64) {
	if a&(1<<b.shift-1) != 0 {
		b.reshift(uint(bits.TrailingZeros64(a)))
	}
	b.orAddr |= a
	sa := a >> b.shift
	b.addrs.putVarint(int64(sa - b.prev))
	b.prev = sa
}

// reshift rewrites the addrs column under shift s. Both directions are
// exact: lowering re-expands addresses that all had the old shift's zeros,
// and seal only raises to a shift every address shares.
func (b *colBuilder) reshift(s uint) {
	var out chunkBuf
	var oldPrev, newPrev uint64
	b.addrs.each(func(chunk []byte) {
		for len(chunk) > 0 {
			d, m := binary.Varint(chunk)
			chunk = chunk[m:]
			oldPrev += uint64(d)
			sa := oldPrev << b.shift >> s
			out.putVarint(int64(sa - newPrev))
			newPrev = sa
		}
	})
	b.addrs, b.prev, b.shift = out, newPrev, s
}

// seal fixes the thread's canonical form and returns the size of each of
// its columns in it. After seal the builder takes no more ops.
func (b *colBuilder) seal() (sizes [numCols]int) {
	// The canonical shift is the trailing-zero count every access/atomic
	// address shares, 0 for a thread with none. When every address is zero
	// every delta is zero under any shift, so only the number changes.
	switch {
	case b.orAddr == 0:
		b.shift = 0
	case uint(bits.TrailingZeros64(b.orAddr)) != b.shift:
		b.reshift(uint(bits.TrailingZeros64(b.orAddr)))
	}
	b.order, b.rank = b.dict.ranks()
	sizes[colTags] = b.tagBlocks(nil)
	sizes[colGaps] = uvarintLen(uint64(len(b.order))) + 4*len(b.order)
	for id, r := range b.rank {
		sizes[colGaps] += int(b.dict.counts[id]) * uvarintLen(uint64(r))
	}
	sizes[colAddrs], sizes[colDMAs], sizes[colPhases] = b.addrs.size(), b.dmas.size(), b.phases.size()
	return sizes
}

// writeTo encodes the sealed columns into dst — each slot exactly the size
// seal measured — and releases the raw ones.
func (b *colBuilder) writeTo(dst [numCols][]byte) {
	b.tagBlocks(dst[colTags])

	// Gaps: the dictionary in rank order as fixed-width u32 entries, then
	// each occurrence's id re-expressed as its rank.
	g := binary.AppendUvarint(dst[colGaps][:0], uint64(len(b.order)))
	for _, id := range b.order {
		g = binary.LittleEndian.AppendUint32(g, b.dict.vals[id])
	}
	b.gaps.each(func(chunk []byte) {
		for len(chunk) > 0 {
			id, m := binary.Uvarint(chunk)
			chunk = chunk[m:]
			g = binary.AppendUvarint(g, uint64(b.rank[id]))
		}
	})
	if len(g) != len(dst[colGaps]) {
		panic(fmt.Sprintf("trace: gap column measured %d bytes, encoded %d", len(dst[colGaps]), len(g)))
	}

	b.addrs.copyTo(dst[colAddrs])
	b.dmas.copyTo(dst[colDMAs])
	b.phases.copyTo(dst[colPhases])
	*b = colBuilder{}
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// tagBlocks block-encodes the raw tag column: every maximal run of
// minTagRun or more equal tags becomes a run block, everything between two
// such runs one literal block. It returns the encoded size; with a non-nil
// dst (of exactly that size) it also writes the blocks there. Deterministic,
// so re-encoding a decoded trace is byte-identical.
func (b *colBuilder) tagBlocks(dst []byte) (size int) {
	out := dst[:0]
	src := chunkReader{buf: &b.tags} // trails the scan: the next tag byte not yet emitted
	lit := 0                         // tags scanned since the last run block, pending as one literal
	flush := func() {
		if lit == 0 {
			return
		}
		size += uvarintLen(uint64(lit-1)<<1) + lit
		if dst != nil {
			out = binary.AppendUvarint(out, uint64(lit-1)<<1)
			out = src.take(out, lit)
		}
		lit = 0
	}
	block := func(tag byte, n int) { // one maximal run of n equal tags
		if n < minTagRun {
			lit += n
			return
		}
		flush()
		size += uvarintLen(uint64(n-minTagRun)<<1|1) + 1
		if dst != nil {
			out = append(binary.AppendUvarint(out, uint64(n-minTagRun)<<1|1), tag)
			src.take(nil, n)
		}
	}
	var tag byte
	n := 0
	b.tags.each(func(chunk []byte) {
		for _, t := range chunk {
			if n > 0 && t != tag {
				block(tag, n)
				n = 0
			}
			tag = t
			n++
		}
	})
	if n > 0 {
		block(tag, n)
	}
	flush()
	if dst != nil && len(out) != len(dst) {
		panic(fmt.Sprintf("trace: tag column measured %d bytes, encoded %d", len(dst), len(out)))
	}
	return size
}

// chunkReader reads a chunkBuf front to back.
type chunkReader struct {
	buf   *chunkBuf
	chunk int // index into buf.full; len(buf.full) means buf.cur
	off   int
}

// take consumes the next n bytes, appending them to dst when it is non-nil.
func (r *chunkReader) take(dst []byte, n int) []byte {
	for n > 0 {
		src := r.buf.cur
		if r.chunk < len(r.buf.full) {
			src = r.buf.full[r.chunk]
		}
		m := min(n, len(src)-r.off)
		if dst != nil {
			dst = append(dst, src[r.off:r.off+m]...)
		}
		n -= m
		if r.off += m; r.off == len(src) {
			r.chunk, r.off = r.chunk+1, 0
		}
	}
	return dst
}

// sealImage seals every builder and lays the columns out as a v3 image,
// returned opened: seal measures, the layout follows from the sizes, and
// each thread then allocates its own segment and encodes into it — both
// per-thread steps under fj. writeTo empties the builder it reads, so a
// thread's raw columns are garbage once its segment is written, and no
// buffer the size of the whole image is ever allocated. Everything but the
// footer is final; the footer carries the content digest, which costs a walk
// of every op, so every caller finishes the image before handing it out:
// with its first walk (Columnar.firstWalk), or with the checks a canonical
// v2 read made as it put the ops (see decodeTrace).
func sealImage(costs Costs, l1 L1Geometry, names []string, threads []*colBuilder, fj ForkJoin) *Columnar {
	hdr := appendHeader(columnarMagic, columnarVersion, costs, l1, len(threads), names)

	sizes := make([][numCols]int, len(threads))
	fj.run(len(threads), func(t int) { sizes[t] = threads[t].seal() })

	align := func(n int64) int64 { return (n + columnarAlign - 1) &^ (columnarAlign - 1) }
	c := &Columnar{
		sealed:     true,
		costs:      costs,
		l1:         l1,
		phaseNames: names,
		threads:    make([]colThread, len(threads)),
	}
	pos := int64(len(hdr))
	for t, b := range threads {
		th := &c.threads[t]
		th.ops, th.shift = b.ops, b.shift
		c.totalOps += b.ops
		for col := range th.off {
			pos = align(pos)
			th.off[col] = pos
			pos += int64(sizes[t][col])
			th.end[col] = pos
		}
	}
	c.tableOff = align(pos)

	// Segment i spans [cuts[i], cuts[i+1]): the head, each thread, the tail.
	cuts := append(append([]int64{0}, c.threadStarts()...), c.tableOff, c.tableOff+int64(len(threads))*tableEntrySize+footerSize)
	c.segs = make([][]byte, len(cuts)-1)
	c.segs[0] = make([]byte, cuts[1])
	copy(c.segs[0], hdr)
	tail := make([]byte, cuts[len(cuts)-1]-c.tableOff)
	c.segs[len(c.segs)-1] = tail

	fj.run(len(threads), func(t int) {
		th := &c.threads[t]
		base := cuts[1+t]
		seg := make([]byte, cuts[2+t]-base)
		var dst [numCols][]byte
		le := binary.LittleEndian
		ent := tail[t*tableEntrySize:]
		le.PutUint64(ent[0:], uint64(th.ops))
		le.PutUint64(ent[8:], uint64(th.shift))
		for col := range dst {
			dst[col] = seg[th.off[col]-base : th.end[col]-base : th.end[col]-base]
			le.PutUint64(ent[16+col*16:], uint64(th.off[col]))
			le.PutUint64(ent[24+col*16:], uint64(th.end[col]-th.off[col]))
		}
		threads[t].writeTo(dst)
		c.segs[1+t] = seg
	})
	return c
}

// Seal returns src as sealed canonical columns: src's own when it already
// is a builder-sealed recording, otherwise one builder pass over its
// cursors and the new image's first walk.
func Seal(src Source) (*Columnar, error) {
	// Refuse, before any work, the shapes the reader would refuse: a
	// hand-built trace seals whatever it was given (see Trace.Columns).
	names := src.PhaseTable()
	switch threads := src.Threads(); {
	case threads == 0:
		return nil, fmt.Errorf("trace: refusing to serialize a trace with no threads")
	case threads > maxThreads:
		return nil, fmt.Errorf("trace: refusing to serialize %d threads (max %d)", threads, maxThreads)
	case len(names) > maxPhaseNames:
		return nil, fmt.Errorf("trace: refusing to serialize %d phase names (max %d)", len(names), maxPhaseNames)
	}
	if c := sealedColumns(src); c != nil {
		return c, nil
	}
	threads := make([]*colBuilder, src.Threads())
	for t := range threads {
		b := &colBuilder{shift: provisionalShift(src.Geometry())}
		cur := src.CursorAt(t)
		for cur.Next() {
			b.put(cur.Cur)
		}
		if err := cur.Err(); err != nil {
			return nil, err
		}
		threads[t] = b
	}
	return sealImage(src.CostModel(), src.Geometry(), names, threads, nil).firstWalk(nil), nil
}

// columnsOf returns the columns src is made of: this package's two Sources
// are the columns and the handle over them.
func columnsOf(src Source) *Columnar {
	if tr, ok := src.(*Trace); ok {
		return tr.Columns()
	}
	return src.(*Columnar)
}

// sealedColumns returns the builder-sealed columns src is made of, or nil.
func sealedColumns(src Source) *Columnar {
	if c := columnsOf(src); c.sealed {
		return c
	}
	return nil
}

// EncodeColumnar serializes src into the v3 columnar format: its sealed
// segments put together in one fresh buffer, the caller's to keep.
func EncodeColumnar(src Source) ([]byte, error) {
	c, err := Seal(src)
	if err != nil {
		return nil, err
	}
	segs, err := c.Segments()
	if err != nil {
		return nil, err
	}
	return bytes.Join(segs, nil), nil
}
