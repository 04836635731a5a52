package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/addr"
)

// levelCheck is the non-panicking twin of addr.LevelOf: Columnar.Validate
// runs over untrusted files (daemon uploads), where a stray address is
// hostile input to reject, not a recorder bug to crash on. Every address at
// or above the far window's base routes to a level.
func levelCheck(a uint64) error {
	if addr.Addr(a) < addr.FarBase {
		return fmt.Errorf("address %#x outside both memory windows", a)
	}
	return nil
}

// Serialization v3: a read-only columnar layout designed for mmap. Where
// v2 interleaves every field of every op into one varint stream that must
// be fully decoded before the first replay event, v3 stores each thread's
// ops as five parallel column segments that a Cursor scans sequentially —
// the same per-thread sequential access pattern the replay cores have.
// Open validates structure in O(1) (footer, section table, header) and
// never touches the column bytes until a cursor reads them.
//
// Layout (all integers little-endian):
//
//	header:  magic "NMT3" | 9 x i64 (version=3, 4 costs, l1 cap/line/ways,
//	         threads) | phase names: count i64, per name uvarint len + bytes
//	per thread, five column sections, each zero-padded to a 64-byte
//	boundary, in file order tags, gaps, addrs, dma, phase:
//	  tags:  blocks: control uvarint c; c&1 = 1 is a run — one tag byte
//	         (same bits as v2) repeated (c>>1)+3 times; c&1 = 0 is a
//	         literal — (c>>1)+1 raw tag bytes follow. Real traces
//	         alternate tags every op or two, where plain RLE expands;
//	         literal blocks keep those regions at ~1 byte/op while long
//	         runs still collapse.
//	  gaps:  uvarint dictionary size D, then D gap values as fixed-width
//	         u32 little-endian (frequency-descending, value-ascending on
//	         ties, so hot gaps get 1-byte indices), then one uvarint dict
//	         index per op whose tag sets tagHasGap. Recorded gaps draw
//	         from a few hundred distinct cost sums, so indices beat the
//	         raw values; fixed-width entries keep cursor lookup O(1).
//	  addrs: signed varint delta of (addr >> shift) per OpAccess/OpAtomic;
//	         shift is the thread's shared trailing-zero count, so line-
//	         aligned addresses shed their always-zero low bits
//	  dma:   uvarint src, dst, size per OpDMA
//	  phase: uvarint phase id per OpPhase
//	section table (64-byte aligned): per thread, i64 ops, i64 shift, then
//	  per column i64 offset + i64 length (96 bytes per thread)
//	footer, the final 64 bytes:
//	  0:  section table offset      8: section table length
//	  16: thread count             24: total op count
//	  32: content digest           40: crc64(ECMA) of file[:len-64]
//	  48: crc64(ECMA) of footer[:48]
//	  56: magic "NMT3FOOT"
//
// The content digest is the canonical v2 payload CRC (Trace.Digest), so
// every encoding of the same logical trace shares one digest and the
// daemon's content-addressed store serves v3 uploads transparently. Open
// trusts the stored digest (O(1)); Verify recomputes both checksums.
const (
	columnarMagic       = "NMT3"
	columnarFooterMagic = "NMT3FOOT"
	columnarVersion     = 3
	columnarAlign       = 64
	footerSize          = 64
	tableEntrySize      = (2 + 2*numCols) * 8 // ops, shift, 5 x (off, len)

	// maxOpsPerColByte bounds the op count a thread section may claim
	// relative to its encoded size. Tag runs compress field-free ops
	// (barriers, DMA waits) to a fraction of a byte each, but real traces
	// never sustain runs past a few thousand; the cap keeps a hostile
	// header from claiming 2^60 ops in a 1KB file and turning Validate or
	// Decode into a CPU/allocation amplifier. The additive slack admits
	// tiny legitimate streams (an OpEnd-only thread encodes in 2 bytes).
	maxOpsPerColByte = 64
	opsClaimSlack    = 4096

	// minTagRun is the shortest tag repetition worth a run block: a run
	// block costs 2 bytes, so runs of 1-2 are cheaper inside literals.
	minTagRun = 3
)

// colThread is one parsed section-table entry.
type colThread struct {
	ops   int64
	shift uint
	off   [numCols]int64
	end   [numCols]int64
}

// Columnar is a v3 trace image: the column builder's sealed output on the
// heap, or an opened file's raw bytes (mmap-backed when the platform
// allows). It implements Source without materializing []Op, is immutable
// and safe for concurrent cursors.
//
// Either way the image is a list of segments which, put together in order,
// are the file byte for byte: the head (header and its zero padding), one
// segment per thread (its five columns, each with the zero padding after
// it), and the tail (section table and footer). A sealed image allocates
// each segment on its own, so a recording never holds its raw columns and
// a whole image at once; an opened file's segments are views into its one
// buffer. Cursors, checksums and WriteTo read the segments alike.
type Columnar struct {
	segs    [][]byte
	mapping []byte // the mmap behind an opened file's segments; nil on the heap

	// sealed marks an image this process's column builder produced: it is
	// canonical. Its footprint and its footer — digest included — come from
	// its first walk, which sealing runs before handing the image out (see
	// finish); an opened file's footprint comes from its validation walk and
	// its footer from the file.
	sealed    bool
	seen      footprint
	digestErr error

	costs      Costs
	l1         L1Geometry
	phaseNames []string
	threads    []colThread
	totalOps   int64
	digest     uint64
	payloadCRC uint64
	tableOff   int64

	// validateOnce memoizes the first walk's findings (see settle): Validate's
	// verdict — the walk is O(ops) and the daemon validates once per upload,
	// then replays many times — and the footprint.
	validateOnce sync.Once
	validateErr  error
}

// mappedBytes is the process's live mmap total: Open adds, Close (or the
// finalizer standing in for it) subtracts.
var mappedBytes atomic.Int64

// MappedBytes returns the bytes of trace files this process currently has
// mapped: the gauge /v1/stats reports, and the leak check for code that
// opens traces and drops them.
func MappedBytes() int64 { return mappedBytes.Load() }

// IsColumnar reports whether data begins with the v3 magic — the sniff the
// upload handler and Load use to pick a decoder.
func IsColumnar(data []byte) bool {
	return len(data) >= len(columnarMagic) && string(data[:len(columnarMagic)]) == columnarMagic
}

// Open maps the v3 file at path (falling back to a plain read where mmap is
// unavailable) and validates its structure — footer, section table, header —
// in O(1) without decoding any ops. The returned Columnar is ready to hand
// out cursors immediately; a finalizer releases the mapping if the caller
// never calls Close.
func Open(path string) (*Columnar, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	c, err := openBytes(data, mapped)
	if err != nil {
		if mapped {
			unmapFile(data)
		}
		return nil, err
	}
	return c, nil
}

// OpenBytes opens a v3 trace held in memory (an uploaded request body, a
// test fixture). The Columnar aliases data; the caller must not mutate it.
func OpenBytes(data []byte) (*Columnar, error) { return openBytes(data, false) }

func openBytes(data []byte, mapped bool) (*Columnar, error) {
	le := binary.LittleEndian
	if len(data) < footerSize {
		return nil, decodeErrf("footer", len(data), "file too small for a v3 footer (%d bytes)", len(data))
	}
	fOff := len(data) - footerSize
	ftr := data[fOff:]
	if string(ftr[56:64]) != columnarFooterMagic {
		return nil, decodeErrf("footer", fOff+56, "bad footer magic %q", ftr[56:64])
	}
	if got, want := crc64.Checksum(ftr[:48], crcTable), le.Uint64(ftr[48:56]); got != want {
		return nil, decodeErrf("footer", fOff+48, "footer checksum mismatch (%#x != %#x)", got, want)
	}
	tableOff := int64(le.Uint64(ftr[0:8]))
	tableLen := int64(le.Uint64(ftr[8:16]))
	threads := int64(le.Uint64(ftr[16:24]))
	totalOps := int64(le.Uint64(ftr[24:32]))
	if threads <= 0 || threads > maxThreads {
		return nil, decodeErrf("footer", fOff+16, "implausible thread count %d", threads)
	}
	if tableLen != threads*tableEntrySize {
		return nil, decodeErrf("footer", fOff+8, "section table length %d != %d threads x %d", tableLen, threads, tableEntrySize)
	}
	if tableOff < 0 || tableOff+tableLen != int64(fOff) {
		return nil, decodeErrf("footer", fOff, "section table [%d,%d) does not abut the footer at %d", tableOff, tableOff+tableLen, fOff)
	}
	if totalOps < 0 {
		return nil, decodeErrf("footer", fOff+24, "negative total op count")
	}

	// Header: same field set as v2 behind the v3 magic.
	h := headerReader{br: bytes.NewReader(data[:tableOff]), end: int(tableOff)}
	hdr, err := h.fields(columnarMagic)
	if err != nil {
		return nil, err
	}
	if hdr[0] != columnarVersion {
		return nil, decodeErrf("header", 4, "unsupported version %d", hdr[0])
	}
	if hdr[8] != threads {
		return nil, decodeErrf("header", h.off()-8, "header thread count %d != footer %d", hdr[8], threads)
	}
	c := &Columnar{
		totalOps:   totalOps,
		digest:     le.Uint64(ftr[32:40]),
		payloadCRC: le.Uint64(ftr[40:48]),
		tableOff:   tableOff,
	}
	// The footer's digest is trusted, so a header this build cannot hold
	// as written is refused rather than opened narrowed under it.
	var exact bool
	if c.costs, c.l1, exact = headerModel(hdr); !exact {
		return nil, decodeErrf("header", 60, "L1 ways %d does not fit an int", hdr[7])
	}
	if c.phaseNames, _, err = h.names("header"); err != nil {
		return nil, err
	}
	headerEnd := int64(h.off())

	// Section table: every column 64-byte aligned, in file order, disjoint,
	// inside (headerEnd, tableOff], with a plausible claimed op count.
	c.threads = make([]colThread, threads)
	table := data[tableOff : tableOff+tableLen]
	prevEnd := headerEnd
	sumOps := int64(0)
	for t := int64(0); t < threads; t++ {
		ent := table[t*tableEntrySize:]
		entOff := int(tableOff + t*tableEntrySize)
		ops := int64(le.Uint64(ent[0:8]))
		shift := le.Uint64(ent[8:16])
		if ops < 0 {
			return nil, decodeErrf("section table", entOff, "thread %d: negative op count", t)
		}
		if shift > 63 {
			return nil, decodeErrf("section table", entOff+8, "thread %d: address shift %d out of range", t, shift)
		}
		th := &c.threads[t]
		th.ops = ops
		th.shift = uint(shift)
		colBytes := int64(0)
		for col := 0; col < numCols; col++ {
			fieldOff := entOff + 16 + col*16
			secOff := int64(le.Uint64(ent[16+col*16:]))
			secLen := int64(le.Uint64(ent[24+col*16:]))
			sec := fmt.Sprintf("thread %d %s column", t, colNames[col])
			if secOff < 0 || secLen < 0 || secOff > int64(fOff) || secLen > tableOff-secOff {
				return nil, decodeErrf(sec, fieldOff, "section [%d,%d) out of bounds", secOff, secOff+secLen)
			}
			if secOff%columnarAlign != 0 {
				return nil, decodeErrf(sec, fieldOff, "misaligned section offset %d", secOff)
			}
			if secOff < prevEnd {
				return nil, decodeErrf(sec, fieldOff, "section at %d overlaps previous section ending at %d", secOff, prevEnd)
			}
			th.off[col] = secOff
			th.end[col] = secOff + secLen
			prevEnd = th.end[col]
			colBytes += secLen
		}
		if ops > maxOpsPerColByte*colBytes+opsClaimSlack {
			return nil, decodeErrf("section table", entOff, "thread %d: implausible op count %d for %d column bytes", t, ops, colBytes)
		}
		sumOps += ops
	}
	if sumOps != totalOps {
		return nil, decodeErrf("footer", fOff+24, "total op count %d != section table sum %d", totalOps, sumOps)
	}
	// The segments: each thread's starts at its first column, which the
	// table puts past the header and the previous thread's columns.
	cut := int64(0)
	c.segs = make([][]byte, 0, len(c.threads)+2)
	for _, next := range append(c.threadStarts(), tableOff, int64(len(data))) {
		c.segs = append(c.segs, data[cut:next:next])
		cut = next
	}
	if mapped {
		c.mapping = data
		mappedBytes.Add(int64(len(data)))
		runtime.SetFinalizer(c, (*Columnar).Close)
	}
	return c, nil
}

// Close releases the mapping, if any. After Close every cursor over the
// Columnar is invalid; only call it once no replays reference the trace
// (the serving layer guarantees this by holding pins, and otherwise leaves
// cleanup to the finalizer installed by Open).
func (c *Columnar) Close() error {
	if c.mapping == nil {
		return nil
	}
	runtime.SetFinalizer(c, nil)
	data := c.mapping
	c.mapping, c.segs = nil, nil
	mappedBytes.Add(-int64(len(data)))
	return unmapFile(data)
}

// threadStarts returns the file offset of each thread's segment: its first
// column's.
func (c *Columnar) threadStarts() []int64 {
	starts := make([]int64, len(c.threads))
	for t := range c.threads {
		starts[t] = c.threads[t].off[0]
	}
	return starts
}

// Size returns the file size in bytes.
func (c *Columnar) Size() int64 {
	n := int64(0)
	for _, s := range c.segs {
		n += int64(len(s))
	}
	return n
}

// footer returns the image's final footerSize bytes, the tail's end.
func (c *Columnar) footer() []byte {
	tail := c.segs[len(c.segs)-1]
	return tail[len(tail)-footerSize:]
}

// payload returns the segments the payload CRC covers: all but the footer.
func (c *Columnar) payload() [][]byte {
	segs := slices.Clone(c.segs)
	tail := segs[len(segs)-1]
	segs[len(segs)-1] = tail[:len(tail)-footerSize]
	return segs
}

// Threads returns the number of per-thread op streams.
func (c *Columnar) Threads() int { return len(c.threads) }

// ThreadOps returns thread tid's claimed op count (verified by Validate).
func (c *Columnar) ThreadOps(tid int) int { return int(c.threads[tid].ops) }

// Ops returns the total claimed op count (verified by Validate).
func (c *Columnar) Ops() int { return int(c.totalOps) }

// PhaseTable returns the phase-name table.
func (c *Columnar) PhaseTable() []string { return c.phaseNames }

// Geometry returns the record-time L1 geometry.
func (c *Columnar) Geometry() L1Geometry { return c.l1 }

// CostModel returns the record-time cycle charges.
func (c *Columnar) CostModel() Costs { return c.costs }

// Digest returns the content digest — the canonical digest every encoding
// of this trace shares — in O(1): the footer's stored value, trusted for an
// opened file (Verify recomputes it from the decoded ops), written from its
// first walk's lanes for a sealed image. A sealed image whose ops did not
// all decode has no footer, and returns that walk's decode error.
func (c *Columnar) Digest() (uint64, error) { return c.digest, c.digestErr }

// firstWalk walks a freshly sealed image under fj, digest lanes aboard, and
// finishes it with what the walk found.
func (c *Columnar) firstWalk(fj ForkJoin) *Columnar {
	return c.finish(c.walk(fj, make([]lane, len(c.threads))), fj)
}

// finish completes a freshly sealed image before it is handed out, from its
// first walk or from the checks a canonical v2 read made as it put the ops
// (see decodeTrace): it settles the verdict and footprint, and writes the
// footer, its payload CRC summed under fj. An image whose ops did not all
// decode keeps the decode error for Digest instead of a footer.
func (c *Columnar) finish(r walkResult, fj ForkJoin) *Columnar {
	c.validateOnce.Do(func() { c.settle(r) })
	if c.digestErr = r.decode; r.decode != nil {
		return c
	}
	le := binary.LittleEndian
	ftr := c.footer()
	c.digest, c.payloadCRC = r.digest, checksum(fj, c.payload()...)
	le.PutUint64(ftr[0:], uint64(c.tableOff))
	le.PutUint64(ftr[8:], uint64(len(c.threads)*tableEntrySize))
	le.PutUint64(ftr[16:], uint64(len(c.threads)))
	le.PutUint64(ftr[24:], uint64(c.totalOps))
	le.PutUint64(ftr[32:], c.digest)
	le.PutUint64(ftr[40:], c.payloadCRC)
	le.PutUint64(ftr[48:], crc64.Checksum(ftr[:48], crcTable))
	copy(ftr[56:], columnarFooterMagic)
	return c
}

// Count returns the line transfers per memory level, as the validation walk
// — a sealed image's first — found them (zero if that walk rejects it).
func (c *Columnar) Count() LevelCounts {
	c.Validate()
	return c.seen.counts
}

// Tally returns the barrier, DMA-copy and DMA-wait ops and the compute
// cycles Count's walk sums beside the line transfers (zero if it rejects).
func (c *Columnar) Tally() (barriers, dmas, waits, cycles uint64) {
	c.Validate()
	s := c.seen
	return s.barriers, s.dmas, s.waits, s.cycles
}

// NearBlind reports whether no op reaches the near memory, as Count's walk
// found (false if that walk rejects it).
func (c *Columnar) NearBlind() bool {
	return c.Validate() == nil && !c.seen.near
}

// AsTrace wraps the columns as a *Trace that replays them in place. It
// decodes nothing; validate an untrusted file before handing the trace on.
func (c *Columnar) AsTrace() *Trace {
	return &Trace{L1: c.l1, Costs: c.costs, PhaseNames: c.phaseNames, cols: c}
}

// Shift returns thread tid's address shift (for nmtrace stat).
func (c *Columnar) Shift(tid int) uint { return c.threads[tid].shift }

// Section describes one column segment (for nmtrace stat).
type Section struct {
	Thread int
	Column string
	Offset int64
	Bytes  int64
}

// Sections lists every column segment in file order.
func (c *Columnar) Sections() []Section {
	secs := make([]Section, 0, len(c.threads)*numCols)
	for t := range c.threads {
		for col := 0; col < numCols; col++ {
			secs = append(secs, Section{
				Thread: t,
				Column: colNames[col],
				Offset: c.threads[t].off[col],
				Bytes:  c.threads[t].end[col] - c.threads[t].off[col],
			})
		}
	}
	return secs
}

// CursorAt returns a fresh cursor over thread tid's columns. The
// gap column's dictionary header is parsed here, once per cursor; a
// malformed header latches the cursor failed so the first Next reports it
// through Err.
func (c *Columnar) CursorAt(tid int) Cursor {
	th := &c.threads[tid]
	cur := Cursor{
		owner:  c,
		tid:    tid,
		n:      th.ops,
		shift:  th.shift,
		tags:   c.column(tid, colTags),
		addrs:  c.column(tid, colAddrs),
		dmas:   c.column(tid, colDMAs),
		phases: c.column(tid, colPhases),
		ends:   th.end,
	}
	g := c.column(tid, colGaps)
	if th.ops == 0 && len(g) == 0 {
		return cur // an all-empty thread carries no dict header
	}
	dictLen, m := binary.Uvarint(g)
	if m <= 0 || dictLen > uint64(len(g)-m)/4 {
		cur.failed = true
		cur.col = colGaps
		return cur
	}
	cur.dict = g[m : m+4*int(dictLen)]
	cur.gaps = g[m+4*int(dictLen):]
	return cur
}

// column returns column col of thread tid, from the thread's segment.
func (c *Columnar) column(tid, col int) []byte {
	th := &c.threads[tid]
	base := th.off[0]
	return c.segs[1+tid][th.off[col]-base : th.end[col]-base]
}

// Validate streams every thread's columns once, checking that the streams
// are well formed — OpEnd termination, barrier agreement, address routing,
// phase-id bounds — and the columnar framing:
// the claimed op count decodes exactly and consumes every column byte. It
// allocates no op slices, so a hostile header cannot turn validation into
// an allocation amplifier. The result is memoized.
func (c *Columnar) Validate() error { return c.ValidatePar(nil) }

// ValidatePar is Validate with the per-thread walks run under fj. The
// verdict is the one the sequential walk reaches: errors are reported in
// thread order. Only an opened file is ever walked here, and without lanes:
// its footer names its digest, and a warm trace cache pays for validation
// only. A sealed image's verdict was settled by its first walk.
func (c *Columnar) ValidatePar(fj ForkJoin) error {
	c.validateOnce.Do(func() { c.settle(c.walk(fj, nil)) })
	return c.validateErr
}

// walkResult is what one pass over every thread finds.
type walkResult struct {
	seen    footprint
	verdict error  // Validate's: the first structural or decode failure, in thread order
	decode  error  // the first decode failure alone: all that stops Verify, Digest and WriteV2Par
	digest  uint64 // folded from the lanes, when the walk carried them and every op decoded
}

// settle memoizes a walk's verdict and, for a trace that passes it, its
// footprint. Callers hold validateOnce.
func (c *Columnar) settle(r walkResult) {
	if c.validateErr = r.verdict; r.verdict == nil {
		c.seen = r.seen
	}
}

// walkHook, when a test sets it, hears of every walk and whether it carried
// lanes.
var walkHook func(lanes bool)

// walk is the one O(ops) pass a trace needs at a boundary, each thread's
// share run under fj. It always checks what Validate checks and notes the
// footprint, so a loaded file is never walked a second time for Count or
// NearBlind. Given lanes (one per thread) it also encodes every op into its
// thread's: the digest, Verify and WriteV2Par ride the validation walk instead
// of repeating it. The two verdicts stay apart — a structurally odd trace
// still has a digest and a v2 form — so with lanes a thread is walked to its
// end whatever Validate thinks of it, and only a decode failure stops it.
func (c *Columnar) walk(fj ForkJoin, lanes []lane) (r walkResult) {
	if walkHook != nil {
		walkHook(lanes != nil)
	}
	checks := make([]threadCheck, len(c.threads))
	fj.run(len(c.threads), func(t int) {
		var l *lane
		if lanes != nil {
			l = &lanes[t]
		}
		c.walkThread(t, &checks[t], l)
	})
	r.seen, r.verdict = foldChecks(checks)
	for t := range checks {
		if r.decode = checks[t].decode; r.decode != nil {
			return r
		}
	}
	if lanes != nil {
		var hdr []byte
		if hdr, r.decode = headerV2(c); r.decode == nil {
			r.digest = foldLanes(hdr, lanes)
		}
	}
	return r
}

// walkThread is thread t's share of walk.
func (c *Columnar) walkThread(t int, k *threadCheck, l *lane) {
	k.tid, k.phases = t, len(c.phaseNames)
	cur := c.CursorAt(t)
	if l != nil {
		l.begin(int(c.threads[t].ops))
	}
	// The loop keeps what nearly every op of a real trace needs — an access
	// that routes, in a stream still running — in registers; k takes the rest.
	n, running := int64(0), true
	for ; cur.Next(); n++ {
		op := cur.Cur
		k.seen.cycles += uint64(op.Gap)
		if routedAccess(op) && running {
			k.seen.access(op)
		} else {
			k.op(n, op)
			if k.err != nil && l == nil {
				return
			}
			running = !k.endSeen
		}
		if l != nil {
			l.put(op)
		}
	}
	if l != nil {
		l.end()
	}
	k.decode = cur.Err()
	switch {
	case k.err != nil:
	case k.decode != nil:
		k.err = k.decode
	case n != c.threads[t].ops:
		k.err = decodeErrf("section table", int(c.tableOff)+t*tableEntrySize,
			"thread %d decoded %d ops, table claims %d", t, n, c.threads[t].ops)
	default:
		k.finish()
	}
	if col := cur.remaining(); k.err == nil && col >= 0 {
		k.err = decodeErrf(cur.colSection(col), int(cur.colOffset(col)),
			"%d trailing bytes past the claimed %d ops",
			cur.ends[col]-cur.colOffset(col), c.threads[t].ops)
	}
}

// threadCheck is what Validate asks of one thread, as state: its ops are
// noted in stream order by whichever walk is passing — a columnar cursor's,
// or the v2 reader's — and the first failure sticks.
type threadCheck struct {
	tid, phases int // the thread, and how many phase names a marker may index
	endSeen     bool
	seen        footprint
	err         error // the first failure; no op after it is checked
	decode      error // the cursor's own failure, when that ended the walk
}

// routedAccess reports whether op is an access to a mapped address: in a
// stream that has not ended, an op with nothing for threadCheck.op to check
// and no state to change but the footprint. The walks test it inline.
func routedAccess(op Op) bool {
	return op.Kind == OpAccess && addr.Addr(op.Addr) >= addr.FarBase
}

// op notes op, the thread's i-th.
func (k *threadCheck) op(i int64, op Op) {
	switch {
	case k.err != nil:
		return
	case k.endSeen:
		k.err = fmt.Errorf("trace: thread %d has interior OpEnd at %d", k.tid, i-1)
		return
	}
	var err error
	switch op.Kind {
	case OpEnd:
		k.endSeen = true
	case OpBarrier:
		k.seen.barriers++
	case OpDMAWait:
		k.seen.waits++
	case OpAccess, OpAtomic:
		if err = levelCheck(op.Addr); err == nil {
			k.seen.access(op)
		}
	case OpDMA:
		if err = levelCheck(op.Addr); err == nil {
			err = levelCheck(op.Addr2)
		}
		if err == nil {
			k.seen.dma(op)
		}
	case OpPhase:
		if op.Addr >= uint64(k.phases) {
			k.err = fmt.Errorf("trace: thread %d op %d names phase %d of %d", k.tid, i, op.Addr, k.phases)
		}
	}
	if err != nil {
		k.err = fmt.Errorf("trace: thread %d op %d: %w", k.tid, i, err)
	}
}

// finish closes the stream: it must have ended on its OpEnd.
func (k *threadCheck) finish() {
	if k.err == nil && !k.endSeen {
		k.err = fmt.Errorf("trace: thread %d stream not terminated", k.tid)
	}
}

// foldChecks merges the per-thread findings into Validate's verdict — the
// first failure in thread order, barrier disagreement included — and, for a
// trace that passes, its footprint.
func foldChecks(checks []threadCheck) (footprint, error) {
	var total footprint
	for t := range checks {
		k := &checks[t]
		if k.err != nil {
			return footprint{}, k.err
		}
		if k.seen.barriers != checks[0].seen.barriers {
			return footprint{}, fmt.Errorf("trace: thread %d reached %d barriers, thread 0 reached %d",
				t, k.seen.barriers, checks[0].seen.barriers)
		}
		total.add(k.seen)
	}
	return total, nil
}

// Verify recomputes both footer checksums: the whole-payload CRC (torn or
// corrupted file) and the content digest (the canonical digest of the
// decoded ops, guarding the daemon's content-addressed store against a v3
// file whose footer claims another trace's digest). O(file + ops) — Open
// deliberately skips it; callers that ingest untrusted files (uploads,
// nmtrace convert) run it explicitly. Its verdict is about checksums only,
// but the digest rides a walk that validates too, so a Validate after Verify
// finds its answer memoized.
func (c *Columnar) Verify() error {
	if err := c.CheckPayload(nil); err != nil {
		return err
	}
	r := c.walk(nil, make([]lane, len(c.threads)))
	c.validateOnce.Do(func() { c.settle(r) })
	if r.decode != nil {
		return r.decode
	}
	if r.digest != c.digest {
		return decodeErrf("footer", int(c.Size())-footerSize+32,
			"content digest %#x does not match decoded ops (%#x)", c.digest, r.digest)
	}
	return nil
}

// CheckPayload recomputes the whole-payload CRC the footer claims, in blocks
// across the segments under fj: Verify's torn-or-corrupted check without its walk, for
// a caller that trusts the digest but not the medium (the -trace-cache
// lookup). O(file); Open skips it.
func (c *Columnar) CheckPayload(fj ForkJoin) error {
	if c.digestErr != nil { // no footer to check against
		return c.digestErr
	}
	if got := checksum(fj, c.payload()...); got != c.payloadCRC {
		return decodeErrf("checksum", int(c.Size())-footerSize, "mismatch (%#x != %#x): torn or corrupted stream", got, c.payloadCRC)
	}
	return nil
}

// Decode materializes the decoded representation, for tests and
// conversion; replay never needs it. An opened file is validated first, so
// the per-thread allocations are exactly sized by verified counts — a
// hostile header cannot inflate them; a sealed image's counts are its own
// builder's, and it decodes whatever Validate thinks of it.
func (c *Columnar) Decode() (*Trace, error) {
	if !c.sealed {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	tr := &Trace{
		Streams:    make([][]Op, len(c.threads)),
		L1:         c.l1,
		Costs:      c.costs,
		PhaseNames: c.phaseNames,
	}
	for t := range c.threads {
		ops := make([]Op, 0, c.threads[t].ops)
		cur := c.CursorAt(t)
		for cur.Next() {
			ops = append(ops, cur.Cur)
		}
		if err := cur.Err(); err != nil {
			return nil, err
		}
		tr.Streams[t] = ops
	}
	return tr, nil
}

// Segments returns the v3 image as its segments, in place, not copied: put
// together in order they are what WriteTo writes. The caller must not mutate
// them, and must keep c reachable while it reads them — a mapped image is
// unmapped once c is collected.
func (c *Columnar) Segments() ([][]byte, error) {
	if c.digestErr != nil { // no footer to end the image
		return nil, c.digestErr
	}
	return c.segs, nil
}

// WriteTo writes the v3 image, segment by segment — what the daemon's fetch
// handler streams back for every stored trace.
func (c *Columnar) WriteTo(w io.Writer) (n int64, err error) {
	segs, err := c.Segments()
	for _, s := range segs {
		m, err := w.Write(s)
		if n += int64(m); err != nil {
			return n, err
		}
	}
	return n, err
}

// Load opens the trace file at path in whichever serialization it carries:
// v3 files (magic "NMT3") are mmapped via Open, v2 files are read whole
// and sealed into columns as ReadTrace does, with the per-thread work of the
// read run under fj.
func Load(path string, fj ForkJoin) (Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var magic [4]byte
	_, err = io.ReadFull(f, magic[:])
	f.Close()
	if err != nil {
		return nil, decodeErr("header", 0, fmt.Errorf("reading magic: %w", err))
	}
	if IsColumnar(magic[:]) {
		return Open(path)
	}
	raw, err := os.ReadFile(path) // sized by stat: no growth copies of a large stream
	if err != nil {
		return nil, decodeErr("stream", len(raw), fmt.Errorf("reading: %w", err))
	}
	return decodeTrace(raw, fj)
}
