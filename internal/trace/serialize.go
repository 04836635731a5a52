package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math/bits"

	"repro/internal/units"
)

// Trace serialization: a compact little-endian binary format so traces can
// be recorded once (expensive: native execution under instrumentation) and
// replayed many times or inspected offline — the workflow of cmd/nmtrace.
//
// Layout:
//
//	magic "NMTR" | version u32
//	costs: 4 x i64 | l1: cap i64, line i64, ways i64
//	threads u32
//	phase names: count i64, then per name len uvarint + bytes
//	per thread: ops u32, then packed ops
//	crc64(ECMA) of everything before it
//
// Ops are delta-packed per kind: a leading tag byte (kind | flags) followed
// by only the fields that kind uses.
//
// Version history: v1 had no phase-name table and no OpPhase ops; v2 added
// both. Nothing has written v1 since, and the reader refuses it like any
// other unknown version.

const (
	traceMagic   = "NMTR"
	traceVersion = 2

	// maxPhaseNames bounds the phase table a hostile stream can request;
	// real traces mark a handful of phases.
	maxPhaseNames = 1 << 12

	// maxThreads bounds the thread count on both sides of the format: the
	// reader rejects hostile headers above it, and the writer refuses to
	// produce a stream the reader would reject.
	maxThreads = 1 << 20
)

const (
	tagKindMask = 0x0f
	tagWrite    = 0x10 // OpAccess direction
	tagHasGap   = 0x20 // a uvarint gap follows

	// tagReserved covers the two remaining flag bits. Bit 0x40 was once
	// described as a small-address marker that was "always set", but no
	// writer ever emitted it; both bits are now explicitly reserved and
	// must be zero. The reader rejects streams that set them, so a future
	// format revision can assign them without old readers silently
	// misdecoding the new streams.
	tagReserved = 0xc0
)

// WriteTo serializes the trace. It returns the bytes written. A trace
// with zero threads (or an implausibly large thread count) is rejected
// here, with nothing written: ReadTrace refuses such headers, so
// serializing one would only manufacture an unreadable file whose failure
// surfaces at the far end of the pipeline instead of at the writer.
func (tr *Trace) WriteTo(w io.Writer) (int64, error) {
	return WriteV2(w, tr)
}

// WriteV2 serializes any Source in the canonical v2 format — the encoding
// Digest is defined over — without materializing a *Trace first.
func WriteV2(w io.Writer, src Source) (int64, error) { return WriteV2Par(w, src, nil) }

// WriteV2Par is WriteV2 with the per-thread walks run under fj: every thread
// encodes its ops into its own lane, and the lanes are written in thread
// order once all are full, so the bytes do not depend on fj — and the whole
// stream is in memory until they are. The trailing checksum is taken over the
// bytes written. The walk is the validation walk too (see Columnar.walk): it
// leaves Validate's verdict memoized, and reports only what stops
// serialization.
func WriteV2Par(w io.Writer, src Source, fj ForkJoin) (int64, error) {
	c := columnsOf(src)
	hdr, err := headerV2(c) // refused before any walk
	if err != nil {
		return 0, err
	}
	lanes := make([]lane, len(c.threads))
	for t := range lanes {
		lanes[t].keep = true
	}
	r := c.walk(fj, lanes)
	c.validateOnce.Do(func() { c.settle(r) })
	if r.decode != nil {
		return 0, r.decode
	}
	var n int64
	write := func(p []byte) error {
		m, err := w.Write(p)
		n += int64(m)
		return err
	}
	if err := write(hdr); err != nil {
		return n, err
	}
	for t := range lanes {
		if err := write(lanes[t].buf); err != nil {
			return n, err
		}
	}
	// Trailing checksum (not itself checksummed).
	return n, write(binary.LittleEndian.AppendUint64(nil, r.digest))
}

// headerV2 returns everything a v2 stream holds before its first thread.
func headerV2(src Source) ([]byte, error) {
	threads := src.Threads()
	if threads == 0 {
		return nil, fmt.Errorf("trace: refusing to serialize a trace with no threads")
	}
	if threads > maxThreads {
		return nil, fmt.Errorf("trace: refusing to serialize %d threads (max %d)", threads, maxThreads)
	}
	return appendHeader(traceMagic, traceVersion, src.CostModel(), src.Geometry(), threads, src.PhaseTable()), nil
}

// appendHeader lays out the header v2 and v3 share behind their own magic
// and version: the cost model, the L1 geometry, the thread count, and the
// phase-name table.
func appendHeader(magic string, version int64, costs Costs, l1 L1Geometry, threads int, names []string) []byte {
	hdr := []byte(magic)
	for _, v := range []int64{
		version,
		costs.IssueCycles, costs.L1HitCycles, costs.CompareCycles, costs.AtomicCycles,
		int64(l1.Capacity), int64(l1.LineSize), int64(l1.Ways),
		int64(threads), int64(len(names)),
	} {
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(v))
	}
	for _, name := range names {
		hdr = append(binary.AppendUvarint(hdr, uint64(len(name))), name...)
	}
	return hdr
}

// appendOp appends op in the v2 op encoding — the one definition of it: a
// tag byte (kind | flags), then only the fields that kind uses. prev carries
// the thread's last access address, which the next one is a delta from.
func appendOp(dst []byte, op Op, prev *uint64) []byte {
	tag := byte(op.Kind) & tagKindMask
	if op.Write {
		tag |= tagWrite
	}
	if op.Gap != 0 {
		tag |= tagHasGap
	}
	dst = append(dst, tag)
	if op.Gap != 0 {
		dst = binary.AppendUvarint(dst, uint64(op.Gap))
	}
	switch op.Kind {
	case OpAccess, OpAtomic:
		dst = binary.AppendVarint(dst, int64(op.Addr-*prev))
		*prev = op.Addr
	case OpDMA:
		dst = binary.AppendUvarint(dst, op.Addr)
		dst = binary.AppendUvarint(dst, op.Addr2)
		dst = binary.AppendUvarint(dst, uint64(op.Size))
	case OpPhase:
		dst = binary.AppendUvarint(dst, op.Addr)
	}
	return dst
}

const (
	// laneBlock is how many bytes a digest lane gathers before it sums them:
	// hash/crc64 runs slicing-by-8 only on updates of 64 bytes or more, and a
	// v2 op is a handful.
	laneBlock = 4 << 10
	// maxOpBytes bounds one encoded op: tag, gap, three 10-byte varints.
	maxOpBytes = 1 + binary.MaxVarintLen32 + 3*binary.MaxVarintLen64
)

// lane is one thread's share of a v2 stream — its op count, then its ops —
// summarised as it is encoded: the CRC-64 and length of the bytes, and under
// keep the bytes themselves. Threads fill their lanes independently;
// foldLanes merges the summaries into the checksum of the whole stream, so
// neither the digest nor WriteV2 has a sequential O(ops) step.
type lane struct {
	buf  []byte // bytes not yet summed; under keep, every byte
	keep bool
	crc  uint64 // of the n bytes summed so far
	n    int64
	prev uint64 // appendOp's address state
}

// begin opens the lane with the thread's op count.
func (l *lane) begin(ops int) {
	l.buf = binary.LittleEndian.AppendUint64(make([]byte, 0, laneBlock+maxOpBytes), uint64(ops))
}

func (l *lane) put(op Op) {
	l.buf = appendOp(l.buf, op, &l.prev)
	if len(l.buf) >= laneBlock && !l.keep {
		l.end()
		l.buf = l.buf[:0]
	}
}

// end sums what the lane has not summed yet.
func (l *lane) end() {
	l.crc = crc64.Update(l.crc, crcTable, l.buf)
	l.n += int64(len(l.buf))
}

// foldLanes returns the CRC-64 of hdr followed by every lane's bytes in
// thread order.
func foldLanes(hdr []byte, lanes []lane) uint64 {
	sum := crc64.Checksum(hdr, crcTable)
	for t := range lanes {
		sum = crc64Combine(sum, lanes[t].crc, lanes[t].n)
	}
	return sum
}

// crc64Combine returns the CRC-64 of A‖B given crc(A), crc(B) and len(B) —
// zlib's crc32_combine for this polynomial. The register is linear in its
// start state, and len(B) bytes multiply what they find there by x^(8·len(B))
// mod P, so crc(A‖B) = crc(A)·x^(8·len(B)) + crc(B). hash/crc64 inverts the
// register on the way in and on the way out, by the same constant: B summed
// after A starts from ^crc(A) where B summed alone started from ^0, the two
// differ by crc(A) exactly, and the identity holds unchanged for the values
// crc64.Update returns.
func crc64Combine(crcA, crcB uint64, lenB int64) uint64 {
	// Reflected representation: bit 63 is x^0, so 1<<63 is 1 and 1<<55 is x^8.
	pow, sq := uint64(1)<<63, uint64(1)<<55
	for n := lenB; n > 0; n >>= 1 {
		if n&1 != 0 {
			pow = polyMul(pow, sq)
		}
		sq = polyMul(sq, sq)
	}
	return polyMul(crcA, pow) ^ crcB
}

// polyMul multiplies a and b as polynomials over GF(2) modulo the ECMA
// polynomial, reflected.
func polyMul(a, b uint64) uint64 {
	var p uint64
	for m := uint64(1) << 63; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		b = b>>1 ^ crc64.ECMA&-(b&1) // b·x
	}
	return p
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// crcBlock is how many bytes checksum hands one fork-join body.
const crcBlock = 1 << 20

// checksum is crc64.Checksum of segs put together in order. The whole is cut
// into crcBlock-byte blocks, wherever the segment joins fall: each block is
// summed under fj, piece by piece across the joins it spans, and the block
// sums are folded in order by crc64Combine. An image of many small segments
// costs the fork-join and the fold what one buffer of its size would.
func checksum(fj ForkJoin, segs ...[]byte) uint64 {
	var blocks [][][]byte // each block's pieces, in order
	var block [][]byte
	n := 0 // bytes in block
	for _, s := range segs {
		for len(s) > 0 {
			m := min(len(s), crcBlock-n)
			block, s, n = append(block, s[:m]), s[m:], n+m
			if n == crcBlock {
				blocks, block, n = append(blocks, block), nil, 0
			}
		}
	}
	if n > 0 {
		blocks = append(blocks, block)
	}
	sums, lens := make([]uint64, len(blocks)), make([]int64, len(blocks))
	fj.run(len(blocks), func(i int) {
		for _, piece := range blocks[i] {
			sums[i] = crc64.Update(sums[i], crcTable, piece)
			lens[i] += int64(len(piece))
		}
	})
	var sum uint64
	for i, s := range sums {
		sum = crc64Combine(sum, s, lens[i])
	}
	return sum
}

// Digest returns a stable 64-bit fingerprint of the trace: the CRC64-ECMA
// of its serialized payload — the same value WriteTo appends as the
// stream's trailing checksum, so the digest of an in-memory trace matches
// the checksum of its file on disk. Equal digests mean byte-identical
// streams, and therefore byte-identical replays on equal machine
// configurations — the property the harness's sweep checkpoint manifest
// keys cells by. (Hashing the whole stream would be wrong, not just
// redundant: the CRC of payload‖crc(payload) is a message-independent
// constant residue.)
//
// The digest is memoized with the columns (see Columnar.Digest): a file's
// footer names it, a sealed image's first walk wrote it there. Traces are
// immutable once finished, so the memo never needs invalidating — but a
// caller that mutates a hand-built Trace after first use gets the stale
// fingerprint, which is why nothing in this module mutates a finished trace.
func (tr *Trace) Digest() (uint64, error) { return tr.Columns().Digest() }

// DecodeError is the diagnosable failure every ReadTrace error path
// produces: which section of the stream broke (header, phase table,
// thread N ops, checksum, stream framing) and the byte offset at which
// decoding stopped — enough to tell a torn partial write (early offset,
// stream/checksum section) from in-body corruption without a hex dump.
type DecodeError struct {
	Section string // "stream", "header", "phase table", "thread N ops", "checksum"
	Offset  int64  // byte offset into the stream where decoding stopped
	Err     error  // underlying cause
}

// Error implements error.
func (e *DecodeError) Error() string {
	return fmt.Sprintf("trace: %s at byte %d: %v", e.Section, e.Offset, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *DecodeError) Unwrap() error { return e.Err }

// decodeErr wraps a cause into a DecodeError.
func decodeErr(section string, off int, err error) error {
	return &DecodeError{Section: section, Offset: int64(off), Err: err}
}

// decodeErrf is decodeErr over a freshly formatted cause.
func decodeErrf(section string, off int, format string, args ...any) error {
	return decodeErr(section, off, fmt.Errorf(format, args...))
}

// ReadTrace deserializes a trace written by WriteTo, verifying its
// checksum. The entire stream is buffered in memory first (traces are tens
// of MB at most), which keeps the checksum handling trivial. Every decode
// failure is a *DecodeError naming the broken section and the byte offset
// at which decoding stopped, so a torn partial write (a crashed recorder,
// an interrupted copy) is diagnosable from the error alone.
//
// The trace comes back the way a recording does, as sealed columns: one pass
// decodes each op, notes what Validate checks and the footprint, and puts it
// into the column builder, so no []Op ever exists. The checksum just verified
// is the content digest, and Validate's verdict and the footprint are
// memoized with it (a stream whose checksum is not its digest gets its
// image's first walk instead, see decodeTrace): a trace that fails
// Validate is still returned, as it always was. ReadTrace runs on the calling
// goroutine; Load reads a v2 file the same way on every CPU it is handed.
func ReadTrace(r io.Reader) (*Trace, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, decodeErr("stream", len(raw), fmt.Errorf("reading: %w", err))
	}
	return decodeTrace(raw, nil)
}

// v2Magic checks the magic before anything else is read, so that a v3 file
// or a foreign one is named for what it is, not as a torn v2 stream. A stream
// shorter than the magic is left to the length check.
func v2Magic(raw []byte) error {
	if IsColumnar(raw) {
		return decodeErrf("header", 0, "a v3 (columnar) trace, not a v2 stream: open it with trace.Open or trace.OpenBytes")
	}
	if len(raw) >= len(traceMagic) && string(raw[:len(traceMagic)]) != traceMagic {
		return decodeErrf("header", 0, "bad magic %q", raw[:len(traceMagic)])
	}
	return nil
}

// decodeTrace reads a v2 stream with its per-thread work under fj: the
// checksum in blocks, then — once frameThreads has found where each thread's
// ops start — every thread's decode, checks and puts, then the seal, and for
// a non-canonical stream the sealed image's first walk. The threads after a
// failing one may decode too, but only the first failure in thread order is
// reported: the one, with the section, offset and text, that a reader going
// thread by thread stops at.
func decodeTrace(raw []byte, fj ForkJoin) (*Trace, error) {
	if err := v2Magic(raw); err != nil {
		return nil, err
	}
	if len(raw) < 8 {
		return nil, decodeErrf("stream", len(raw), "truncated stream (%d bytes, need at least the 8-byte checksum)", len(raw))
	}
	payload, tail := raw[:len(raw)-8], raw[len(raw)-8:]
	want := binary.LittleEndian.Uint64(tail)
	if got := checksum(fj, payload); got != want {
		return nil, decodeErrf("checksum", len(payload), "mismatch (%#x != %#x): torn or corrupted stream", got, want)
	}

	h := headerReader{br: bytes.NewReader(payload), end: len(payload)}
	hdr, err := h.fields(traceMagic)
	if err != nil {
		return nil, err
	}
	if hdr[0] != traceVersion {
		return nil, decodeErrf("header", 4, "unsupported version %d", hdr[0])
	}
	// Every stream costs at least its 8-byte length field, so a thread
	// count beyond the remaining payload can only come from corruption;
	// checking before allocating keeps a hostile header from forcing a
	// huge allocation.
	threads := hdr[8]
	if threads <= 0 || threads > maxThreads || threads > int64(h.br.Len())/8 {
		return nil, decodeErrf("header", h.off()-8, "implausible thread count %d", threads)
	}
	costs, l1, exact := headerModel(hdr)

	// canon stays true while the bytes are the ones WriteV2 would write for
	// the ops they decode to, which is what makes their checksum the digest:
	// an overlong varint or a zero gap behind tagHasGap decode fine but
	// re-encode shorter, and a header field an int cannot hold re-encodes
	// narrowed.
	names, canon, err := h.names("payload")
	if err != nil {
		return nil, err
	}

	starts, end := frameThreads(payload, h.off(), int(threads))
	reads := make([]threadRead, len(starts))
	shift := provisionalShift(l1)
	fj.run(len(reads), func(t int) { reads[t].read(payload, starts[t], t, shift, len(names)) })
	canon = canon && exact
	checks := make([]threadCheck, len(reads))
	sealing := make([]*colBuilder, len(reads))
	for t := range reads {
		r := &reads[t]
		if r.err != nil {
			return nil, r.err
		}
		// A thread decodes exactly what the scan framed: tagFields is the
		// decoder's field count (TestFramingScanMatchesDecoder).
		next := end
		if t+1 < len(starts) {
			next = starts[t+1]
		}
		if r.end != next {
			panic(fmt.Sprintf("trace: thread %d decoded to byte %d, the framing scan to %d", t, r.end, next))
		}
		checks[t], sealing[t], canon = r.k, &r.b, canon && r.canon
	}
	if end != len(payload) {
		return nil, decodeErrf("stream", end, "%d trailing payload bytes", len(payload)-end)
	}
	c := sealImage(costs, l1, names, sealing, fj)
	if !canon {
		return c.firstWalk(fj).AsTrace(), nil
	}
	seen, verdict := foldChecks(checks)
	return c.finish(walkResult{seen: seen, verdict: verdict, digest: want}, fj).AsTrace(), nil
}

// threadSection names thread t's op section for DecodeError reporting.
func threadSection(t int64) string { return fmt.Sprintf("thread %d ops", t) }

// tagFields is, for every tag byte, how many varints follow it in the v2 op
// encoding — the gap's under tagHasGap, then the kind's fields — or -1 for a
// tag opDecoder.thread refuses: a reserved bit set, or an unknown kind.
var tagFields = func() (fields [256]int8) {
	for tag := range fields {
		n := int8(-1)
		switch Kind(tag & tagKindMask) {
		case OpBarrier, OpDMAWait, OpGap, OpEnd:
			n = 0
		case OpAccess, OpAtomic, OpPhase:
			n = 1
		case OpDMA:
			n = 3
		}
		switch {
		case tag&tagReserved != 0:
			n = -1
		case n >= 0 && tag&tagHasGap != 0:
			n++
		}
		fields[tag] = n
	}
	return fields
}()

// frameThreads finds where each of a v2 payload's thread sections starts,
// the first at pos: a pass over tag bytes and varint terminators only, far
// cheaper than the decode it splits. It stops in the first thread it cannot
// frame — a short or implausible op count, a refused tag, the payload ending
// inside an op — and returns that thread as the last start, with end -1:
// the thread's decode then fails, and says why. Otherwise end is where the
// last thread's ops end.
func frameThreads(p []byte, pos, threads int) (starts []int, end int) {
	starts = make([]int, 0, threads)
	for t := 0; t < threads && pos >= 0; t++ {
		starts = append(starts, pos)
		pos = frameThread(p, pos)
	}
	return starts, pos
}

// frameThread returns where the thread section at pos ends, or -1 where it
// cannot tell. The op count bound is the decoder's: each op is at least its
// tag byte.
func frameThread(p []byte, pos int) int {
	if len(p)-pos < 8 {
		return -1
	}
	n := int64(binary.LittleEndian.Uint64(p[pos:]))
	if n < 0 || n > int64(len(p)-pos-8) {
		return -1
	}
	pos += 8
	for ; n > 0; n-- {
		// Nearly every op fits in the eight bytes at pos. A varint ends at a
		// byte whose top bit is clear, as does every tag tagFields accepts,
		// so the op ends at the (fields+1)-th such byte.
		if len(p)-pos >= 8 {
			w := binary.LittleEndian.Uint64(p[pos:])
			fields := tagFields[byte(w)]
			ends := ^w & 0x8080808080808080
			for i := int8(0); i < fields; i++ {
				ends &= ends - 1
			}
			if fields >= 0 && ends != 0 {
				pos += bits.TrailingZeros64(ends)/8 + 1
				continue
			}
		}
		if pos == len(p) {
			return -1
		}
		fields := tagFields[p[pos]]
		pos++
		if fields < 0 {
			return -1
		}
		for ; fields > 0; fields-- {
			for pos < len(p) && p[pos] >= 0x80 {
				pos++
			}
			if pos == len(p) {
				return -1
			}
			pos++
		}
	}
	return pos
}

// threadRead is one thread's share of decodeTrace.
type threadRead struct {
	b     colBuilder
	k     threadCheck
	end   int  // where its ops end
	canon bool // every varint minimal (see decodeTrace)
	err   error
}

// read decodes thread t's section, which starts at pos: its op count, then
// its ops, each noted in r.k and put into r.b.
func (r *threadRead) read(payload []byte, pos, t int, shift uint, phases int) {
	section := threadSection(int64(t))
	if len(payload)-pos < 8 {
		_, err := io.ReadFull(bytes.NewReader(payload[pos:]), make([]byte, 8))
		r.err = decodeErr(section, pos, fmt.Errorf("op count: %w", err))
		return
	}
	nOps := int64(binary.LittleEndian.Uint64(payload[pos:]))
	// Each op occupies at least its tag byte, so the remaining payload bounds
	// the count; this rejects corrupt lengths before the work they would
	// inflate.
	if nOps < 0 || nOps > int64(len(payload)-pos-8) {
		r.err = decodeErrf(section, pos, "implausible op count %d", nOps)
		return
	}
	d := opDecoder{p: payload, pos: pos + 8, canon: true}
	r.b.shift, r.k.tid, r.k.phases = shift, t, phases
	if r.err = d.thread(section, nOps, &r.b, &r.k); r.err == nil {
		r.k.finish()
		r.end, r.canon = d.pos, d.canon
	}
}

// headerReader reads the header v2 and v3 share (see appendHeader) from br,
// whose bytes end at stream offset end.
type headerReader struct {
	br  *bytes.Reader
	end int
}

// off is the current decode position within the stream, for error
// reporting: everything before br's remaining bytes has been consumed.
func (h headerReader) off() int { return h.end - h.br.Len() }

// fields reads the magic and the nine fixed fields: version, four costs,
// three of L1 geometry, the thread count.
func (h headerReader) fields(want string) ([]int64, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(h.br, magic); err != nil {
		return nil, decodeErr("header", h.off(), fmt.Errorf("reading magic: %w", err))
	}
	if string(magic) != want {
		return nil, decodeErrf("header", 0, "bad magic %q", magic)
	}
	hdr := make([]int64, 9)
	if err := binary.Read(h.br, binary.LittleEndian, hdr); err != nil {
		return nil, decodeErr("header", h.off(), fmt.Errorf("reading fields: %w", err))
	}
	return hdr, nil
}

// headerModel unpacks the cost model and L1 geometry from the fixed fields.
// exact reports that every field survived its conversion: the L1 ways field
// is an int, which a 32-bit build narrows, and a narrowed header re-encodes
// to other bytes than it was read from.
func headerModel(hdr []int64) (costs Costs, l1 L1Geometry, exact bool) {
	costs = Costs{
		IssueCycles: hdr[1], L1HitCycles: hdr[2],
		CompareCycles: hdr[3], AtomicCycles: hdr[4],
	}
	l1 = L1Geometry{
		Capacity: units.Bytes(hdr[5]),
		LineSize: units.Bytes(hdr[6]),
		Ways:     int(hdr[7]),
	}
	return costs, l1, int64(l1.Ways) == hdr[7]
}

// names reads the phase-name table, whose lengths must fit within what is
// left of the region (named within, for the error). minimal reports that
// every length was a shortest-form varint, as a writer's are.
func (h headerReader) names(within string) (names []string, minimal bool, err error) {
	var nNames int64
	if err := binary.Read(h.br, binary.LittleEndian, &nNames); err != nil {
		return nil, false, decodeErr("phase table", h.off(), fmt.Errorf("phase-name count: %w", err))
	}
	if nNames < 0 || nNames > maxPhaseNames {
		return nil, false, decodeErrf("phase table", h.off()-8, "implausible phase-name count %d", nNames)
	}
	minimal = true
	for i := int64(0); i < nNames; i++ {
		at := h.off()
		l, err := binary.ReadUvarint(h.br)
		if err != nil {
			return nil, false, decodeErr("phase table", at, fmt.Errorf("phase name %d length: %w", i, err))
		}
		if l > uint64(h.br.Len()) {
			return nil, false, decodeErrf("phase table", at, "phase name %d length %d exceeds %s", i, l, within)
		}
		minimal = minimal && h.off()-at == uvarintLen(l)
		name := make([]byte, l)
		if _, err := io.ReadFull(h.br, name); err != nil {
			return nil, false, decodeErr("phase table", at, fmt.Errorf("phase name %d: %w", i, err))
		}
		names = append(names, string(name))
	}
	return names, minimal, nil
}

// opDecoder reads v2 ops off a checksummed payload by index arithmetic.
type opDecoder struct {
	p     []byte
	pos   int
	canon bool // every varint so far was minimal (see decodeTrace)
}

// uvarint reads one uvarint at d.pos; ok is false when it is truncated or
// overflows, with d.pos left on it for varintErr.
func (d *opDecoder) uvarint() (v uint64, ok bool) {
	v, m := binary.Uvarint(d.p[d.pos:])
	if m <= 0 {
		return 0, false
	}
	d.pos += m
	d.canon = d.canon && (m == 1 || d.p[d.pos-1] != 0)
	return v, true
}

// varintErr reports the truncated or overflowing varint at d.pos — field
// what of op i, which began at byte at — with the cause encoding/binary's
// stream reader gives for it.
func (d *opDecoder) varintErr(section string, at int, i int64, what string) error {
	_, err := binary.ReadUvarint(bytes.NewReader(d.p[d.pos:]))
	return decodeErr(section, at, fmt.Errorf("op %d %s: %w", i, what, err))
}

// thread decodes one thread's n ops — the count is bounded by the payload —
// putting each into b and noting it in k, as walkThread notes a cursor's
// ops. This is the v2 open path's hot loop, tens of millions of iterations
// for the Table I traces; it allocates only what the builder's columns
// need, and on the error exits.
func (d *opDecoder) thread(section string, n int64, b *colBuilder, k *threadCheck) error {
	var prevAddr uint64
	running := true // no OpEnd yet
	for i := int64(0); i < n; i++ {
		at := d.pos
		if at == len(d.p) {
			return decodeErr(section, at, fmt.Errorf("op %d tag: %w", i, io.EOF))
		}
		tag := d.p[at]
		d.pos++
		if tag&tagReserved != 0 {
			return decodeErrf(section, at, "op %d: reserved tag bits %#x set", i, tag&tagReserved)
		}
		op := Op{Kind: Kind(tag & tagKindMask), Write: tag&tagWrite != 0}
		if tag&tagHasGap != 0 {
			g, ok := d.uvarint()
			if !ok {
				return d.varintErr(section, at, i, "gap")
			}
			if g > uint64(^uint32(0)) {
				return decodeErrf(section, at, "op %d gap %d overflows", i, g)
			}
			op.Gap = uint32(g)
			d.canon = d.canon && g != 0
		}
		var ok bool
		switch op.Kind {
		case OpAccess, OpAtomic:
			var delta uint64
			if delta, ok = d.uvarint(); !ok {
				return d.varintErr(section, at, i, "addr delta")
			}
			prevAddr += delta>>1 ^ -(delta & 1) // zigzag, as binary.Varint
			op.Addr = prevAddr
		case OpDMA:
			if op.Addr, ok = d.uvarint(); !ok {
				return d.varintErr(section, at, i, "dma src")
			}
			if op.Addr2, ok = d.uvarint(); !ok {
				return d.varintErr(section, at, i, "dma dst")
			}
			sz, ok := d.uvarint()
			if !ok {
				return d.varintErr(section, at, i, "dma size")
			}
			// Mirror the gap overflow check: silently truncating to
			// uint32 would decode a corrupt stream into a different
			// (smaller) workload instead of rejecting it.
			if sz > uint64(^uint32(0)) {
				return decodeErrf(section, at, "op %d dma size %d overflows", i, sz)
			}
			op.Size = uint32(sz)
		case OpPhase:
			if op.Addr, ok = d.uvarint(); !ok {
				return d.varintErr(section, at, i, "phase id")
			}
		case OpBarrier, OpDMAWait, OpGap, OpEnd:
			// tag only
		default:
			return decodeErrf(section, at, "op %d: unknown op kind %d", i, op.Kind)
		}
		k.seen.cycles += uint64(op.Gap)
		if routedAccess(op) && running {
			k.seen.access(op)
		} else {
			k.op(i, op)
			running = !k.endSeen
		}
		b.put(op)
	}
	return nil
}
