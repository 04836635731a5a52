package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"

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
//	phase names (version >= 2): count i64, then per name len uvarint + bytes
//	per thread: ops u32, then packed ops
//	crc64(ECMA) of everything before it
//
// Ops are delta-packed per kind: a leading tag byte (kind | flags) followed
// by only the fields that kind uses.
//
// Version history: v1 had no phase-name table and no OpPhase ops; v2 added
// both. The writer emits v2; the reader accepts both.

const (
	traceMagic     = "NMTR"
	traceVersion   = 2
	traceVersionV1 = 1

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
// Digest is defined over. nmtrace convert uses it to turn an opened v3
// file back into v2 bytes without materializing a *Trace first.
func WriteV2(w io.Writer, src Source) (int64, error) {
	n, sum, err := writePayload(w, src)
	if err != nil {
		return n, err
	}
	// Trailing checksum (not itself checksummed).
	if err := binary.Write(w, binary.LittleEndian, sum); err != nil {
		return n, err
	}
	return n + 8, nil
}

// writePayload writes everything before the trailing checksum and returns
// the bytes written plus the payload's CRC64 — shared between WriteV2
// (which appends the CRC as the checksum) and Digest (which returns it).
// It iterates src through cursors, so a columnar trace serializes — and
// digests — without ever allocating op slices; for a *Trace the cursor
// walk degenerates to the stream slices and the bytes are unchanged from
// every earlier release.
func writePayload(w io.Writer, src Source) (int64, uint64, error) {
	threads := src.Threads()
	if threads == 0 {
		return 0, 0, fmt.Errorf("trace: refusing to serialize a trace with no threads")
	}
	if threads > maxThreads {
		return 0, 0, fmt.Errorf("trace: refusing to serialize %d threads (max %d)", threads, maxThreads)
	}
	cw := &countingWriter{w: w, crc: crc64.New(crcTable)}
	bw := bufio.NewWriterSize(cw, 1<<20)

	put := func(data any) error { return binary.Write(bw, binary.LittleEndian, data) }
	if _, err := bw.WriteString(traceMagic); err != nil {
		return cw.n, 0, err
	}
	costs, l1 := src.CostModel(), src.Geometry()
	hdr := []int64{
		traceVersion,
		costs.IssueCycles, costs.L1HitCycles, costs.CompareCycles, costs.AtomicCycles,
		int64(l1.Capacity), int64(l1.LineSize), int64(l1.Ways),
		int64(threads),
	}
	if err := put(hdr); err != nil {
		return cw.n, 0, err
	}

	names := src.PhaseTable()
	var buf [3 * binary.MaxVarintLen64]byte
	if err := put(int64(len(names))); err != nil {
		return cw.n, 0, err
	}
	for _, name := range names {
		n := binary.PutUvarint(buf[:], uint64(len(name)))
		if _, err := bw.Write(buf[:n]); err != nil {
			return cw.n, 0, err
		}
		if _, err := bw.WriteString(name); err != nil {
			return cw.n, 0, err
		}
	}
	for t := 0; t < threads; t++ {
		if err := put(int64(src.ThreadOps(t))); err != nil {
			return cw.n, 0, err
		}
		var prevAddr uint64
		cur := src.CursorAt(t)
		for cur.Next() {
			op := cur.Cur
			tag := byte(op.Kind) & tagKindMask
			if op.Write {
				tag |= tagWrite
			}
			if op.Gap != 0 {
				tag |= tagHasGap
			}
			if err := bw.WriteByte(tag); err != nil {
				return cw.n, 0, err
			}
			n := 0
			if op.Gap != 0 {
				n += binary.PutUvarint(buf[n:], uint64(op.Gap))
			}
			switch op.Kind {
			case OpAccess, OpAtomic:
				n += binary.PutVarint(buf[n:], int64(op.Addr-prevAddr))
				prevAddr = op.Addr
			case OpDMA:
				n += binary.PutUvarint(buf[n:], op.Addr)
				n += binary.PutUvarint(buf[n:], op.Addr2)
				n += binary.PutUvarint(buf[n:], uint64(op.Size))
			case OpPhase:
				n += binary.PutUvarint(buf[n:], op.Addr)
			}
			if _, err := bw.Write(buf[:n]); err != nil {
				return cw.n, 0, err
			}
		}
		if err := cur.Err(); err != nil {
			return cw.n, 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, 0, err
	}
	return cw.n, cw.crc.Sum64(), nil
}

var crcTable = crc64.MakeTable(crc64.ECMA)

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
// The digest is memoized: the first call serializes the stream, every
// later call returns the stored value in O(1). Traces are immutable once
// finished, so the memo never needs invalidating — but a caller that
// mutates a Trace after digesting it gets the stale fingerprint, which is
// why nothing in this module mutates a finished trace.
func (tr *Trace) Digest() (uint64, error) {
	if tr.cols != nil {
		return tr.cols.Digest()
	}
	tr.digestOnce.Do(func() {
		_, tr.digestVal, tr.digestErr = writePayload(io.Discard, tr)
	})
	return tr.digestVal, tr.digestErr
}

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

type countingWriter struct {
	w   io.Writer
	crc interface {
		io.Writer
		Sum64() uint64
	}
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.crc.Write(p[:n])
	return n, err
}

// ReadTrace deserializes a trace written by WriteTo, verifying its
// checksum. The entire stream is buffered in memory first (traces are tens
// of MB at most), which keeps the checksum handling trivial. Every decode
// failure is a *DecodeError naming the broken section and the byte offset
// at which decoding stopped, so a torn partial write (a crashed recorder,
// an interrupted copy) is diagnosable from the error alone.
func ReadTrace(r io.Reader) (*Trace, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, decodeErr("stream", len(raw), fmt.Errorf("reading: %w", err))
	}
	if len(raw) < 8 {
		return nil, decodeErrf("stream", len(raw), "truncated stream (%d bytes, need at least the 8-byte checksum)", len(raw))
	}
	payload, tail := raw[:len(raw)-8], raw[len(raw)-8:]
	want := binary.LittleEndian.Uint64(tail)
	if got := crc64.Checksum(payload, crcTable); got != want {
		return nil, decodeErrf("checksum", len(payload), "mismatch (%#x != %#x): torn or corrupted stream", got, want)
	}

	br := bytes.NewReader(payload)
	// off is the current decode position within the stream, for error
	// reporting: everything before br's remaining bytes has been consumed.
	off := func() int { return len(payload) - br.Len() }
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, decodeErr("header", off(), fmt.Errorf("reading magic: %w", err))
	}
	if string(magic) != traceMagic {
		return nil, decodeErrf("header", 0, "bad magic %q", magic)
	}
	hdr := make([]int64, 9)
	if err := binary.Read(br, binary.LittleEndian, hdr); err != nil {
		return nil, decodeErr("header", off(), fmt.Errorf("reading fields: %w", err))
	}
	version := hdr[0]
	if version != traceVersion && version != traceVersionV1 {
		return nil, decodeErrf("header", 4, "unsupported version %d", version)
	}
	// Every stream costs at least its 8-byte length field, so a thread
	// count beyond the remaining payload can only come from corruption;
	// checking before allocating keeps a hostile header from forcing a
	// huge allocation.
	threads := hdr[8]
	if threads <= 0 || threads > maxThreads || threads > int64(br.Len())/8 {
		return nil, decodeErrf("header", off()-8, "implausible thread count %d", threads)
	}
	tr := &Trace{
		Streams: make([][]Op, threads),
		Costs: Costs{
			IssueCycles: hdr[1], L1HitCycles: hdr[2],
			CompareCycles: hdr[3], AtomicCycles: hdr[4],
		},
		L1: L1Geometry{
			Capacity: units.Bytes(hdr[5]),
			LineSize: units.Bytes(hdr[6]),
			Ways:     int(hdr[7]),
		},
	}

	if version >= 2 {
		var nNames int64
		if err := binary.Read(br, binary.LittleEndian, &nNames); err != nil {
			return nil, decodeErr("phase table", off(), fmt.Errorf("phase-name count: %w", err))
		}
		if nNames < 0 || nNames > maxPhaseNames {
			return nil, decodeErrf("phase table", off()-8, "implausible phase-name count %d", nNames)
		}
		for i := int64(0); i < nNames; i++ {
			at := off()
			l, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, decodeErr("phase table", at, fmt.Errorf("phase name %d length: %w", i, err))
			}
			if l > uint64(br.Len()) {
				return nil, decodeErrf("phase table", at, "phase name %d length %d exceeds payload", i, l)
			}
			name := make([]byte, l)
			if _, err := io.ReadFull(br, name); err != nil {
				return nil, decodeErr("phase table", at, fmt.Errorf("phase name %d: %w", i, err))
			}
			tr.PhaseNames = append(tr.PhaseNames, string(name))
		}
	}

	for t := int64(0); t < threads; t++ {
		at := off()
		var nOps int64
		if err := binary.Read(br, binary.LittleEndian, &nOps); err != nil {
			return nil, decodeErr(threadSection(t), at, fmt.Errorf("op count: %w", err))
		}
		// Each op occupies at least its tag byte, so the remaining
		// payload bounds the count; this rejects corrupt lengths before
		// the allocation they would inflate.
		if nOps < 0 || nOps > int64(br.Len()) {
			return nil, decodeErrf(threadSection(t), at, "implausible op count %d", nOps)
		}
		ops := make([]Op, nOps)
		if err := decodeOps(br, ops, t, len(payload)); err != nil {
			return nil, err
		}
		tr.Streams[t] = ops
	}
	if br.Len() != 0 {
		return nil, decodeErrf("stream", off(), "%d trailing payload bytes", br.Len())
	}
	return tr, nil
}

// threadSection names thread t's op section for DecodeError reporting.
func threadSection(t int64) string { return fmt.Sprintf("thread %d ops", t) }

// decodeOps decodes thread t's op stream into ops, which the caller sized
// from the validated per-thread count; plen is the payload length, used to
// recover the byte offset of a broken op from br's remaining length. This
// is the replay pipeline's decode hot loop — tens of millions of
// iterations for the Table I traces — so it fills the caller-allocated
// slice in place and allocates only on the error exits.
//
//nmlint:hotpath
func decodeOps(br *bytes.Reader, ops []Op, t int64, plen int) error {
	var prevAddr uint64
	for i := range ops {
		at := plen - br.Len()
		tag, err := br.ReadByte()
		if err != nil {
			return decodeErr(threadSection(t), at, fmt.Errorf("op %d tag: %w", i, err))
		}
		if tag&tagReserved != 0 {
			return decodeErrf(threadSection(t), at, "op %d: reserved tag bits %#x set", i, tag&tagReserved)
		}
		op := Op{Kind: Kind(tag & tagKindMask), Write: tag&tagWrite != 0}
		if tag&tagHasGap != 0 {
			g, err := binary.ReadUvarint(br)
			if err != nil {
				return decodeErr(threadSection(t), at, fmt.Errorf("op %d gap: %w", i, err))
			}
			if g > uint64(^uint32(0)) {
				return decodeErrf(threadSection(t), at, "op %d gap %d overflows", i, g)
			}
			op.Gap = uint32(g)
		}
		switch op.Kind {
		case OpAccess, OpAtomic:
			d, err := binary.ReadVarint(br)
			if err != nil {
				return decodeErr(threadSection(t), at, fmt.Errorf("op %d addr delta: %w", i, err))
			}
			op.Addr = prevAddr + uint64(d)
			prevAddr = op.Addr
		case OpDMA:
			if op.Addr, err = binary.ReadUvarint(br); err != nil {
				return decodeErr(threadSection(t), at, fmt.Errorf("op %d dma src: %w", i, err))
			}
			if op.Addr2, err = binary.ReadUvarint(br); err != nil {
				return decodeErr(threadSection(t), at, fmt.Errorf("op %d dma dst: %w", i, err))
			}
			sz, err := binary.ReadUvarint(br)
			if err != nil {
				return decodeErr(threadSection(t), at, fmt.Errorf("op %d dma size: %w", i, err))
			}
			// Mirror the gap overflow check: silently truncating to
			// uint32 would decode a corrupt stream into a different
			// (smaller) workload instead of rejecting it.
			if sz > uint64(^uint32(0)) {
				return decodeErrf(threadSection(t), at, "op %d dma size %d overflows", i, sz)
			}
			op.Size = uint32(sz)
		case OpPhase:
			if op.Addr, err = binary.ReadUvarint(br); err != nil {
				return decodeErr(threadSection(t), at, fmt.Errorf("op %d phase id: %w", i, err))
			}
		case OpBarrier, OpDMAWait, OpGap, OpEnd:
			// tag only
		default:
			return decodeErrf(threadSection(t), at, "op %d: unknown op kind %d", i, op.Kind)
		}
		ops[i] = op
	}
	return nil
}
