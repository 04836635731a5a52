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

// The walks this package made before they were fused, kept — and only here —
// as the oracles the fused ones are held to: the sequential payload writer
// the digest was defined by, the validate-only thread walk, the Verify that
// ran a second walk for the digest, and the reader that decoded a v2 stream
// into []Op. They are the old code with a ref prefix; nothing outside tests
// calls them. The refStreams* three are the arms *Trace's methods had while
// a hand-built trace still replayed its []Op: they read Streams directly, so
// the columns such a trace now seals itself into have something to be held to.

// opFeed hands visit thread t's ops in order until it returns false, and
// reports the decode failure, if any, that ended the stream early: a
// Source's cursors, or the [][]Op a test built a *Trace from.
type opFeed func(t int, visit func(Op) bool) error

func cursorFeed(src Source) opFeed {
	return func(t int, visit func(Op) bool) error {
		cur := src.CursorAt(t)
		for cur.Next() && visit(cur.Cur) {
		}
		return cur.Err()
	}
}

func sliceFeed(streams [][]Op) opFeed {
	return func(t int, visit func(Op) bool) error {
		for _, op := range streams[t] {
			if !visit(op) {
				break
			}
		}
		return nil
	}
}

// refWritePayload writes everything before the trailing checksum and returns
// the bytes written plus the payload's CRC64.
func refWritePayload(w io.Writer, src Source) (int64, uint64, error) {
	ops := make([]int, src.Threads())
	for t := range ops {
		ops[t] = src.ThreadOps(t)
	}
	return refWritePayloadFrom(w, src.CostModel(), src.Geometry(), src.PhaseTable(), ops, cursorFeed(src))
}

// refWritePayloadFrom is refWritePayload over a feed of ops[t] ops per thread.
func refWritePayloadFrom(w io.Writer, costs Costs, l1 L1Geometry, names []string, ops []int, feed opFeed) (int64, uint64, error) {
	threads := len(ops)
	if threads == 0 {
		return 0, 0, fmt.Errorf("trace: refusing to serialize a trace with no threads")
	}
	if threads > maxThreads {
		return 0, 0, fmt.Errorf("trace: refusing to serialize %d threads (max %d)", threads, maxThreads)
	}
	cw := &refCountingWriter{w: w, crc: crc64.New(crcTable)}
	bw := bufio.NewWriterSize(cw, 1<<20)

	put := func(data any) error { return binary.Write(bw, binary.LittleEndian, data) }
	if _, err := bw.WriteString(traceMagic); err != nil {
		return cw.n, 0, err
	}
	hdr := []int64{
		traceVersion,
		costs.IssueCycles, costs.L1HitCycles, costs.CompareCycles, costs.AtomicCycles,
		int64(l1.Capacity), int64(l1.LineSize), int64(l1.Ways),
		int64(threads),
	}
	if err := put(hdr); err != nil {
		return cw.n, 0, err
	}

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
		if err := put(int64(ops[t])); err != nil {
			return cw.n, 0, err
		}
		var prevAddr uint64
		var werr error
		derr := feed(t, func(op Op) bool {
			tag := byte(op.Kind) & tagKindMask
			if op.Write {
				tag |= tagWrite
			}
			if op.Gap != 0 {
				tag |= tagHasGap
			}
			if werr = bw.WriteByte(tag); werr != nil {
				return false
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
			_, werr = bw.Write(buf[:n])
			return werr == nil
		})
		if werr != nil {
			return cw.n, 0, werr
		}
		if derr != nil {
			return cw.n, 0, derr
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, 0, err
	}
	return cw.n, cw.crc.Sum64(), nil
}

type refCountingWriter struct {
	w   io.Writer
	crc interface {
		io.Writer
		Sum64() uint64
	}
	n int64
}

func (c *refCountingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.crc.Write(p[:n])
	return n, err
}

// refWriteV2 is the sequential WriteV2Par.
func refWriteV2(w io.Writer, src Source) (int64, error) {
	n, sum, err := refWritePayload(w, src)
	if err != nil {
		return n, err
	}
	if err := binary.Write(w, binary.LittleEndian, sum); err != nil {
		return n, err
	}
	return n + 8, nil
}

// refValidate is the validate-only walk, and what it learned of the
// footprint.
func refValidate(c *Columnar) (footprint, error) {
	var total footprint
	barriers0 := 0
	for t := range c.threads {
		var seen footprint
		barriers, err := refValidateThread(c, t, &seen)
		if err != nil {
			return footprint{}, err
		}
		if t == 0 {
			barriers0 = barriers
		}
		if barriers != barriers0 {
			return footprint{}, fmt.Errorf("trace: thread %d reached %d barriers, thread 0 reached %d",
				t, barriers, barriers0)
		}
		total.add(seen)
	}
	return total, nil
}

func refValidateThread(c *Columnar, t int, seen *footprint) (barriers int, err error) {
	cur := c.CursorAt(t)
	k := refThread{tid: t, phases: len(c.phaseNames), seen: seen}
	for cur.Next() {
		if err := k.op(cur.Cur); err != nil {
			return 0, err
		}
	}
	if err := cur.Err(); err != nil {
		return 0, err
	}
	if k.n != c.threads[t].ops {
		return 0, decodeErrf("section table", int(c.tableOff)+t*tableEntrySize,
			"thread %d decoded %d ops, table claims %d", t, k.n, c.threads[t].ops)
	}
	if !k.endSeen {
		return 0, fmt.Errorf("trace: thread %d stream not terminated", t)
	}
	if col := cur.remaining(); col >= 0 {
		return 0, decodeErrf(cur.colSection(col), int(cur.colOffset(col)),
			"%d trailing bytes past the claimed %d ops",
			cur.ends[col]-cur.colOffset(col), c.threads[t].ops)
	}
	return k.barriers, nil
}

// refThread is the validate-only walk's state for one thread: op is the body
// of its loop.
type refThread struct {
	tid, phases int
	seen        *footprint
	n           int64
	barriers    int
	endSeen     bool
}

func (k *refThread) op(op Op) error {
	t, n := k.tid, k.n
	if k.endSeen {
		return fmt.Errorf("trace: thread %d has interior OpEnd at %d", t, n-1)
	}
	k.n++
	k.seen.cycles += uint64(op.Gap)
	switch op.Kind {
	case OpEnd:
		k.endSeen = true
	case OpBarrier:
		k.barriers++
		k.seen.barriers++
	case OpDMAWait:
		k.seen.waits++
	case OpAccess, OpAtomic:
		if err := levelCheck(op.Addr); err != nil {
			return fmt.Errorf("trace: thread %d op %d: %w", t, n, err)
		}
		k.seen.access(op)
	case OpDMA:
		if err := levelCheck(op.Addr); err != nil {
			return fmt.Errorf("trace: thread %d op %d: %w", t, n, err)
		}
		if err := levelCheck(op.Addr2); err != nil {
			return fmt.Errorf("trace: thread %d op %d: %w", t, n, err)
		}
		k.seen.dma(op)
	case OpPhase:
		if op.Addr >= uint64(k.phases) {
			return fmt.Errorf("trace: thread %d op %d names phase %d of %d", t, n, op.Addr, k.phases)
		}
	}
	return nil
}

// refStreamsValidate is Validate over a trace's own streams, and what it
// learned of the footprint: the validate-only walk over []Op.
func refStreamsValidate(tr *Trace) (footprint, error) {
	var total footprint
	barriers0 := 0
	for t, ops := range tr.Streams {
		k := refThread{tid: t, phases: len(tr.PhaseNames), seen: new(footprint)}
		for _, op := range ops {
			if err := k.op(op); err != nil {
				return footprint{}, err
			}
		}
		if !k.endSeen {
			return footprint{}, fmt.Errorf("trace: thread %d stream not terminated", t)
		}
		if t == 0 {
			barriers0 = k.barriers
		}
		if k.barriers != barriers0 {
			return footprint{}, fmt.Errorf("trace: thread %d reached %d barriers, thread 0 reached %d", t, k.barriers, barriers0)
		}
		total.add(*k.seen)
	}
	return total, nil
}

// refStreamsWriteV2 is the sequential writer over a hand-built trace's own
// streams: the v2 bytes, whose trailing checksum is the digest.
func refStreamsWriteV2(tr *Trace) ([]byte, uint64, error) {
	ops := make([]int, len(tr.Streams))
	for t, s := range tr.Streams {
		ops[t] = len(s)
	}
	var b bytes.Buffer
	_, sum, err := refWritePayloadFrom(&b, tr.Costs, tr.L1, tr.PhaseNames, ops, sliceFeed(tr.Streams))
	if err != nil {
		return nil, 0, err
	}
	return binary.LittleEndian.AppendUint64(b.Bytes(), sum), sum, nil
}

// refVerify is the two-checksum Verify of an opened file: the payload CRC,
// then a walk of its own for the digest.
func refVerify(c *Columnar) error {
	img := bytes.Join(c.segs, nil)
	payload := img[:len(img)-footerSize]
	if got := crc64.Checksum(payload, crcTable); got != c.payloadCRC {
		return decodeErrf("checksum", len(payload), "mismatch (%#x != %#x): torn or corrupted stream", got, c.payloadCRC)
	}
	_, got, err := refWritePayload(io.Discard, c)
	if err != nil {
		return err
	}
	if got != c.digest {
		return decodeErrf("footer", len(img)-footerSize+32,
			"content digest %#x does not match decoded ops (%#x)", c.digest, got)
	}
	return nil
}

// refReadTrace is the reader that decoded a v2 stream into []Op.
func refReadTrace(r io.Reader) (*Trace, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, decodeErr("stream", len(raw), fmt.Errorf("reading: %w", err))
	}
	if err := v2Magic(raw); err != nil { // the magic is read first, as ReadTrace reads it
		return nil, err
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
	if hdr[0] != traceVersion {
		return nil, decodeErrf("header", 4, "unsupported version %d", hdr[0])
	}
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

	for t := int64(0); t < threads; t++ {
		at := off()
		var nOps int64
		if err := binary.Read(br, binary.LittleEndian, &nOps); err != nil {
			return nil, decodeErr(threadSection(t), at, fmt.Errorf("op count: %w", err))
		}
		if nOps < 0 || nOps > int64(br.Len()) {
			return nil, decodeErrf(threadSection(t), at, "implausible op count %d", nOps)
		}
		ops := make([]Op, nOps)
		if err := refDecodeOps(br, ops, t, len(payload)); err != nil {
			return nil, err
		}
		tr.Streams[t] = ops
	}
	if br.Len() != 0 {
		return nil, decodeErrf("stream", off(), "%d trailing payload bytes", br.Len())
	}
	return tr, nil
}

func refDecodeOps(br *bytes.Reader, ops []Op, t int64, plen int) error {
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
