package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/addr"
	"repro/internal/units"
)

// The references every image of a trace is held to, kept here and only
// here: the old code, restated over a trace's decoded ops. One sequential v2
// writer (the digest is its trailing checksum), one validate-only walk, the
// Verify that walked twice, the two-pass v3 encoder the column builder
// replaced, and the reader that decoded a v2 stream into []Op. Each reads
// [][]Op — a hand-built trace's own Streams, or what refColumns reads back
// from an image — so none of them runs the fused walk, the lanes or the
// builder they check.

// refWriteV2 is the sequential v2 writer the digest was defined by: one
// thread after another, one checksum over the bytes as they go by. It
// returns the stream and its trailing checksum, which is the content digest.
func refWriteV2(tr *Trace) ([]byte, uint64, error) {
	threads := len(tr.Streams)
	if threads == 0 {
		return nil, 0, fmt.Errorf("trace: refusing to serialize a trace with no threads")
	}
	if threads > maxThreads {
		return nil, 0, fmt.Errorf("trace: refusing to serialize %d threads (max %d)", threads, maxThreads)
	}
	out := bytes.NewBufferString("NMTR")
	costs, l1 := tr.Costs, tr.L1
	hdr := []int64{
		2,
		costs.IssueCycles, costs.L1HitCycles, costs.CompareCycles, costs.AtomicCycles,
		int64(l1.Capacity), int64(l1.LineSize), int64(l1.Ways),
		int64(threads), int64(len(tr.PhaseNames)),
	}
	binary.Write(out, binary.LittleEndian, hdr)
	for _, name := range tr.PhaseNames {
		out.Write(binary.AppendUvarint(nil, uint64(len(name))))
		out.WriteString(name)
	}
	for _, ops := range tr.Streams {
		binary.Write(out, binary.LittleEndian, int64(len(ops)))
		var prevAddr uint64
		for _, op := range ops {
			tag := byte(op.Kind) & 0x0f
			if op.Write {
				tag |= 0x10
			}
			if op.Gap != 0 {
				tag |= 0x20
			}
			b := []byte{tag}
			if op.Gap != 0 {
				b = binary.AppendUvarint(b, uint64(op.Gap))
			}
			switch op.Kind {
			case OpAccess, OpAtomic:
				b = binary.AppendVarint(b, int64(op.Addr-prevAddr))
				prevAddr = op.Addr
			case OpDMA:
				b = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(b, op.Addr), op.Addr2), uint64(op.Size))
			case OpPhase:
				b = binary.AppendUvarint(b, op.Addr)
			}
			out.Write(b)
		}
	}
	sum := crc64.Checksum(out.Bytes(), crcTable)
	return binary.LittleEndian.AppendUint64(out.Bytes(), sum), sum, nil
}

// refValidate is the validate-only walk, thread by thread in stream order,
// and what it learned of the footprint, tallied here from the address map.
// framing, when not nil, is what each thread's columns said once a cursor had
// read them (see refColumns): a thread is judged on its ops first, then on
// its framing, then on its end.
func refValidate(tr *Trace, framing []error) (footprint, error) {
	var total footprint
	var barriers0 uint64
	for t, ops := range tr.Streams {
		var barriers uint64
		endSeen := false
		for i, op := range ops {
			if endSeen {
				return footprint{}, fmt.Errorf("trace: thread %d has interior OpEnd at %d", t, i-1)
			}
			total.cycles += uint64(op.Gap)
			var stray uint64
			switch op.Kind {
			case OpEnd:
				endSeen = true
			case OpBarrier:
				barriers++
			case OpDMAWait:
				total.waits++
			case OpAccess, OpAtomic:
				stray = refStray(op.Addr)
				c, near := &total.counts, addr.Addr(op.Addr) >= addr.NearBase
				total.near = total.near || near
				switch {
				case op.Kind == OpAtomic:
					c.Atomics++
				case near && op.Write:
					c.NearWrites++
				case near:
					c.NearReads++
				case op.Write:
					c.FarWrites++
				default:
					c.FarReads++
				}
			case OpDMA:
				if stray = refStray(op.Addr); stray == 0 {
					stray = refStray(op.Addr2)
				}
				total.dmas++
				total.near = total.near || addr.Addr(op.Addr) >= addr.NearBase || addr.Addr(op.Addr2) >= addr.NearBase
			case OpPhase:
				if op.Addr >= uint64(len(tr.PhaseNames)) {
					return footprint{}, fmt.Errorf("trace: thread %d op %d names phase %d of %d", t, i, op.Addr, len(tr.PhaseNames))
				}
			}
			if stray != 0 {
				return footprint{}, fmt.Errorf("trace: thread %d op %d: address %#x outside both memory windows", t, i, stray-1)
			}
		}
		if framing != nil && framing[t] != nil {
			return footprint{}, framing[t]
		}
		if !endSeen {
			return footprint{}, fmt.Errorf("trace: thread %d stream not terminated", t)
		}
		if t == 0 {
			barriers0 = barriers
		}
		if barriers != barriers0 {
			return footprint{}, fmt.Errorf("trace: thread %d reached %d barriers, thread 0 reached %d", t, barriers, barriers0)
		}
		total.barriers += barriers
	}
	return total, nil
}

// refStray is a+1 for an address below the far window, which no memory level
// serves, and 0 for every other.
func refStray(a uint64) uint64 {
	if addr.Addr(a) < addr.FarBase {
		return a + 1
	}
	return 0
}

// refColumns reads every thread of c back through a cursor, as the walks
// before the fused one did: the ops up to where the cursor stopped, why it
// stopped (decode), and each thread's framing verdict in Validate's order —
// the cursor's failure, or for a thread that ended on its OpEnd, column bytes
// left past the claimed ops.
func refColumns(c *Columnar) (tr *Trace, decode, framing []error) {
	tr = &Trace{L1: c.l1, Costs: c.costs, PhaseNames: c.phaseNames, Streams: make([][]Op, len(c.threads))}
	decode, framing = make([]error, len(c.threads)), make([]error, len(c.threads))
	for t := range c.threads {
		cur := c.CursorAt(t)
		for cur.Next() {
			tr.Streams[t] = append(tr.Streams[t], cur.Cur)
		}
		ops := tr.Streams[t]
		switch col := cur.remaining(); {
		case cur.Err() != nil:
			decode[t], framing[t] = cur.Err(), cur.Err()
		case col >= 0 && len(ops) > 0 && ops[len(ops)-1].Kind == OpEnd:
			framing[t] = decodeErrf(cur.colSection(col), int(cur.colOffset(col)),
				"%d trailing bytes past the claimed %d ops", cur.ends[col]-cur.colOffset(col), c.threads[t].ops)
		}
	}
	return tr, decode, framing
}

// refVerify is the two-checksum Verify of an opened file: the payload CRC,
// then a walk of its own for the digest.
func refVerify(c *Columnar) error {
	img := bytes.Join(c.segs, nil)
	payload := img[:len(img)-footerSize]
	if got := crc64.Checksum(payload, crcTable); got != c.payloadCRC {
		return decodeErrf("checksum", len(payload), "mismatch (%#x != %#x): torn or corrupted stream", got, c.payloadCRC)
	}
	tr, decode, _ := refColumns(c)
	for _, err := range decode {
		if err != nil {
			return err
		}
	}
	if _, got, _ := refWriteV2(tr); got != c.digest {
		return decodeErrf("footer", len(img)-footerSize+32, "content digest %#x does not match decoded ops (%#x)", c.digest, got)
	}
	return nil
}

// refEncodeColumnar is the two-pass EncodeColumnar every release before the
// column builder shipped, the oracle the builder is held to byte for byte. It
// restates the format's constants instead of importing them and is
// deliberately naive: one pass to find each thread's address shift, one to
// fill the columns, whole-thread tag and gap buffers, and a sort of every gap
// to build the dictionary.
func refEncodeColumnar(tr *Trace) ([]byte, error) {
	_, digest, err := refWriteV2(tr)
	if err != nil {
		return nil, err
	}
	out := bytes.NewBufferString("NMT3")
	costs, l1 := tr.Costs, tr.L1
	hdr := []int64{
		3,
		costs.IssueCycles, costs.L1HitCycles, costs.CompareCycles, costs.AtomicCycles,
		int64(l1.Capacity), int64(l1.LineSize), int64(l1.Ways),
		int64(len(tr.Streams)), int64(len(tr.PhaseNames)),
	}
	binary.Write(out, binary.LittleEndian, hdr)
	for _, name := range tr.PhaseNames {
		out.Write(binary.AppendUvarint(nil, uint64(len(name))))
		out.WriteString(name)
	}
	align := func() {
		for out.Len()%64 != 0 {
			out.WriteByte(0)
		}
	}
	var table []int64 // per thread: ops, shift, then per column offset and length
	var totalOps int64
	for _, ops := range tr.Streams {
		// Pass 1: the address shift is the trailing-zero count every
		// access/atomic address shares.
		var orAddr uint64
		for _, op := range ops {
			if op.Kind == OpAccess || op.Kind == OpAtomic {
				orAddr |= op.Addr
			}
		}
		shift := uint(0)
		if orAddr != 0 {
			shift = uint(bits.TrailingZeros64(orAddr))
		}
		// Pass 2: the five columns; tags and gaps buffer their raw streams
		// first, since block and dictionary encoding both see the whole thread.
		var tags, addrs, dmas, phases []byte
		var gaps []uint32
		var prev uint64
		for _, op := range ops {
			tag := byte(op.Kind) & 0x0f
			if op.Write {
				tag |= 0x10
			}
			if op.Gap != 0 {
				tag |= 0x20
				gaps = append(gaps, op.Gap)
			}
			tags = append(tags, tag)
			switch op.Kind {
			case OpAccess, OpAtomic:
				addrs = binary.AppendVarint(addrs, int64(op.Addr>>shift-prev))
				prev = op.Addr >> shift
			case OpDMA:
				dmas = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(dmas, op.Addr), op.Addr2), uint64(op.Size))
			case OpPhase:
				phases = binary.AppendUvarint(phases, op.Addr)
			}
		}
		table = append(table, int64(len(ops)), int64(shift))
		for _, col := range [][]byte{refTagBlocks(tags), refGapDict(gaps), addrs, dmas, phases} {
			align()
			table = append(table, int64(out.Len()), int64(len(col)))
			out.Write(col)
		}
		totalOps += int64(len(ops))
	}
	align()
	tableOff := out.Len()
	binary.Write(out, binary.LittleEndian, table)
	ftr := binary.LittleEndian.AppendUint64(nil, uint64(tableOff))
	for _, v := range []uint64{uint64(len(table) * 8), uint64(len(tr.Streams)), uint64(totalOps), digest, crc64.Checksum(out.Bytes(), crcTable)} {
		ftr = binary.LittleEndian.AppendUint64(ftr, v)
	}
	ftr = binary.LittleEndian.AppendUint64(ftr, crc64.Checksum(ftr, crcTable))
	out.Write(append(ftr, "NMT3FOOT"...))
	return out.Bytes(), nil
}

// refTagBlocks block-encodes a thread's raw tag stream: greedy runs of three
// or more become run blocks, everything between them one literal block.
func refTagBlocks(tags []byte) []byte {
	var out []byte
	for i := 0; i < len(tags); {
		j := i
		for j < len(tags) && tags[j] == tags[i] {
			j++
		}
		if j-i >= 3 {
			out = append(binary.AppendUvarint(out, uint64(j-i-3)<<1|1), tags[i])
			i = j
			continue
		}
		// Literal: extend across short runs until a compressible run starts.
		k := i
		for k < len(tags) {
			j = k
			for j < len(tags) && tags[j] == tags[k] {
				j++
			}
			if j-k >= 3 {
				break
			}
			k = j
		}
		out = append(binary.AppendUvarint(out, uint64(k-i-1)<<1), tags[i:k]...)
		i = k
	}
	return out
}

// refGapDict dictionary-encodes a thread's gap values: the distinct values
// sorted by frequency (ties by value) as fixed-width u32 entries, then each
// gap as a uvarint index.
func refGapDict(gaps []uint32) []byte {
	sorted := slices.Clone(gaps)
	slices.Sort(sorted)
	type valCount struct {
		v uint32
		c int
	}
	var vals []valCount
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		vals = append(vals, valCount{sorted[i], j - i})
		i = j
	}
	sort.Slice(vals, func(a, b int) bool {
		if vals[a].c != vals[b].c {
			return vals[a].c > vals[b].c
		}
		return vals[a].v < vals[b].v
	})
	rank := map[uint32]uint64{}
	out := binary.AppendUvarint(nil, uint64(len(vals)))
	for r, e := range vals {
		rank[e.v] = uint64(r)
		out = binary.LittleEndian.AppendUint32(out, e.v)
	}
	for _, g := range gaps {
		out = binary.AppendUvarint(out, rank[g])
	}
	return out
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
