package trace_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math/bits"
	"sort"

	"repro/internal/addr"
	"repro/internal/trace"
)

// The reference v3 encoder: the two-pass EncodeColumnar every release before
// the column builder shipped, kept here — and only here — as the oracle the
// builder is held to, byte for byte. It restates the format's constants
// instead of importing them, reads ops through cursors and nothing else, and
// is deliberately naive: one pass to find each thread's address shift, one to
// fill the columns, whole-thread tag and gap buffers, and a sort of every gap
// to build the dictionary.

const (
	refAlign      = 64
	refFooterSize = 64
	refNumCols    = 5
	refMinTagRun  = 3

	refTagKindMask = 0x0f
	refTagWrite    = 0x10
	refTagHasGap   = 0x20
)

const (
	refColTags = iota
	refColGaps
	refColAddrs
	refColDMAs
	refColPhases
)

var refCRC = crc64.MakeTable(crc64.ECMA)

func referenceEncodeColumnar(src trace.Source) ([]byte, error) {
	threads := src.Threads()
	names := src.PhaseTable()
	_, digest, err := referenceWriteV2(src)
	if err != nil {
		return nil, err
	}

	var out bytes.Buffer
	out.WriteString("NMT3")
	costs, l1 := src.CostModel(), src.Geometry()
	hdr := []int64{
		3,
		costs.IssueCycles, costs.L1HitCycles, costs.CompareCycles, costs.AtomicCycles,
		int64(l1.Capacity), int64(l1.LineSize), int64(l1.Ways),
		int64(threads),
	}
	if err := binary.Write(&out, binary.LittleEndian, hdr); err != nil {
		return nil, err
	}
	var vbuf [binary.MaxVarintLen64]byte
	if err := binary.Write(&out, binary.LittleEndian, int64(len(names))); err != nil {
		return nil, err
	}
	for _, name := range names {
		out.Write(vbuf[:binary.PutUvarint(vbuf[:], uint64(len(name)))])
		out.WriteString(name)
	}

	align := func() {
		for out.Len()%refAlign != 0 {
			out.WriteByte(0)
		}
	}

	type section struct {
		ops      int64
		shift    uint
		off, end [refNumCols]int64
	}
	table := make([]section, threads)
	totalOps := int64(0)
	for t := 0; t < threads; t++ {
		// Pass 1: the thread's address shift is the trailing-zero count
		// shared by every access/atomic address.
		var orAddr uint64
		cur := src.CursorAt(t)
		n := int64(0)
		for cur.Next() {
			if k := cur.Cur.Kind; k == trace.OpAccess || k == trace.OpAtomic {
				orAddr |= cur.Cur.Addr
			}
			n++
		}
		if err := cur.Err(); err != nil {
			return nil, err
		}
		shift := uint(0)
		if orAddr != 0 {
			shift = uint(bits.TrailingZeros64(orAddr))
		}
		table[t].ops = n
		table[t].shift = shift
		totalOps += n

		// Pass 2: encode the five columns. Tags and gaps buffer their raw
		// streams first — block and dictionary encoding both need to see
		// the whole thread.
		var cols [refNumCols][]byte
		putU := func(col int, v uint64) {
			cols[col] = append(cols[col], vbuf[:binary.PutUvarint(vbuf[:], v)]...)
		}
		putV := func(col int, v int64) {
			cols[col] = append(cols[col], vbuf[:binary.PutVarint(vbuf[:], v)]...)
		}
		tags := make([]byte, 0, n)
		gaps := make([]uint32, 0, n)
		var prev uint64
		cur = src.CursorAt(t)
		for cur.Next() {
			op := cur.Cur
			tag := byte(op.Kind) & refTagKindMask
			if op.Write {
				tag |= refTagWrite
			}
			if op.Gap != 0 {
				tag |= refTagHasGap
				gaps = append(gaps, op.Gap)
			}
			tags = append(tags, tag)
			switch op.Kind {
			case trace.OpAccess, trace.OpAtomic:
				sa := op.Addr >> shift
				putV(refColAddrs, int64(sa-prev))
				prev = sa
			case trace.OpDMA:
				putU(refColDMAs, op.Addr)
				putU(refColDMAs, op.Addr2)
				putU(refColDMAs, uint64(op.Size))
			case trace.OpPhase:
				putU(refColPhases, op.Addr)
			}
		}
		if err := cur.Err(); err != nil {
			return nil, err
		}
		cols[refColTags] = referenceTagBlocks(tags)
		cols[refColGaps] = referenceGapDict(gaps)
		for col := range cols {
			align()
			table[t].off[col] = int64(out.Len())
			out.Write(cols[col])
			table[t].end[col] = int64(out.Len())
		}
	}

	align()
	tableOff := out.Len()
	for t := range table {
		ent := []int64{table[t].ops, int64(table[t].shift)}
		for col := 0; col < refNumCols; col++ {
			ent = append(ent, table[t].off[col], table[t].end[col]-table[t].off[col])
		}
		if err := binary.Write(&out, binary.LittleEndian, ent); err != nil {
			return nil, err
		}
	}

	var ftr [refFooterSize]byte
	le := binary.LittleEndian
	le.PutUint64(ftr[0:], uint64(tableOff))
	le.PutUint64(ftr[8:], uint64(threads*(2+2*refNumCols)*8))
	le.PutUint64(ftr[16:], uint64(threads))
	le.PutUint64(ftr[24:], uint64(totalOps))
	le.PutUint64(ftr[32:], digest)
	le.PutUint64(ftr[40:], crc64.Checksum(out.Bytes(), refCRC))
	le.PutUint64(ftr[48:], crc64.Checksum(ftr[:48], refCRC))
	copy(ftr[56:], "NMT3FOOT")
	out.Write(ftr[:])
	return out.Bytes(), nil
}

// referenceTagBlocks block-encodes a thread's raw tag stream: greedy runs of
// refMinTagRun or more become run blocks, everything between them one
// literal block.
func referenceTagBlocks(tags []byte) []byte {
	var vbuf [binary.MaxVarintLen64]byte
	out := make([]byte, 0, len(tags)+len(tags)/64+1)
	for i := 0; i < len(tags); {
		j := i
		for j < len(tags) && tags[j] == tags[i] {
			j++
		}
		if j-i >= refMinTagRun {
			out = append(out, vbuf[:binary.PutUvarint(vbuf[:], uint64(j-i-refMinTagRun)<<1|1)]...)
			out = append(out, tags[i])
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
			if j-k >= refMinTagRun {
				break
			}
			k = j
		}
		out = append(out, vbuf[:binary.PutUvarint(vbuf[:], uint64(k-i-1)<<1)]...)
		out = append(out, tags[i:k]...)
		i = k
	}
	return out
}

// referenceGapDict dictionary-encodes a thread's gap values: the distinct
// values sorted by frequency (ties by value, for determinism) as fixed-width
// u32 entries, then each gap as a uvarint index.
func referenceGapDict(gaps []uint32) []byte {
	sorted := append([]uint32(nil), gaps...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
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
	// rank, sorted by value for binary-search lookup during the index pass.
	type valRank struct {
		v uint32
		r uint64
	}
	lookup := make([]valRank, len(vals))
	for r, e := range vals {
		lookup[r] = valRank{e.v, uint64(r)}
	}
	sort.Slice(lookup, func(a, b int) bool { return lookup[a].v < lookup[b].v })

	var vbuf [binary.MaxVarintLen64]byte
	out := make([]byte, 0, 1+4*len(vals)+len(gaps))
	out = append(out, vbuf[:binary.PutUvarint(vbuf[:], uint64(len(vals)))]...)
	for _, e := range vals {
		var b4 [4]byte
		binary.LittleEndian.PutUint32(b4[:], e.v)
		out = append(out, b4[:]...)
	}
	for _, g := range gaps {
		i := sort.Search(len(lookup), func(k int) bool { return lookup[k].v >= g })
		out = append(out, vbuf[:binary.PutUvarint(vbuf[:], lookup[i].r)]...)
	}
	return out
}

// referenceWriteV2 is the sequential v2 writer the digest was defined by —
// one thread after another through a cursor, one checksum over the bytes as
// they go by — restated over the exported API. It returns the stream and its
// trailing checksum, which is the content digest.
func referenceWriteV2(src trace.Source) ([]byte, uint64, error) {
	var out bytes.Buffer
	out.WriteString("NMTR")
	costs, l1, names := src.CostModel(), src.Geometry(), src.PhaseTable()
	hdr := []int64{
		2,
		costs.IssueCycles, costs.L1HitCycles, costs.CompareCycles, costs.AtomicCycles,
		int64(l1.Capacity), int64(l1.LineSize), int64(l1.Ways),
		int64(src.Threads()), int64(len(names)),
	}
	if err := binary.Write(&out, binary.LittleEndian, hdr); err != nil {
		return nil, 0, err
	}
	var buf [3 * binary.MaxVarintLen64]byte
	for _, name := range names {
		out.Write(buf[:binary.PutUvarint(buf[:], uint64(len(name)))])
		out.WriteString(name)
	}
	for t := 0; t < src.Threads(); t++ {
		if err := binary.Write(&out, binary.LittleEndian, int64(src.ThreadOps(t))); err != nil {
			return nil, 0, err
		}
		var prevAddr uint64
		cur := src.CursorAt(t)
		for cur.Next() {
			op := cur.Cur
			tag := byte(op.Kind) & refTagKindMask
			if op.Write {
				tag |= refTagWrite
			}
			if op.Gap != 0 {
				tag |= refTagHasGap
			}
			out.WriteByte(tag)
			n := 0
			if op.Gap != 0 {
				n += binary.PutUvarint(buf[n:], uint64(op.Gap))
			}
			switch op.Kind {
			case trace.OpAccess, trace.OpAtomic:
				n += binary.PutVarint(buf[n:], int64(op.Addr-prevAddr))
				prevAddr = op.Addr
			case trace.OpDMA:
				n += binary.PutUvarint(buf[n:], op.Addr)
				n += binary.PutUvarint(buf[n:], op.Addr2)
				n += binary.PutUvarint(buf[n:], uint64(op.Size))
			case trace.OpPhase:
				n += binary.PutUvarint(buf[n:], op.Addr)
			}
			out.Write(buf[:n])
		}
		if err := cur.Err(); err != nil {
			return nil, 0, err
		}
	}
	sum := crc64.Checksum(out.Bytes(), refCRC)
	if err := binary.Write(&out, binary.LittleEndian, sum); err != nil {
		return nil, 0, err
	}
	return out.Bytes(), sum, nil
}

// referenceValidate is the structural half of the validate-only walk — the
// half a cursor and the address map can restate: termination, barrier
// agreement, address routing, phase ids, in the walk's words and order. (Its
// framing half needs the cursor's insides; walk_reference_test.go keeps it.)
func referenceValidate(src trace.Source) error {
	barriers0 := 0
	for t := 0; t < src.Threads(); t++ {
		cur := src.CursorAt(t)
		n, barriers, endSeen := 0, 0, false
		for cur.Next() {
			if endSeen {
				return fmt.Errorf("trace: thread %d has interior OpEnd at %d", t, n-1)
			}
			n++
			op := cur.Cur
			stray := func(a uint64) error {
				if addr.Addr(a) >= addr.FarBase {
					return nil
				}
				return fmt.Errorf("trace: thread %d op %d: address %#x outside both memory windows", t, n-1, a)
			}
			switch op.Kind {
			case trace.OpEnd:
				endSeen = true
			case trace.OpBarrier:
				barriers++
			case trace.OpAccess, trace.OpAtomic:
				if err := stray(op.Addr); err != nil {
					return err
				}
			case trace.OpDMA:
				if err := stray(op.Addr); err != nil {
					return err
				}
				if err := stray(op.Addr2); err != nil {
					return err
				}
			case trace.OpPhase:
				if op.Addr >= uint64(len(src.PhaseTable())) {
					return fmt.Errorf("trace: thread %d op %d names phase %d of %d", t, n-1, op.Addr, len(src.PhaseTable()))
				}
			}
		}
		if err := cur.Err(); err != nil {
			return err
		}
		if !endSeen {
			return fmt.Errorf("trace: thread %d stream not terminated", t)
		}
		if t == 0 {
			barriers0 = barriers
		}
		if barriers != barriers0 {
			return fmt.Errorf("trace: thread %d reached %d barriers, thread 0 reached %d", t, barriers, barriers0)
		}
	}
	return nil
}
