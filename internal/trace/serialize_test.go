package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func roundTrip(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	return got
}

func sampleTrace(t *testing.T) *Trace {
	t.Helper()
	rec := NewRecorder(3, tinyL1(), DefaultCosts())
	for tid := 0; tid < 3; tid++ {
		tp := rec.Thread(tid)
		tp.Compute(int64(100 * (tid + 1)))
		tp.Load(addr.FarBase+addr.Addr(tid*4096), 8)
		tp.Store(addr.NearBase+addr.Addr(tid*4096), 16)
		tp.Barrier()
		tp.Atomic(addr.NearBase)
		tp.DMA(addr.FarBase, addr.NearBase+65536, 4096)
		tp.DMAWait()
		tp.Compute(7)
		tp.Load(addr.FarBase+addr.Addr(tid*4096)+128, 8)
	}
	return rec.Finish(nil)
}

func TestSerializeRoundTrip(t *testing.T) {
	tr := sampleTrace(t)
	got := roundTrip(t, tr)

	if err := sameOps(t, got, tr); err != nil {
		t.Fatal(err)
	}
	if got.Costs != tr.Costs || got.L1 != tr.L1 {
		t.Errorf("metadata mismatch: %+v/%+v vs %+v/%+v", got.Costs, got.L1, tr.Costs, tr.L1)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("round-tripped trace invalid: %v", err)
	}
	if got.Count() != tr.Count() {
		t.Errorf("counts differ after round trip")
	}
}

func TestSerializeDetectsCorruption(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip a payload byte: the checksum must catch it.
	raw[len(raw)/2] ^= 0xff
	if _, err := ReadTrace(bytes.NewReader(raw)); err == nil {
		t.Error("corrupted payload accepted")
	}
}

func TestSerializeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		bytes.Repeat([]byte{0}, 64),
		[]byte("NOPE" + string(bytes.Repeat([]byte{0}, 100))),
	}
	for i, c := range cases {
		if _, err := ReadTrace(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestSerializeTruncation(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{8, len(raw) / 2, len(raw) - 1} {
		if _, err := ReadTrace(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// dmaStream hand-assembles a checksummed single-thread stream holding one
// OpDMA with the given size followed by OpEnd — the encoder can never emit
// an out-of-range size, so the corrupt stream must be built byte by byte.
func dmaStream(t *testing.T, size uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(traceMagic)
	hdr := []int64{traceVersion, 1, 3, 30, 20, 256, 64, 2, 1}
	if err := binary.Write(&buf, binary.LittleEndian, hdr); err != nil {
		t.Fatal(err)
	}
	// Empty v2 phase-name table, then the stream length.
	for _, n := range []int64{0, 2} {
		if err := binary.Write(&buf, binary.LittleEndian, n); err != nil {
			t.Fatal(err)
		}
	}
	var v [binary.MaxVarintLen64]byte
	buf.WriteByte(byte(OpDMA))
	buf.Write(v[:binary.PutUvarint(v[:], 0)])    // src
	buf.Write(v[:binary.PutUvarint(v[:], 4096)]) // dst
	buf.Write(v[:binary.PutUvarint(v[:], size)])
	buf.WriteByte(byte(OpEnd))
	sum := crc64.Checksum(buf.Bytes(), crcTable)
	if err := binary.Write(&buf, binary.LittleEndian, sum); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSerializeRejectsOversizedDMA(t *testing.T) {
	// A valid checksum over a size that overflows uint32 must be rejected,
	// not silently truncated into a different workload.
	for _, size := range []uint64{1 << 32, 1<<32 + 4096, 1 << 63} {
		_, err := ReadTrace(bytes.NewReader(dmaStream(t, size)))
		if err == nil || !strings.Contains(err.Error(), "dma size") {
			t.Errorf("size %d: want dma size overflow error, got %v", size, err)
		}
	}
	// Boundary control: the largest encodable size still decodes.
	got, err := ReadTrace(bytes.NewReader(dmaStream(t, uint64(^uint32(0)))))
	if err != nil {
		t.Fatalf("max uint32 size rejected: %v", err)
	}
	if op := stream(t, got, 0)[0]; op.Kind != OpDMA || op.Size != ^uint32(0) {
		t.Errorf("decoded op = %+v", op)
	}
}

func TestSerializeEmptyStreams(t *testing.T) {
	rec := NewRecorder(2, tinyL1(), DefaultCosts())
	tr := rec.Finish(nil) // streams contain only OpEnd
	got := roundTrip(t, tr)
	if got.Ops() != tr.Ops() {
		t.Errorf("ops: %d vs %d", got.Ops(), tr.Ops())
	}
}

// TestSerializePropertyRandomWorkloads fuzzes the encoder with randomized
// access patterns and checks exact round-tripping.
func TestSerializePropertyRandomWorkloads(t *testing.T) {
	f := func(ops []uint32, threadsRaw uint8) bool {
		p := int(threadsRaw%4) + 1
		rec := NewRecorder(p, tinyL1(), DefaultCosts())
		for i, o := range ops {
			tp := rec.Thread(i % p)
			a := addr.FarBase + addr.Addr(o%1<<20)*8
			if o%5 == 0 {
				a = addr.NearBase + addr.Addr(o%1<<20)*8
			}
			switch o % 4 {
			case 0:
				tp.Load(a, 8)
			case 1:
				tp.Store(a, 8)
			case 2:
				tp.Compute(int64(o % 1000))
			case 3:
				tp.Atomic(a)
			}
		}
		tr := rec.Finish(nil)
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			return false
		}
		if got.Ops() != tr.Ops() || got.Count() != tr.Count() {
			return false
		}
		return sameOps(t, got, tr) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSerializeCompact(t *testing.T) {
	// Streaming access patterns should compress well below 16 bytes/op.
	rec := NewRecorder(1, tinyL1(), DefaultCosts())
	tp := rec.Thread(0)
	for i := 0; i < 10000; i++ {
		tp.Load(addr.FarBase+addr.Addr(i*64), 8)
	}
	tr := rec.Finish(nil)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	perOp := float64(buf.Len()) / float64(tr.Ops())
	if perOp > 8 {
		t.Errorf("%.1f bytes/op; delta encoding should be well under 8 for streams", perOp)
	}
}

// TestWriteToRejectsZeroThreads: the writer mirrors the reader's
// plausibility check. A zero-thread trace fails at write time with
// nothing written, instead of producing a stream ReadTrace rejects at
// the far end of the pipeline.
func TestWriteToRejectsZeroThreads(t *testing.T) {
	var buf bytes.Buffer
	n, err := (&Trace{Costs: DefaultCosts(), L1: tinyL1()}).WriteTo(&buf)
	if err == nil || !strings.Contains(err.Error(), "no threads") {
		t.Fatalf("WriteTo with zero threads: err = %v, want refusal", err)
	}
	if n != 0 || buf.Len() != 0 {
		t.Fatalf("WriteTo wrote %d bytes (reported %d) before refusing", buf.Len(), n)
	}
}

// TestRoundTripThreadBoundary covers the smallest serializable trace —
// one thread — right at the boundary the reader polices.
func TestRoundTripThreadBoundary(t *testing.T) {
	rec := NewRecorder(1, tinyL1(), DefaultCosts())
	rec.Thread(0).Load(addr.FarBase, 8)
	tr := rec.Finish(nil)
	got := roundTrip(t, tr)
	if got.Threads() != 1 {
		t.Fatalf("round-tripped %d streams, want 1", got.Threads())
	}
	if err := sameOps(t, got, tr); err != nil {
		t.Fatal(err)
	}
}

// taggedStream hand-assembles a checksummed single-thread stream whose one
// op carries the given raw tag byte — the writer can never emit reserved
// bits, so exercising the reader's rejection needs a byte-level stream.
func taggedStream(t *testing.T, tag byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(traceMagic)
	hdr := []int64{traceVersion, 1, 3, 30, 20, 256, 64, 2, 1}
	if err := binary.Write(&buf, binary.LittleEndian, hdr); err != nil {
		t.Fatal(err)
	}
	// Empty v2 phase-name table, then the one-op stream length.
	for _, n := range []int64{0, 1} {
		if err := binary.Write(&buf, binary.LittleEndian, n); err != nil {
			t.Fatal(err)
		}
	}
	buf.WriteByte(tag)
	sum := crc64.Checksum(buf.Bytes(), crcTable)
	if err := binary.Write(&buf, binary.LittleEndian, sum); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSerializeRejectsReservedTagBits: a stream setting either reserved
// flag bit is rejected even under a valid checksum, so the bits stay free
// for a future format revision. The same op without the bits decodes.
func TestSerializeRejectsReservedTagBits(t *testing.T) {
	for _, bits := range []byte{0x40, 0x80, 0xc0} {
		_, err := ReadTrace(bytes.NewReader(taggedStream(t, byte(OpEnd)|bits)))
		if err == nil || !strings.Contains(err.Error(), "reserved tag bits") {
			t.Errorf("tag bits %#x: want reserved-bit rejection, got %v", bits, err)
		}
	}
	got, err := ReadTrace(bytes.NewReader(taggedStream(t, byte(OpEnd))))
	if err != nil {
		t.Fatalf("control stream rejected: %v", err)
	}
	if op := stream(t, got, 0)[0]; op.Kind != OpEnd {
		t.Errorf("decoded op = %+v, want OpEnd", op)
	}
}

// TestDecodeErrorSections: every decode failure is a *DecodeError naming
// the broken section and a byte offset inside the stream, so a torn or
// corrupted file is diagnosable from the error text alone.
func TestDecodeErrorSections(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	seed := buf.Bytes()

	corrupt := func(at int, v uint64) []byte {
		mut := bytes.Clone(seed)
		putLE64(mut[at:], v)
		refreshChecksum(mut)
		return mut
	}
	const (
		offThreads   = 4 + 8*8 // hdr[8]
		offNameCount = 4 + 9*8 // v2 phase-name count
		offOpCount   = 4 + 10*8
	)
	cases := []struct {
		name    string
		raw     []byte
		section string
		offset  int64
	}{
		{"empty stream", nil, "stream", 0},
		{"truncated below checksum", seed[:5], "stream", 5},
		{"checksum mismatch", func() []byte {
			mut := bytes.Clone(seed)
			mut[len(mut)/2] ^= 0xff
			return mut
		}(), "checksum", int64(len(seed) - 8)},
		{"bad magic", func() []byte {
			mut := bytes.Clone(seed)
			mut[0] = 'X'
			refreshChecksum(mut)
			return mut
		}(), "header", 0},
		{"implausible thread count", corrupt(offThreads, 1<<19), "header", offThreads},
		{"implausible phase-name count", corrupt(offNameCount, 1<<13), "phase table", offNameCount},
		{"implausible op count", corrupt(offOpCount, 1<<33), "thread 0 ops", offOpCount},
		{"torn ops body", func() []byte {
			// Cut the last op byte and graft a fresh checksum: the CRC
			// gate passes and decoding fails inside a thread section.
			torn := bytes.Clone(seed[:len(seed)-9])
			torn = append(torn, make([]byte, 8)...)
			refreshChecksum(torn)
			return torn
		}(), "thread 2 ops", -1},
	}
	for _, tc := range cases {
		_, err := ReadTrace(bytes.NewReader(tc.raw))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Errorf("%s: error %v is not a *DecodeError", tc.name, err)
			continue
		}
		if de.Section != tc.section {
			t.Errorf("%s: section %q, want %q (err: %v)", tc.name, de.Section, tc.section, err)
		}
		if tc.offset >= 0 && de.Offset != tc.offset {
			t.Errorf("%s: offset %d, want %d (err: %v)", tc.name, de.Offset, tc.offset, err)
		}
		if tc.offset < 0 && (de.Offset <= 0 || de.Offset > int64(len(tc.raw))) {
			t.Errorf("%s: offset %d out of stream bounds", tc.name, de.Offset)
		}
		if !strings.Contains(err.Error(), "at byte") {
			t.Errorf("%s: error text %q lacks the byte offset", tc.name, err)
		}
	}
}

// TestReadTraceNamesItsInput: the v2 reader checks the magic before the
// checksum, so a v3 file is named as v3 — pointing at the reader that opens
// it — and not as a torn v2 stream; a v2 stream that really is torn or
// corrupted still reads as one.
func TestReadTraceNamesItsInput(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()
	v3, err := EncodeColumnar(tr)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(v2)
	flipped[len(flipped)/2] ^= 0x10
	cases := []struct {
		name    string
		raw     []byte
		section string
		says    []string
	}{
		{"v3 file", v3, "header", []string{"v3", "trace.Open", "OpenBytes"}},
		{"truncated v2 stream", v2[:len(v2)/2], "checksum", []string{"torn or corrupted"}},
		{"v2 stream with one byte flipped", flipped, "checksum", []string{"torn or corrupted"}},
	}
	for _, tc := range cases {
		_, err := ReadTrace(bytes.NewReader(tc.raw))
		var de *DecodeError
		if !errors.As(err, &de) || de.Section != tc.section {
			t.Errorf("%s: %v, want a DecodeError in %q", tc.name, err, tc.section)
			continue
		}
		for _, s := range tc.says {
			if !strings.Contains(err.Error(), s) {
				t.Errorf("%s: %q does not say %q", tc.name, err, s)
			}
		}
	}
}

// TestDigestStability: Digest is a pure function of the serialized bytes —
// stable across calls, sensitive to any op change. Since the digest is
// memoized on the (immutable-by-contract) Trace, sensitivity is asserted
// through a fresh Trace header over the mutated decoded streams; the
// original keeps returning its memoized fingerprint.
func TestDigestStability(t *testing.T) {
	tr := sampleTrace(t)
	d1, err := tr.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := tr.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digest not stable: %#x != %#x", d1, d2)
	}
	dec := decoded(t, tr)
	dec.Streams[0][0].Gap++
	mutated := &Trace{Streams: dec.Streams, L1: tr.L1, Costs: tr.Costs, PhaseNames: tr.PhaseNames}
	d3, err := mutated.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("digest unchanged after op mutation")
	}
	if d4, _ := tr.Digest(); d4 != d1 {
		t.Fatalf("memoized digest changed under the caller: %#x != %#x", d4, d1)
	}
}
