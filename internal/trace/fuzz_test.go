package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"testing"
)

// fuzzSeedTraces builds a few small valid traces covering every op kind,
// so the fuzzer starts from inputs that reach deep into the decoder.
func fuzzSeedTraces(t testing.TB) [][]byte {
	t.Helper()
	traces := []*Trace{
		{
			Streams: [][]Op{{{Kind: OpEnd}}},
			Costs:   DefaultCosts(),
			L1:      L1Geometry{Capacity: 2048, LineSize: 64, Ways: 2},
		},
		{
			Streams: [][]Op{
				{
					{Kind: OpGap, Gap: 12},
					{Kind: OpAccess, Addr: 0x1000},
					{Kind: OpAccess, Addr: 0x1040, Write: true, Gap: 3},
					{Kind: OpAtomic, Addr: 0x2000},
					{Kind: OpBarrier},
					{Kind: OpEnd},
				},
				{
					{Kind: OpDMA, Addr: 0x1000, Addr2: 0x8000, Size: 4096},
					{Kind: OpDMAWait},
					{Kind: OpBarrier},
					{Kind: OpEnd},
				},
			},
			Costs: DefaultCosts(),
			L1:    L1Geometry{Capacity: 2048, LineSize: 64, Ways: 2},
		},
	}
	var out [][]byte
	for _, tr := range traces {
		var b bytes.Buffer
		if _, err := tr.WriteTo(&b); err != nil {
			t.Fatalf("seed trace: %v", err)
		}
		out = append(out, b.Bytes())
	}
	return out
}

// FuzzReadTrace asserts the decoder's contract on arbitrary input: it
// returns an error or a trace, never panics, never claims success on
// a stream it cannot round-trip, and agrees with the reader that decoded
// into []Op on which is which (see requireReadsAsBefore).
func FuzzReadTrace(f *testing.F) {
	for _, seed := range readTraceCorpus(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireReadsAsBefore(t, "fuzz", data)
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if v := binary.LittleEndian.Uint64(data[4:]); v != traceVersion {
			t.Fatalf("accepted a version %d stream", v)
		}
		// A successfully decoded trace must serialize and decode again
		// to the same stream shape.
		var b bytes.Buffer
		if _, err := tr.WriteTo(&b); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		tr2, err := ReadTrace(&b)
		if err != nil {
			t.Fatalf("round-trip of accepted trace failed: %v", err)
		}
		if err := sameOps(t, tr2, tr); err != nil {
			t.Fatalf("round-trip changed the trace: %v", err)
		}
	})
}

// refreshChecksum rewrites the trailing CRC so a mutated body still passes
// the checksum gate.
func refreshChecksum(raw []byte) {
	payload := raw[:len(raw)-8]
	sum := crc64.Checksum(payload, crcTable)
	for i := 0; i < 8; i++ {
		raw[len(raw)-8+i] = byte(sum >> (8 * i))
	}
}

// TestReadTraceRejectsHugeCounts pins the allocation bounds: headers
// announcing more threads or ops than the payload could possibly hold are
// rejected before any large allocation.
func TestReadTraceRejectsHugeCounts(t *testing.T) {
	for _, seed := range fuzzSeedTraces(t) {
		// hdr[8] (thread count) lives at bytes 4+8*8 .. 4+9*8.
		mut := bytes.Clone(seed)
		putLE64(mut[4+8*8:], 1<<19)
		refreshChecksum(mut)
		if _, err := ReadTrace(bytes.NewReader(mut)); err == nil {
			t.Fatal("huge thread count accepted")
		}
		// The first stream length follows the header.
		mut = bytes.Clone(seed)
		putLE64(mut[4+9*8:], 1<<33)
		refreshChecksum(mut)
		if _, err := ReadTrace(bytes.NewReader(mut)); err == nil {
			t.Fatal("huge op count accepted")
		}
	}
}

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
