package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

// encodeColumnar is the test-side helper: encode tr and open the bytes.
func encodeColumnar(t testing.TB, tr *Trace) (*Columnar, []byte) {
	t.Helper()
	data, err := EncodeColumnar(tr)
	if err != nil {
		t.Fatalf("EncodeColumnar: %v", err)
	}
	col, err := OpenBytes(data)
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	return col, data
}

// cursorOps drains a cursor into a slice, failing the test on a decode
// error.
func cursorOps(t testing.TB, cur Cursor) []Op {
	t.Helper()
	var ops []Op
	for cur.Next() {
		ops = append(ops, cur.Cur)
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("cursor: %v", err)
	}
	return ops
}

// sortishTrace records a trace shaped like the sorting workloads the
// format is tuned for: line-aligned sequential accesses in both windows,
// compute gaps drawn from a few distinct cost sums, alternating loads and
// stores, occasional barriers and DMA.
func sortishTrace(t testing.TB, threads, opsPerThread int) *Trace {
	t.Helper()
	rec := NewRecorder(threads, tinyL1(), DefaultCosts())
	gaps := []int64{180, 200, 220, 200, 180, 4}
	for tid := 0; tid < threads; tid++ {
		tp := rec.Thread(tid)
		for i := 0; i < opsPerThread; i += 32 {
			// A burst of streaming far loads, then a burst of near
			// stores — the run structure L1 filtering leaves behind.
			for j := 0; j < 16; j++ {
				tp.Compute(gaps[(i+j)%len(gaps)])
				tp.Load(addr.FarBase+addr.Addr(tid<<24+(i+j)*64), 8)
			}
			for j := 0; j < 15; j++ {
				tp.Compute(gaps[(i+j)%len(gaps)])
				tp.Store(addr.NearBase+addr.Addr(tid<<20+((i+j)%1024)*64), 8)
			}
			tp.Atomic(addr.NearBase + addr.Addr(tid<<20))
			if i%512 == 480 {
				tp.DMA(addr.FarBase+addr.Addr(tid<<24+i*64),
					addr.NearBase+addr.Addr(tid<<20), 4096)
				tp.DMAWait()
				tp.Barrier()
			}
		}
		tp.Barrier()
	}
	return rec.Finish(nil)
}

// TestColumnarRoundTrip pins the core contract: every op stream read
// through a columnar cursor equals the decoded stream, Decode reproduces
// the trace, and the digest is the v2 digest.
func TestColumnarRoundTrip(t *testing.T) {
	for _, tr := range []*Trace{sampleTrace(t), sortishTrace(t, 3, 600)} {
		col, _ := encodeColumnar(t, tr)
		if err := col.Verify(); err != nil {
			t.Fatalf("Verify: %v", err)
		}
		if err := col.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		if col.Threads() != tr.Threads() || col.Ops() != tr.Ops() {
			t.Fatalf("shape: %d/%d threads, %d/%d ops",
				col.Threads(), tr.Threads(), col.Ops(), tr.Ops())
		}
		wantD, err := tr.Digest()
		if err != nil {
			t.Fatalf("Digest: %v", err)
		}
		gotD, _ := col.Digest()
		if gotD != wantD {
			t.Fatalf("digest %016x != v2 digest %016x", gotD, wantD)
		}
		want := decoded(t, tr)
		for tid := range want.Streams {
			got := cursorOps(t, col.CursorAt(tid))
			if len(got) != len(want.Streams[tid]) {
				t.Fatalf("thread %d: %d ops, want %d", tid, len(got), len(want.Streams[tid]))
			}
			for i := range got {
				if got[i] != want.Streams[tid][i] {
					t.Fatalf("thread %d op %d: %+v != %+v", tid, i, got[i], want.Streams[tid][i])
				}
			}
		}
		dec, err := col.Decode()
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if dec.Ops() != tr.Ops() || dec.Count() != tr.Count() {
			t.Fatalf("Decode shape mismatch")
		}
		if dec.L1 != tr.L1 || dec.Costs != tr.Costs {
			t.Fatalf("Decode metadata mismatch")
		}
	}
}

// TestColumnarOpenFile exercises the mmap path end to end: write, Open,
// iterate, Close.
func TestColumnarOpenFile(t *testing.T) {
	tr := sortishTrace(t, 2, 400)
	data, err := EncodeColumnar(tr)
	if err != nil {
		t.Fatalf("EncodeColumnar: %v", err)
	}
	path := filepath.Join(t.TempDir(), "t.nmt3")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	col, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer col.Close()
	if col.Size() != int64(len(data)) {
		t.Fatalf("Size %d != %d", col.Size(), len(data))
	}
	if err := sameOps(t, col.AsTrace(), tr); err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestLoadSniffsFormat pins trace.Load's magic sniffing: the same logical
// trace loads from either serialization with one digest.
func TestLoadSniffsFormat(t *testing.T) {
	tr := sampleTrace(t)
	dir := t.TempDir()
	v2p, v3p := filepath.Join(dir, "a.nmt"), filepath.Join(dir, "a.nmt3")
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v2p, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := EncodeColumnar(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v3p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(v2p, concurrent)
	if err != nil {
		t.Fatalf("Load v2: %v", err)
	}
	if _, ok := s2.(*Trace); !ok {
		t.Fatalf("Load v2 returned %T", s2)
	}
	s3, err := Load(v3p, concurrent)
	if err != nil {
		t.Fatalf("Load v3: %v", err)
	}
	col, ok := s3.(*Columnar)
	if !ok {
		t.Fatalf("Load v3 returned %T", s3)
	}
	defer col.Close()
	d2, _ := s2.Digest()
	d3, _ := s3.Digest()
	if d2 != d3 {
		t.Fatalf("digest differs across serializations: %016x != %016x", d2, d3)
	}
}

// TestCursorAllocs is the zero-allocation bound for the replay hot path:
// a full columnar iteration — every op of every thread — must allocate
// nothing.
func TestCursorAllocs(t *testing.T) {
	tr := sortishTrace(t, 2, 512)
	col, _ := encodeColumnar(t, tr)
	var sink uint64
	avg := testing.AllocsPerRun(10, func() {
		for tid := 0; tid < col.Threads(); tid++ {
			cur := col.CursorAt(tid)
			for cur.Next() {
				sink += cur.Cur.Addr
			}
			if cur.Err() != nil {
				t.Fatal("cursor failed")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("columnar iteration allocates %.1f times per run, want 0", avg)
	}
	_ = sink
}

// TestColumnarSmaller is the compression acceptance bound: on a
// sort-shaped trace the columnar encoding must be at least 20% smaller
// than the v2 stream.
func TestColumnarSmaller(t *testing.T) {
	tr := sortishTrace(t, 4, 4096)
	var v2 bytes.Buffer
	if _, err := tr.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	v3, err := EncodeColumnar(tr)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(v3)) / float64(v2.Len()); ratio > 0.8 {
		t.Fatalf("v3 is %d bytes, v2 %d: ratio %.3f, want <= 0.8", len(v3), v2.Len(), ratio)
	}
}

// TestColumnarDigestProperty: for random recorded workloads, the v3
// footer digest always equals the v2 digest of the same logical trace —
// the property the content-addressed store depends on.
func TestColumnarDigestProperty(t *testing.T) {
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
		data, err := EncodeColumnar(tr)
		if err != nil {
			return false
		}
		col, err := OpenBytes(data)
		if err != nil {
			return false
		}
		if err := col.Verify(); err != nil {
			return false
		}
		want, err := tr.Digest()
		if err != nil {
			return false
		}
		got, _ := col.Digest()
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestColumnarValidateParity pins Validate's semantic checks against the
// decoded validator: an unterminated stream and a barrier mismatch are
// rejected with the same classes of error *Trace.Validate reports.
func TestColumnarValidateParity(t *testing.T) {
	unterminated := &Trace{
		Streams: [][]Op{{{Kind: OpAccess, Addr: uint64(addr.FarBase)}}},
		Costs:   DefaultCosts(),
		L1:      tinyL1(),
	}
	col, _ := encodeColumnar(t, unterminated)
	if err := col.Validate(); err == nil {
		t.Fatal("Validate accepted an unterminated stream")
	}

	mismatch := &Trace{
		Streams: [][]Op{
			{{Kind: OpBarrier}, {Kind: OpEnd}},
			{{Kind: OpEnd}},
		},
		Costs: DefaultCosts(),
		L1:    tinyL1(),
	}
	col, _ = encodeColumnar(t, mismatch)
	if err := col.Validate(); err == nil {
		t.Fatal("Validate accepted a barrier mismatch")
	}

	badAddr := &Trace{
		Streams: [][]Op{{{Kind: OpAccess, Addr: 0x1000}, {Kind: OpEnd}}},
		Costs:   DefaultCosts(),
		L1:      tinyL1(),
	}
	col, _ = encodeColumnar(t, badAddr)
	if err := col.Validate(); err == nil {
		t.Fatal("Validate accepted an out-of-window address")
	}
}

// TestColumnarSections sanity-checks the stat surface: five sections per
// thread, 64-byte aligned, in file order.
func TestColumnarSections(t *testing.T) {
	tr := sampleTrace(t)
	col, _ := encodeColumnar(t, tr)
	secs := col.Sections()
	if len(secs) != col.Threads()*numCols {
		t.Fatalf("%d sections, want %d", len(secs), col.Threads()*numCols)
	}
	prevEnd := int64(0)
	for _, s := range secs {
		if s.Offset%columnarAlign != 0 {
			t.Fatalf("section %+v misaligned", s)
		}
		if s.Offset < prevEnd {
			t.Fatalf("section %+v overlaps previous end %d", s, prevEnd)
		}
		prevEnd = s.Offset + s.Bytes
	}
}

// overlong rewrites v2 stream raw so its first thread's first op carries its
// gap as an overlong varint, or a zero one behind tagHasGap where it had
// none: the same ops, in bytes WriteV2 never writes. hdr is the header's
// length. It returns nil when that thread has no op to rewrite.
func overlong(raw []byte, hdr int) []byte {
	at := hdr + 8 // the first thread's first tag, after its op count
	if binary.LittleEndian.Uint64(raw[hdr:]) == 0 {
		return nil
	}
	out := bytes.Clone(raw[:at+1])
	rest := raw[at+1:]
	if out[at]&tagHasGap == 0 {
		out[at] |= tagHasGap
	} else {
		n := 1
		for rest[n-1] >= 0x80 {
			n++
		}
		out = append(out, rest[:n]...)
		out[len(out)-1] |= 0x80
		rest = rest[n:]
	}
	out = append(append(out, 0x00), rest...)
	refreshChecksum(out)
	return out
}

// TestFoldedPayloadCRC holds every kind of image to one reference: a
// recording, a canonical and a non-canonical v2 read, an opened file and an
// in-memory one, a hand-built trace, and an opened file sealed again, for
// recordings and for the hand-built corpus, valid or not. Asked nothing
// first, each answers Digest with the sequential writer's checksum, Segments
// and CheckPayload (under a fork-join) with a footer whose payload CRC —
// summed per block, folded — is crc64.Checksum of the image before it; and
// Count, Tally and NearBlind are what the validate-only walk over the
// decoded ops finds. Only a non-canonical read walks its image as it seals.
func TestFoldedPayloadCRC(t *testing.T) {
	dir := t.TempDir()
	check := func(name string, ops *Trace, src Source) {
		t.Helper()
		wantSeen, wantVerdict := refStreamsValidate(ops)
		_, wantDigest, err := refStreamsWriteV2(ops)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		col := columnsOf(src)
		if d, err := col.Digest(); err != nil || d != wantDigest {
			t.Fatalf("%s: Digest %#x (%v), the sequential writer's checksum %#x", name, d, err, wantDigest)
		}
		segs, err := col.Segments()
		if err != nil {
			t.Fatalf("%s: Segments: %v", name, err)
		}
		image := bytes.Join(segs, nil)
		payload, footer := image[:len(image)-footerSize], image[len(image)-footerSize:]
		if got, want := binary.LittleEndian.Uint64(footer[40:]), crc64.Checksum(payload, crcTable); got != want {
			t.Errorf("%s: footer payload CRC %#x, crc64 of the payload %#x", name, got, want)
		}
		if err := col.CheckPayload(concurrent); err != nil {
			t.Errorf("%s: CheckPayload: %v", name, err)
		}
		barriers, dmas, waits, cycles := col.Tally()
		got := footprint{counts: col.Count(), near: wantSeen.near, barriers: barriers, dmas: dmas, waits: waits, cycles: cycles}
		if got != wantSeen || col.NearBlind() != (wantVerdict == nil && !wantSeen.near) || fmt.Sprint(col.Validate()) != fmt.Sprint(wantVerdict) {
			t.Errorf("%s: footprint %+v near-blind %v (Validate %v), the reference walk over the ops %+v (%v)",
				name, got, col.NearBlind(), col.Validate(), wantSeen, wantVerdict)
		}
	}
	kinds := func(name string, build func() *Trace) {
		t.Helper()
		ops := build()
		if ops.Streams == nil {
			ops = decoded(t, ops)
		}
		check(name+"/source", ops, build())
		var v2 bytes.Buffer
		if _, err := build().WriteTo(&v2); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hdr, err := headerV2(ops)
		if err != nil {
			t.Fatal(err)
		}
		for _, read := range []struct {
			name  string
			raw   []byte
			walks int
		}{{"canonical v2 read", v2.Bytes(), 0}, {"non-canonical v2 read", overlong(v2.Bytes(), len(hdr)), 1}} {
			if read.raw == nil {
				continue
			}
			var tr *Trace
			if walks, laned := countWalks(func() { tr, err = decodeTrace(read.raw, concurrent) }); err != nil || walks != read.walks || laned != read.walks {
				t.Fatalf("%s/%s: %v, %d walks (%d with lanes) as it sealed, want %d", name, read.name, err, walks, laned, read.walks)
			}
			check(name+"/"+read.name, ops, tr)
		}
		image, err := EncodeColumnar(build())
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "t.nmt3")
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		opened, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer opened.Close()
		check(name+"/opened", ops, opened)
		inMemory, err := OpenBytes(image)
		if err != nil {
			t.Fatal(err)
		}
		check(name+"/OpenBytes", ops, inMemory)
		sealed, err := Seal(opened)
		if err != nil {
			t.Fatal(err)
		}
		check(name+"/sealed from an opened file", ops, sealed)
	}
	kinds("recording", func() *Trace { return sampleTrace(t) })
	kinds("recording of 4 threads", func() *Trace { return digestTrace(4, 300) })
	for _, c := range builtCorpus() {
		if tr := c.build(); len(tr.Streams) > 0 && len(tr.PhaseNames) <= maxPhaseNames { // no file holds the rest
			kinds("hand-built "+c.name, c.build)
		}
	}
}
