package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"os"
	"path/filepath"
	"testing"

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

// TestColumnarSmaller is the compression acceptance bound: on a
// sort-shaped trace the columnar encoding must be at least 20% smaller
// than the v2 stream.
func TestColumnarSmaller(t *testing.T) {
	tr := sortishTrace(4, 4096, nil)
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
	tr := sampleTrace()
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

// TestColumnarDigestProperty: the v3 footer's content digest is the v2
// digest of the same logical trace, for every corpus case a file holds:
// the property the content-addressed store depends on.
func TestColumnarDigestProperty(t *testing.T) {
	for _, c := range corpusRefs(t) {
		if !c.refs.holdable {
			continue
		}
		image, err := EncodeColumnar(c.fresh())
		want, derr := c.fresh().Digest()
		if err != nil || derr != nil {
			t.Fatalf("%s: EncodeColumnar: %v, Digest: %v", c.name, err, derr)
		}
		if got := binary.LittleEndian.Uint64(image[len(image)-footerSize+32:]); got != want {
			t.Fatalf("%s: footer digest %#x, the v2 digest %#x", c.name, got, want)
		}
	}
}

// TestFoldedPayloadCRC: however a trace was sealed (recorded, built by hand
// and sealed on first use, or read from v2), the payload CRC its footer
// carries, summed per block and folded, is crc64.Checksum of every byte
// before the footer. The long builder cases have blocks to fold.
func TestFoldedPayloadCRC(t *testing.T) {
	cases := longCorpus()
	for _, c := range corpusRefs(t) {
		if c.refs.holdable {
			cases = append(cases, c.corpusCase)
		}
	}
	for _, c := range cases {
		var v2 bytes.Buffer
		if _, err := c.fresh().WriteTo(&v2); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		read, err := decodeTrace(v2.Bytes(), concurrent)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, tr := range []*Trace{c.fresh(), read} {
			segs, err := tr.Columns().Segments()
			if err != nil {
				t.Fatalf("%s: Segments: %v", c.name, err)
			}
			image := bytes.Join(segs, nil)
			payload, footer := image[:len(image)-footerSize], image[len(image)-footerSize:]
			if got, want := binary.LittleEndian.Uint64(footer[40:]), crc64.Checksum(payload, crcTable); got != want {
				t.Fatalf("%s: footer payload CRC %#x, crc64 of the payload %#x", c.name, got, want)
			}
		}
	}
}

// TestLoadSniffsFormat pins Load's magic sniffing: a v2 file loads as a
// *Trace and a v3 file as a *Columnar, with one digest.
func TestLoadSniffsFormat(t *testing.T) {
	for _, c := range corpusRefs(t) {
		if !c.refs.holdable {
			continue
		}
		dir := t.TempDir() // a file of its own: rewriting one in place flushes it
		v2p, v3p := filepath.Join(dir, "a.nmt"), filepath.Join(dir, "a.nmt3")
		if err := os.WriteFile(v2p, c.refs.v2, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(v3p, c.refs.image, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Load(v2p, concurrent)
		if _, ok := s2.(*Trace); err != nil || !ok {
			t.Fatalf("%s: Load v2 returned %T, %v", c.name, s2, err)
		}
		s3, err := Load(v3p, nil)
		col, ok := s3.(*Columnar)
		if err != nil || !ok {
			t.Fatalf("%s: Load v3 returned %T, %v", c.name, s3, err)
		}
		d2, _ := s2.Digest()
		d3, _ := s3.Digest()
		if err := col.Close(); err != nil || d2 != d3 {
			t.Fatalf("%s: digest differs across serializations: %016x != %016x (Close: %v)", c.name, d2, d3, err)
		}
	}
}
