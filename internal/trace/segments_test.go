package trace_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/addr"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// v2Read is src written as a v2 stream and read back: columns the v2 reader
// sealed.
func v2Read(t testing.TB, src *trace.Trace) *trace.Trace {
	t.Helper()
	var v2 bytes.Buffer
	if _, err := src.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadTrace(&v2)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// writeBack writes image to a file in dir, opens it and returns what the
// opened file writes.
func writeBack(t testing.TB, dir string, image []byte) []byte {
	t.Helper()
	path := filepath.Join(dir, "back.nmt3")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	col, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	var b bytes.Buffer
	if _, err := col.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// requireSegmentLayout holds col's segments to the layout its section table
// names: the head up to thread 0's first column, one segment per thread from
// its first column to the next thread's (the last one's to the section
// table), and the tail, the table and the footer. A sealed image's thread
// segment is its own allocation: its capacity is no more than the thread's
// columns plus their padding.
func requireSegmentLayout(t testing.TB, name string, col *trace.Columnar, sealed bool) {
	t.Helper()
	segs, err := col.Segments()
	if err != nil {
		t.Fatalf("%s: Segments: %v", name, err)
	}
	threads := col.Threads()
	if len(segs) != threads+2 {
		t.Fatalf("%s: %d segments for %d threads, want head, threads and tail", name, len(segs), threads)
	}
	first := make([]int64, threads)
	columns := make([]int64, threads)
	for _, sec := range col.Sections() {
		if sec.Column == "tags" {
			first[sec.Thread] = sec.Offset
		}
		columns[sec.Thread] += sec.Bytes
	}
	tableOff := col.Size() - 64 - int64(threads)*96
	if int64(len(segs[0])) != first[0] {
		t.Errorf("%s: head is %d bytes, thread 0's first column is at %d", name, len(segs[0]), first[0])
	}
	for tid := range threads {
		next := tableOff
		if tid+1 < threads {
			next = first[tid+1]
		}
		seg := segs[1+tid]
		if int64(len(seg)) != next-first[tid] {
			t.Errorf("%s: thread %d's segment is %d bytes, its columns span [%d,%d)", name, tid, len(seg), first[tid], next)
		}
		if limit := columns[tid] + 5*63; sealed && int64(cap(seg)) > limit {
			t.Errorf("%s: thread %d's segment holds %d bytes, past its %d column bytes plus padding", name, tid, cap(seg), columns[tid])
		}
	}
	if tail := segs[len(segs)-1]; int64(len(tail)) != col.Size()-tableOff {
		t.Errorf("%s: tail is %d bytes, the table and footer %d", name, len(tail), col.Size()-tableOff)
	}
}

// TestSealedImageIsItsSegments: however a trace was sealed — recorded, read
// from v2, built by hand, or re-sealed from an opened file's cursors — its
// segments put together are the file: WriteTo writes EncodeColumnar's bytes,
// an opened copy of the file writes them back, and each segment spans the
// part of the file the section table gives it.
func TestSealedImageIsItsSegments(t *testing.T) {
	dir := t.TempDir()
	rec := recordSample(goEach)
	image, err := trace.EncodeColumnar(rec)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := trace.OpenBytes(image)
	if err != nil {
		t.Fatal(err)
	}
	hand := &trace.Trace{L1: trace.DefaultL1(), Costs: trace.DefaultCosts(), PhaseNames: []string{"p"}, Streams: [][]trace.Op{
		{{Kind: trace.OpPhase}, {Kind: trace.OpAccess, Addr: uint64(addr.FarBase) + 64, Gap: 3}, {Kind: trace.OpBarrier}, {Kind: trace.OpEnd}},
		{{Kind: trace.OpBarrier}, {Kind: trace.OpEnd}},
		{{Kind: trace.OpDMA, Addr: uint64(addr.FarBase), Addr2: uint64(addr.NearBase), Size: 4096}, {Kind: trace.OpBarrier}, {Kind: trace.OpEnd}},
	}}
	cases := []struct {
		name string
		src  trace.Source
	}{
		{"recording", rec},
		{"v2 read", v2Read(t, rec)},
		{"hand-built", hand},
		{"sealed from an opened file", opened},
	}
	for _, tc := range cases {
		col, err := trace.Seal(tc.src)
		if err != nil {
			t.Fatalf("%s: Seal: %v", tc.name, err)
		}
		var written bytes.Buffer
		if n, err := col.WriteTo(&written); err != nil || n != col.Size() {
			t.Fatalf("%s: WriteTo wrote %d of %d bytes: %v", tc.name, n, col.Size(), err)
		}
		encoded, err := trace.EncodeColumnar(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written.Bytes(), encoded) {
			t.Errorf("%s: WriteTo's %d bytes differ from EncodeColumnar's %d", tc.name, written.Len(), len(encoded))
		}
		if back := writeBack(t, dir, written.Bytes()); !bytes.Equal(back, encoded) {
			t.Errorf("%s: the opened file writes back %d bytes, not the %d written", tc.name, len(back), len(encoded))
		}
		requireSegmentLayout(t, tc.name, col, true)
	}
	requireSegmentLayout(t, "opened file", opened, false)
}

// TestFoldedPayloadCRC: the footer's payload CRC — per-segment sums under a
// fork-join, folded — is crc64.Checksum of the image before its footer, for
// recordings, v2 reads and hand-built traces of every shape the generator
// draws, and CheckPayload agrees with it.
func TestFoldedPayloadCRC(t *testing.T) {
	table := crc64.MakeTable(crc64.ECMA)
	check := func(name string, tr *trace.Trace) {
		t.Helper()
		col := tr.Columns()
		col.ValidatePar(goEach) // the first walk finishes the footer, summing under goEach
		segs, err := col.Segments()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		image := bytes.Join(segs, nil)
		payload, footer := image[:len(image)-64], image[len(image)-64:]
		if got, want := binary.LittleEndian.Uint64(footer[40:]), crc64.Checksum(payload, table); got != want {
			t.Errorf("%s: footer payload CRC %#x, crc64 of the payload %#x", name, got, want)
		}
		if err := col.CheckPayload(goEach); err != nil {
			t.Errorf("%s: CheckPayload: %v", name, err)
		}
	}
	rec := recordSample(goEach)
	check("recording", rec)
	check("v2 read", v2Read(t, rec))
	for seed := range 40 {
		r := xrand.New(uint64(seed) + 1)
		s, threads, shape := r.Uint64(), uint8(r.Intn(64)), uint8(seed)
		name := fmt.Sprintf("seed=%d/threads=%d/shape=%d", s, threads, shape)
		hand := builderCase(s, threads, shape)
		check(name+"/v2 read", v2Read(t, hand))
		check(name+"/hand-built", hand)
	}
}
