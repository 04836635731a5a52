package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"repro/internal/addr"
	"repro/internal/xrand"
)

// TestCRC64Combine: folding the CRCs of 1…8 parts left to right, each with
// its length, gives the CRC of the concatenation — zero-length parts, one-
// byte parts and parts around the slicing-8 threshold included.
func TestCRC64Combine(t *testing.T) {
	r := xrand.New(64)
	for round := 0; round < 2000; round++ {
		data := make([]byte, r.Intn(600))
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		requireCombine(t, data, r.Uint64())
	}
	big := make([]byte, 1<<20+17) // a length with many bits set, like a real lane's
	for i := range big {
		big[i] = byte(i * 131)
	}
	requireCombine(t, big, 0x5a5a5a5a)
	if got := crc64Combine(0, 0, 0); got != 0 {
		t.Fatalf("combine of two empty messages = %#x", got)
	}
}

// requireCombine cuts data into 1…8 parts at points drawn from cuts and
// folds their independent CRCs.
func requireCombine(t testing.TB, data []byte, cuts uint64) {
	t.Helper()
	parts := int(cuts%8) + 1
	want, got, streamed := crc64.Checksum(data, crcTable), uint64(0), uint64(0)
	rest := data
	for p := 0; p < parts; p++ {
		n := len(rest)
		if p < parts-1 {
			cuts = cuts*6364136223846793005 + 1442695040888963407
			n = int(cuts>>33) % (len(rest) + 1) // 0 and len(rest) both happen
		}
		part := rest[:n]
		rest = rest[n:]
		got = crc64Combine(got, crc64.Checksum(part, crcTable), int64(len(part)))
		streamed = crc64.Update(streamed, crcTable, part)
	}
	if got != want || streamed != want {
		t.Fatalf("%d bytes in %d parts: combined %#x, streamed %#x, whole %#x", len(data), parts, got, streamed, want)
	}
}

// TestChecksumAcrossSegments: checksum of a message cut into segments — empty
// ones, one-byte ones, ones longer than a block, joins on and off the block
// boundaries — is crc64.Checksum of the message, sequentially and under a
// fork-join that runs its bodies in reverse.
func TestChecksumAcrossSegments(t *testing.T) {
	r := xrand.New(65)
	data := make([]byte, 3*crcBlock+crcBlock/3)
	for i := range data {
		data[i] = byte(r.Uint64())
	}
	want := crc64.Checksum(data, crcTable)
	reversed := func(n int, body func(int)) {
		for i := n - 1; i >= 0; i-- {
			body(i)
		}
	}
	for round := range 20 {
		var segs [][]byte
		for rest := data; len(rest) > 0; {
			var n int
			switch r.Intn(4) {
			case 0:
				n = r.Intn(2)
			case 1: // a join one byte either side of the next block boundary, or on it
				done := len(data) - len(rest)
				n = (done/crcBlock+1)*crcBlock - done - 1 + r.Intn(3)
			default:
				n = r.Intn(crcBlock + crcBlock/2)
			}
			n = max(0, min(n, len(rest)))
			segs, rest = append(segs, rest[:n]), rest[n:]
		}
		for _, fj := range []ForkJoin{nil, reversed} {
			if got := checksum(fj, segs...); got != want {
				t.Fatalf("round %d: %d segments sum to %#x, the whole to %#x", round, len(segs), got, want)
			}
		}
	}
}

// FuzzCRC64Combine hands the message and the cut points to the fuzzer.
// scripts/check.sh runs it briefly as a smoke.
func FuzzCRC64Combine(f *testing.F) {
	f.Add([]byte(nil), uint64(0))
	f.Add([]byte("NMTR"), uint64(1))
	f.Add(bytes.Repeat([]byte{0xff, 0, 0x80}, 100), uint64(7))
	f.Fuzz(func(t *testing.T, data []byte, cuts uint64) { requireCombine(t, data, cuts) })
}

// verdictCase is one trace image and how it got that way.
type verdictCase struct {
	name  string
	image []byte
}

// resealColumnar recomputes both footer checksums, so a mutated image gets
// past them and fails — if it does — in the walk.
func resealColumnar(image []byte) {
	f := len(image) - footerSize
	binary.LittleEndian.PutUint64(image[f+40:], crc64.Checksum(image[:f], crcTable))
	binary.LittleEndian.PutUint64(image[f+48:], crc64.Checksum(image[f:f+48], crcTable))
}

// corruptedImages derives, from one small valid image, the inputs the fused
// walk must judge as the separate walks did: every truncation, every byte
// flipped (checksums left stale, and recomputed), a footer claiming another
// trace's digest, and the structurally broken traces Validate exists for.
func corruptedImages(t *testing.T) []verdictCase {
	t.Helper()
	_, image := encodeColumnar(t, sampleTrace(t))
	cases := []verdictCase{{"intact", image}}
	for n := 0; n < len(image); n++ {
		cases = append(cases, verdictCase{fmt.Sprintf("truncated to %d", n), image[:n]})
	}
	masks := []byte{0x01, 0x80, 0xff}
	if testing.Short() {
		masks = masks[2:]
	}
	for i := range image {
		for _, mask := range masks {
			mut := bytes.Clone(image)
			mut[i] ^= mask
			cases = append(cases, verdictCase{fmt.Sprintf("byte %d ^ %#x", i, mask), mut})
			if i < len(image)-footerSize {
				resealed := bytes.Clone(mut)
				resealColumnar(resealed)
				cases = append(cases, verdictCase{fmt.Sprintf("byte %d ^ %#x, resealed", i, mask), resealed})
			}
		}
	}
	forged := bytes.Clone(image)
	binary.LittleEndian.PutUint64(forged[len(forged)-footerSize+32:], 0xfeedface)
	resealColumnar(forged)
	cases = append(cases, verdictCase{"forged footer digest", forged})

	far := uint64(addr.FarBase)
	end := Op{Kind: OpEnd}
	for _, tc := range []struct {
		name    string
		streams [][]Op
	}{
		{"barrier disagreement", [][]Op{{{Kind: OpBarrier}, end}, {end}}},
		{"interior OpEnd", [][]Op{{end, {Kind: OpAccess, Addr: far}, end}}},
		{"interior OpEnd, last", [][]Op{{{Kind: OpAccess, Addr: far}, end, end}}},
		{"unterminated", [][]Op{{{Kind: OpAccess, Addr: far}}}},
		{"empty thread", [][]Op{{end}, {}}},
		{"stray access", [][]Op{{{Kind: OpAccess, Addr: 0x40}, end}}},
		{"stray atomic", [][]Op{{{Kind: OpAtomic, Addr: far - 64}, end}}},
		{"stray dma source", [][]Op{{{Kind: OpDMA, Addr: 1, Addr2: far, Size: 8}, end}}},
		{"stray dma target", [][]Op{{{Kind: OpDMA, Addr: far, Addr2: 1, Size: 8}, end}}},
		{"phase out of range", [][]Op{{{Kind: OpPhase, Addr: 1}, end}}},
		{"two failures, thread order", [][]Op{
			{{Kind: OpBarrier}, end},
			{{Kind: OpAccess, Addr: 0x40}, {Kind: OpPhase, Addr: 9}, end},
			{end, end},
		}},
		{"failure then more ops", [][]Op{{{Kind: OpAccess, Addr: 0x40, Gap: 7}, {Kind: OpAccess, Addr: far, Write: true}, {Kind: OpBarrier}, end}}},
	} {
		tr := &Trace{Streams: tc.streams, L1: tinyL1(), Costs: DefaultCosts(), PhaseNames: []string{"only"}}
		_, broken := encodeColumnar(t, tr)
		cases = append(cases, verdictCase{tc.name, broken})
	}
	return cases
}

// TestFusedWalkKeepsBothVerdicts: on corrupted and structurally broken
// images, Verify and Validate each say what the old Verify (its own digest
// walk) and the old validate-only walk said — whichever is called first, so
// the verdict one memoizes for the other is the other's own.
func TestFusedWalkKeepsBothVerdicts(t *testing.T) {
	opened, rejected := 0, map[string]int{}
	for _, tc := range corruptedImages(t) {
		open := func() *Columnar {
			col, err := OpenBytes(bytes.Clone(tc.image))
			if err != nil {
				return nil
			}
			return col
		}
		if open() == nil {
			continue // Open is unchanged: nothing walks
		}
		opened++
		wantSeen, wantValidate := refValidate(open())
		wantVerify := refVerify(open())
		if wantValidate != nil {
			rejected["validate"]++
		}
		if wantVerify != nil {
			rejected["verify"]++
		}
		if (wantValidate == nil) != (wantVerify == nil) {
			rejected["one only"]++
		}

		for _, verifyFirst := range []bool{true, false} {
			col := open()
			var gotVerify, gotValidate error
			if verifyFirst {
				gotVerify, gotValidate = col.Verify(), col.Validate()
			} else {
				gotValidate, gotVerify = col.Validate(), col.Verify()
			}
			if fmt.Sprint(gotVerify) != fmt.Sprint(wantVerify) {
				t.Fatalf("%s (Verify first: %v): Verify says %v, the two-walk Verify said %v", tc.name, verifyFirst, gotVerify, wantVerify)
			}
			if fmt.Sprint(gotValidate) != fmt.Sprint(wantValidate) {
				t.Fatalf("%s (Verify first: %v): Validate says %v, the validate-only walk said %v", tc.name, verifyFirst, gotValidate, wantValidate)
			}
			if col.Count() != wantSeen.counts || col.NearBlind() != (wantValidate == nil && !wantSeen.near) {
				t.Fatalf("%s (Verify first: %v): footprint %+v near-blind %v, the validate-only walk found %+v",
					tc.name, verifyFirst, col.Count(), col.NearBlind(), wantSeen)
			}
		}

		// WriteV2Par rides the same walk and stops only where the sequential
		// writer stopped: on a decode failure.
		var want, got bytes.Buffer
		_, wantErr := refWriteV2(&want, open())
		col := open()
		_, gotErr := WriteV2Par(&got, col, nil)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || (wantErr == nil && !bytes.Equal(got.Bytes(), want.Bytes())) {
			t.Fatalf("%s: WriteV2Par fails with %v and %d bytes, the sequential writer with %v and %d", tc.name, gotErr, got.Len(), wantErr, want.Len())
		}
		if gotValidate := col.Validate(); fmt.Sprint(gotValidate) != fmt.Sprint(wantValidate) {
			t.Fatalf("%s: Validate after WriteV2Par says %v, the validate-only walk said %v", tc.name, gotValidate, wantValidate)
		}
	}
	t.Logf("%d images opened, rejections %v", opened, rejected)
	// The corpus must reach every combination, or the test proves little.
	if opened < 1000 || rejected["validate"] < 100 || rejected["verify"] < 100 || rejected["one only"] < 10 {
		t.Fatalf("corpus too tame: %d images opened, rejections %v", opened, rejected)
	}
}

// v1Stream rewrites a v2 stream with an empty phase table as the v1 stream
// of the same ops: version 1, no table. The reader took these until the
// decoded trace went; now they are the corpus's must-reject.
func v1Stream(t testing.TB, v2 []byte) []byte {
	t.Helper()
	const nameCount = 4 + 9*8
	if binary.LittleEndian.Uint64(v2[nameCount:]) != 0 {
		t.Fatal("v1 had no phase names")
	}
	v1 := append(bytes.Clone(v2[:nameCount]), v2[nameCount+8:]...)
	putLE64(v1[4:], 1)
	refreshChecksum(v1)
	return v1
}

// readTraceCorpus is FuzzReadTrace's seed corpus: small valid streams
// covering every op kind, a v1 stream (refused), and the ways they tear.
func readTraceCorpus(t testing.TB) [][]byte {
	t.Helper()
	var corpus [][]byte
	seeds := fuzzSeedTraces(t)
	seeds = append(seeds, v1Stream(t, seeds[1]))
	for _, seed := range seeds {
		corpus = append(corpus, seed)
		// A checksum-valid but body-corrupted variant, so the fuzzer
		// crosses the CRC gate from the start.
		mut := bytes.Clone(seed)
		if len(mut) > 20 {
			mut[16] ^= 0xff
			refreshChecksum(mut)
			corpus = append(corpus, mut)
		}
		// Truncated prefixes model torn partial writes (a crashed
		// recorder, an interrupted copy): cuts inside the checksum tail,
		// mid-ops, mid-header, and the empty stream.
		for _, cut := range []int{len(seed) - 3, len(seed) / 2, 9, 0} {
			if cut >= 0 && cut < len(seed) {
				corpus = append(corpus, bytes.Clone(seed[:cut]))
			}
		}
		// A torn prefix whose checksum was refreshed crosses the CRC gate
		// and fails deeper, in a body section cut mid-record.
		if len(seed) > 24 {
			torn := bytes.Clone(seed[:len(seed)-9])
			torn = append(torn, make([]byte, 8)...)
			refreshChecksum(torn)
			corpus = append(corpus, torn)
		}
	}
	return append(corpus, threadFaults(t)...)
}

// concurrent is a fork-join that runs every body on a goroutine of its own.
func concurrent(n int, body func(int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			body(i)
		}()
	}
	wg.Wait()
}

// reversed is a fork-join that runs the bodies last to first.
func reversed(n int, body func(int)) {
	for i := n - 1; i >= 0; i-- {
		body(i)
	}
}

// requireReadsAsBefore holds ReadTrace to the reader that decoded into []Op:
// the same streams accepted, the same DecodeError — section, offset and
// cause — for the rest; and for an accepted one, sealed columns and no
// streams, byte-equal to the columns the old reader's ops seal to (footer
// digest included: the adopted checksum is the canonical digest, even for a
// stream with overlong varints), and Validate's memoized verdict
// the validate-only walk's over those columns. The v2 read Load runs under a
// fork-join is held to the same, under a concurrent one and a reversed one.
func requireReadsAsBefore(t testing.TB, name string, raw []byte) {
	t.Helper()
	want, wantErr := refReadTrace(bytes.NewReader(raw))
	var wantImage []byte
	var wantDigest uint64
	var wantSeen footprint
	var wantVerdict error
	if wantErr == nil {
		var err error
		if _, wantDigest, err = refWritePayload(new(bytes.Buffer), want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if wantImage, err = EncodeColumnar(want); err != nil {
			t.Fatalf("%s: sealing the []Op reader's trace: %v", name, err)
		}
		reopened, err := OpenBytes(wantImage)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantSeen, wantVerdict = refValidate(reopened)
	}
	for _, reader := range []struct {
		name string
		read func() (*Trace, error)
	}{
		{"ReadTrace", func() (*Trace, error) { return ReadTrace(bytes.NewReader(raw)) }},
		{"concurrent", func() (*Trace, error) { return decodeTrace(raw, concurrent) }},
		{"reversed", func() (*Trace, error) { return decodeTrace(raw, reversed) }},
	} {
		got, gotErr := reader.read()
		if wantErr != nil || gotErr != nil {
			var w, g *DecodeError
			if !errors.As(wantErr, &w) || !errors.As(gotErr, &g) || w.Section != g.Section || w.Offset != g.Offset || wantErr.Error() != gotErr.Error() {
				t.Fatalf("%s: %s fails with %v, the []Op reader with %v", name, reader.name, gotErr, wantErr)
			}
			continue
		}
		if got.Streams != nil || got.Columns() == nil || !got.Columns().sealed {
			t.Fatalf("%s: %s must return sealed columns and no streams", name, reader.name)
		}
		gotImage, err := EncodeColumnar(got)
		if err != nil {
			t.Fatalf("%s: %s: EncodeColumnar: %v", name, reader.name, err)
		}
		if d, _ := got.Digest(); d != wantDigest || !bytes.Equal(gotImage, wantImage) {
			t.Fatalf("%s: %s: digest %016x, want %016x; columns equal to the old reader's sealed ops: %v",
				name, reader.name, d, wantDigest, bytes.Equal(gotImage, wantImage))
		}
		if fmt.Sprint(got.Validate()) != fmt.Sprint(wantVerdict) {
			t.Fatalf("%s: %s: Validate says %v, the validate-only walk over the same columns %v", name, reader.name, got.Validate(), wantVerdict)
		}
		if wantVerdict == nil && (got.Count() != wantSeen.counts || got.NearBlind() == wantSeen.near) {
			t.Fatalf("%s: %s: footprint %+v near-blind %v, the validate-only walk found %+v", name, reader.name, got.Count(), got.NearBlind(), wantSeen)
		}
	}
}

// threadFaults are v2 streams of four threads broken where only the thread
// order decides which failure is reported: threads 1 and 3 both broken (1
// wins) — thread 1 by a gap past 32 bits, which the framing scan steps over,
// thread 3 by a reserved tag bit, where the scan stops; a stream torn inside
// thread 2; and the last thread's op count past what the payload could hold.
// Each must fail the []Op reader in the thread it is named for, so
// requireReadsAsBefore holds every fork-join to that thread.
func threadFaults(t testing.TB) [][]byte {
	t.Helper()
	far := uint64(addr.FarBase)
	streams := make([][]Op, 4)
	for tid := range streams {
		// The first op's gap is a 5-byte varint whose last byte is 0x0f.
		streams[tid] = append(streams[tid], Op{Kind: OpGap, Gap: ^uint32(0)})
		for i := 0; i < 3+tid; i++ {
			streams[tid] = append(streams[tid], Op{Kind: OpAccess, Addr: far + uint64(tid<<12+i*64), Gap: uint32(i)})
		}
		streams[tid] = append(streams[tid], Op{Kind: OpDMA, Addr: far, Addr2: far + 4096, Size: 300}, Op{Kind: OpEnd})
	}
	var b bytes.Buffer
	tr := &Trace{Streams: streams, L1: tinyL1(), Costs: DefaultCosts()}
	if _, err := tr.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	intact := b.Bytes()
	hdr, err := headerV2(tr)
	if err != nil {
		t.Fatal(err)
	}
	starts, end := frameThreads(intact[:len(intact)-8], len(hdr), 4)
	if len(starts) != 4 || end != len(intact)-8 {
		t.Fatalf("framing the intact stream: starts %v, end %d of %d", starts, end, len(intact)-8)
	}
	var faults [][]byte
	broken := func(section string, edit func(raw []byte) []byte) {
		raw := edit(bytes.Clone(intact))
		refreshChecksum(raw)
		var de *DecodeError
		if _, err := refReadTrace(bytes.NewReader(raw)); !errors.As(err, &de) || de.Section != section {
			t.Fatalf("the []Op reader fails with %v, want a DecodeError in %q", err, section)
		}
		faults = append(faults, raw)
	}
	firstTag := func(tid int) int { return starts[tid] + 8 }
	broken("thread 1 ops", func(raw []byte) []byte {
		raw[firstTag(1)+5] = 0x1f
		raw[firstTag(3)] |= 0x40
		return raw
	})
	broken("thread 2 ops", func(raw []byte) []byte {
		return append(raw[:starts[3]-2], make([]byte, 8)...)
	})
	broken("thread 3 ops", func(raw []byte) []byte {
		putLE64(raw[starts[3]:], uint64(end-starts[3]))
		return raw
	})
	return faults
}

// TestFramingScanMatchesDecoder: for every tag byte, followed by varints of
// one byte and of two, the framing scan skips exactly the bytes
// opDecoder.thread consumes, or both refuse the op; and wherever the op is
// cut short, both refuse it.
func TestFramingScanMatchesDecoder(t *testing.T) {
	for tag := 0; tag < 256; tag++ {
		for _, varint := range [][]byte{{0x01}, {0x81, 0x00}} {
			p := binary.LittleEndian.AppendUint64(nil, 1)
			p = append(p, byte(tag))
			for i := 0; i < 5; i++ {
				p = append(p, varint...)
			}
			var r threadRead
			r.read(p, 0, 0, 0, 1)
			end := frameThread(p, 0)
			switch {
			case r.err != nil:
				if end != -1 || tagFields[tag] != -1 {
					t.Fatalf("tag %#x: the decoder refuses it (%v), the scan frames %d bytes (fields %d)", tag, r.err, end, tagFields[tag])
				}
				continue
			case end != r.end || end != 9+int(tagFields[tag])*len(varint):
				t.Fatalf("tag %#x, %d-byte varints: the decoder ends at %d, the scan at %d (fields %d)", tag, len(varint), r.end, end, tagFields[tag])
			}
			for cut := 9; cut < end; cut++ {
				var short threadRead
				short.read(p[:cut], 0, 0, 0, 1)
				if frameThread(p[:cut], 0) != -1 || short.err == nil {
					t.Fatalf("tag %#x cut at %d: the scan frames %d, the decoder says %v", tag, cut, frameThread(p[:cut], 0), short.err)
				}
			}
		}
	}
}

// TestReadTraceBornColumnar sweeps requireReadsAsBefore over the fuzz corpus
// and over every truncation and every flipped byte of its valid streams,
// each with a refreshed checksum so the damage is found by the decoder.
func TestReadTraceBornColumnar(t *testing.T) {
	var sample bytes.Buffer
	if _, err := sampleTrace(t).WriteTo(&sample); err != nil {
		t.Fatal(err)
	}
	corpus := append(readTraceCorpus(t), sample.Bytes(), v1Stream(t, sample.Bytes()))

	// The streams a writer never emits but the reader always took: a varint
	// longer than it needs to be, and a zero gap behind tagHasGap. Their
	// checksum is not their digest. Nor is it for an L1 ways field past 2^31
	// (byte 63's top bit is the field's bit 31) where an int is 32 bits wide
	// and narrows it; where an int holds it, that stream is canonical.
	seed := fuzzSeedTraces(t)[0] // one thread, one OpEnd
	body := seed[:len(seed)-9]
	for _, tc := range []struct {
		name  string
		ops   uint64
		bytes []byte
		wide  bool // sets bit 31 of the L1 ways field
	}{
		{"overlong gap", 1, []byte{byte(OpEnd) | tagHasGap, 0x85, 0x00}, false},
		{"zero gap", 1, []byte{byte(OpEnd) | tagHasGap, 0x00}, false},
		{"ways past 2^31", 1, []byte{byte(OpEnd)}, true},
		{"overlong delta", 2, []byte{byte(OpAccess), 0x80, 0x80, 0x00, byte(OpEnd)}, false},
		{"overlong phase", 2, []byte{byte(OpPhase), 0x80, 0x00, byte(OpEnd)}, false},
	} {
		name := tc.name
		raw := append(bytes.Clone(body), tc.bytes...)
		binary.LittleEndian.PutUint64(raw[len(body)-8:], tc.ops)
		if tc.wide {
			raw[63] |= 0x80
		}
		raw = append(raw, make([]byte, 8)...)
		refreshChecksum(raw)
		tr, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: the reader always accepted this: %v", name, err)
		}
		canon := tc.wide && strconv.IntSize == 64
		if d, _ := tr.Digest(); (d == binary.LittleEndian.Uint64(raw[len(raw)-8:])) != canon {
			t.Fatalf("%s: checksum adopted as the digest: %v, want %v", name, !canon, canon)
		}
		corpus = append(corpus, raw)
	}

	masks := []byte{0x01, 0x40, 0x80, 0xff}
	if testing.Short() {
		masks = masks[3:]
	}
	for i, raw := range corpus {
		name := fmt.Sprintf("corpus[%d]", i)
		requireReadsAsBefore(t, name, raw)
		if _, err := refReadTrace(bytes.NewReader(raw)); err != nil {
			continue
		}
		for cut := 0; cut < len(raw)-8; cut++ {
			torn := append(bytes.Clone(raw[:cut]), make([]byte, 8)...)
			requireReadsAsBefore(t, fmt.Sprintf("%s cut at %d", name, cut), raw[:cut])
			refreshChecksum(torn)
			requireReadsAsBefore(t, fmt.Sprintf("%s cut at %d, checksummed", name, cut), torn)
		}
		for at := 0; at < len(raw)-8; at++ {
			for _, mask := range masks {
				mut := bytes.Clone(raw)
				mut[at] ^= mask
				refreshChecksum(mut)
				requireReadsAsBefore(t, fmt.Sprintf("%s byte %d ^ %#x", name, at, mask), mut)
			}
		}
	}
}

// countWalks runs f and reports how many walks of a Columnar's threads it
// made, and how many of those carried lanes.
func countWalks(f func()) (walks, laned int) {
	walkHook = func(lanes bool) {
		walks++
		if lanes {
			laned++
		}
	}
	defer func() { walkHook = nil }()
	f()
	return walks, laned
}

// TestCounterCountsWhatFinishCounts: a recording that is only counted (the
// m1 and m3 rows) is never walked, and counts what the same recording
// finished counts, its trailing writebacks included.
func TestCounterCountsWhatFinishCounts(t *testing.T) {
	record := func(rec *Recorder) *Recorder {
		for tid := range rec.Threads() {
			tp := rec.Thread(tid)
			tp.Phase("mix")
			for i := range 2000 {
				tp.Load(addr.FarBase+addr.Addr(tid<<20+i*24), 8)
				tp.Store(addr.NearBase+addr.Addr(tid<<16+(i%300)*64), 8)
				if i%97 == 0 {
					tp.Atomic(addr.NearBase)
				}
				tp.Compare(2)
			}
			tp.DMA(addr.FarBase, addr.NearBase+4096, 512)
			tp.DMAWait()
			tp.Barrier()
		}
		return rec
	}
	want := record(NewRecorder(3, paperL1, DefaultCosts())).Finish(nil).Count()
	var got LevelCounts
	if walks, _ := countWalks(func() { got = record(NewCounter(3, paperL1, DefaultCosts())).Count() }); walks != 0 {
		t.Errorf("Recorder.Count: %d walks, want none", walks)
	}
	if got != want || got.NearWrites == 0 || got.Atomics == 0 {
		t.Errorf("Recorder.Count = %+v, want %+v", got, want)
	}
}

// TestRecordDigestIsFree counts walks at each boundary a trace crosses — by
// the walk hook, not a timer. The calls are the ones the callers make:
// harness.Record (Finish, Validate, Count), Supervisor.cellKeys and
// serve.Store.Put (Digest), DiskRecordCache (WriteTo; Open, ValidatePar,
// Count), handleUpload (Verify, Validate, Digest) and nmtrace convert.
func TestRecordDigestIsFree(t *testing.T) {
	use := func(src Source) { // everything a caller may ask once a trace is in
		src.Validate()
		src.Digest()
		src.NearBlind()
		switch s := src.(type) {
		case *Trace:
			s.Count()
		case *Columnar:
			s.Count()
		}
	}
	expect := func(what string, wantWalks, wantLaned int, f func()) {
		t.Helper()
		if walks, laned := countWalks(f); walks != wantWalks || laned != wantLaned {
			t.Fatalf("%s: %d walks, %d with lanes; want %d and %d", what, walks, laned, wantWalks, wantLaned)
		}
	}

	var rec *Trace
	expect("recording: sealed, then walked once with the digest's lanes aboard", 1, 1, func() {
		rec = digestTrace(4, 300)
		rec.Columns().ValidatePar(nil)
	})
	var v2, v3 bytes.Buffer
	expect("recording: digest, counts, its own image", 0, 0, func() {
		use(rec)
		if _, err := rec.Columns().WriteTo(&v3); err != nil {
			t.Fatal(err)
		}
	})
	expect("recording: its v2 stream", 1, 1, func() {
		if _, err := rec.WriteTo(&v2); err != nil {
			t.Fatal(err)
		}
	})
	expect("recording: finished and asked everything, no validation first", 1, 1, func() { use(digestTrace(2, 50)) })

	path := filepath.Join(t.TempDir(), "t.nmt3")
	if err := os.WriteFile(path, v3.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	expect("warm trace-cache hit: validate only, the footer's digest trusted", 1, 0, func() {
		col, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer col.Close()
		col.ValidatePar(nil)
		use(col.AsTrace())
	})
	expect("v3 upload: checksums and validation in one walk", 1, 1, func() {
		col, err := OpenBytes(v3.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Verify(); err != nil {
			t.Fatal(err)
		}
		use(col)
	})
	expect("v3 -> v2: encode and validate in one walk", 1, 1, func() {
		col, err := OpenBytes(v3.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		var back bytes.Buffer
		if _, err := WriteV2Par(&back, col, nil); err != nil || !bytes.Equal(back.Bytes(), v2.Bytes()) {
			t.Fatalf("v3 -> v2: %v, bytes equal: %v", err, bytes.Equal(back.Bytes(), v2.Bytes()))
		}
		use(col)
	})
	expect("v2 file: decoded, validated and put by the read itself", 0, 0, func() {
		tr, err := ReadTrace(bytes.NewReader(v2.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		use(tr)
		var again bytes.Buffer
		if _, err := tr.Columns().WriteTo(&again); err != nil || !bytes.Equal(again.Bytes(), v3.Bytes()) {
			t.Fatalf("v2 -> v3: %v, bytes equal: %v", err, bytes.Equal(again.Bytes(), v3.Bytes()))
		}
	})
	expect("hand-built trace: sealed and walked on first use, as a recording is", 1, 1, func() {
		built, err := rec.Columns().Decode()
		if err != nil {
			t.Fatal(err)
		}
		use(built)
	})
}
