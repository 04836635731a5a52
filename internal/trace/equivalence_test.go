package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// Every encoding of a recording is the same logical trace: the promise
// replay rests on. Each test below holds one kind of image of every corpus
// case, whichever entry point is called first, to references computed once
// per case from its ops (corpusRefs): the same digest and v2 bytes as the
// sequential writer, the same v3 bytes as the two-pass encoder, the same
// verdict and footprint as the validate-only walk, and the same ops.

// TestBuiltTraceMatchesItsStreams holds the trace itself: a recording, or a
// hand-built trace nothing has asked yet, answering out of the columns it
// seals itself into on first use. It also keeps the corpus honest: the
// corpus reaches both sides of Validate.
func TestBuiltTraceMatchesItsStreams(t *testing.T) {
	verdicts := map[bool]int{}
	for _, c := range corpusRefs(t) {
		verdicts[c.refs.verdict == nil]++
	}
	if verdicts[true] < 20 || verdicts[false] < 20 {
		t.Fatalf("corpus too tame: %d traces pass Validate, %d fail it", verdicts[true], verdicts[false])
	}
	requireKindOfCorpus(t, "source")
}

// TestSerializeRoundTrip holds a v2 file read back through Load: a canonical
// stream, whose answers come with the read itself.
func TestSerializeRoundTrip(t *testing.T) { requireKindOfCorpus(t, "v2 read") }

// TestSerializePropertyRandomWorkloads holds a v2 stream in bytes WriteV2Par
// never writes (thread 0's first gap as an overlong varint, or a zero one
// behind tagHasGap) for every case, the random workloads generatedTrace
// draws among them: the read walks its image once, as it seals.
func TestSerializePropertyRandomWorkloads(t *testing.T) {
	requireKindOfCorpus(t, "non-canonical v2 read")
}

// TestColumnarOpenFile holds a v3 file mapped by Load, closed after each use.
func TestColumnarOpenFile(t *testing.T) { requireKindOfCorpus(t, "opened file") }

// TestColumnarRoundTrip holds a v3 image opened in memory by OpenBytes.
func TestColumnarRoundTrip(t *testing.T) { requireKindOfCorpus(t, "OpenBytes") }

// TestSealedImageIsItsSegments holds an opened file sealed again from its
// cursors: its own segments, laid out as its section table says.
func TestSealedImageIsItsSegments(t *testing.T) {
	requireKindOfCorpus(t, "sealed from an opened file")
}

// TestFusedWalkMatchesSeparateWalks holds the long builder cases, threads of
// thousands of ops whose fused walk carries its lanes past one block and its
// raw chunks past one, as every kind of image: whether a fused entry point
// (Digest, WriteV2Par, Verify) or a separate one (Validate, Count) walks it
// first, the answers are the references'.
func TestFusedWalkMatchesSeparateWalks(t *testing.T) {
	for _, c := range longCorpus() {
		checkImageKinds(t, c.name, c.tr)
	}
}

// CheckImageKinds is checkImageKinds for the external test package, which
// records the harness's algorithms.
var CheckImageKinds = checkImageKinds

// firstCalls are the entry points that may walk an image first: whichever
// does leaves behind what the others answer from.
var firstCalls = []string{"Digest", "Validate", "WriteV2Par", "Verify", "Count"}

// imageRefs are the references for one trace, computed from its ops.
type imageRefs struct {
	ops               *Trace // the trace's ops, as streams
	v2, image         []byte // the sequential writer's and the two-pass encoder's bytes
	digest            uint64
	writeErr, verdict error
	seen              footprint
	holdable          bool   // a file can hold the trace
	noncanon          []byte // v2 bytes WriteV2Par never writes (overlong), or nil
}

func newImageRefs(tr *Trace) (*imageRefs, error) {
	r := &imageRefs{ops: tr}
	if tr.cols != nil {
		var err error
		if r.ops, err = tr.Columns().Decode(); err != nil {
			return nil, err
		}
	}
	r.v2, r.digest, r.writeErr = refWriteV2(r.ops)
	r.seen, r.verdict = refValidate(r.ops, nil)
	r.image, _ = refEncodeColumnar(r.ops)
	r.holdable = r.writeErr == nil && len(r.ops.PhaseNames) <= maxPhaseNames
	if r.holdable {
		hdr := appendHeader(traceMagic, traceVersion, r.ops.Costs, r.ops.L1, len(r.ops.Streams), r.ops.PhaseNames)
		r.noncanon = overlong(r.v2, len(hdr))
	}
	return r, nil
}

// refCase is a corpus case with its references.
type refCase struct {
	corpusCase
	refs *imageRefs
}

var corpusOnce struct {
	sync.Once
	cases []refCase
	err   error
}

// corpusRefs is the corpus with each case's references, computed once per
// package run and shared by every test that holds an image kind to them. A
// case whose references fail fails every such test, not only the first.
func corpusRefs(t *testing.T) []refCase {
	t.Helper()
	corpusOnce.Do(func() {
		for _, c := range corpus() {
			r, err := newImageRefs(c.tr)
			if err != nil {
				corpusOnce.err = fmt.Errorf("%s: decoding: %w", c.name, err)
				return
			}
			corpusOnce.cases = append(corpusOnce.cases, refCase{c, r})
		}
	})
	if corpusOnce.err != nil {
		t.Fatal(corpusOnce.err)
	}
	return corpusOnce.cases
}

// imageKinds are the trace itself, a canonical and a non-canonical v2 read,
// an opened file and an in-memory one, and an opened file sealed again.
var imageKinds = []string{"source", "v2 read", "non-canonical v2 read", "opened file", "OpenBytes", "sealed from an opened file"}

// readWalks is how many walks reading an image of a kind takes, for the
// kinds whose reads are counted: a canonical v2 read has its answers from
// the read itself.
var readWalks = map[string]int{"v2 read": 0, "non-canonical v2 read": 1}

// opener returns what opens a fresh image of the named kind of c, or nil
// where that kind cannot hold it.
func opener(t *testing.T, kind string, c corpusCase, r *imageRefs) func() (Source, error) {
	file := func(name string, data []byte) string {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	switch {
	case kind == "source":
		return func() (Source, error) { return c.fresh(), nil }
	case !r.holdable:
		return nil
	case kind == "v2 read":
		path := file("t.nmt", r.v2)
		return func() (Source, error) { return Load(path, concurrent) }
	case kind == "non-canonical v2 read" && r.noncanon != nil:
		return func() (Source, error) { return ReadTrace(bytes.NewReader(r.noncanon)) }
	case kind == "opened file":
		path := file("t.nmt3", r.image)
		return func() (Source, error) { return Load(path, nil) }
	case kind == "OpenBytes":
		return func() (Source, error) { return OpenBytes(r.image) }
	case kind == "sealed from an opened file":
		return func() (Source, error) {
			col, err := OpenBytes(r.image)
			if err != nil {
				return nil, err
			}
			return Seal(col)
		}
	}
	return nil
}

// requireKindOfCorpus holds the named kind of image of every corpus case to
// the case's references.
func requireKindOfCorpus(t *testing.T, kind string) {
	t.Helper()
	if !slices.Contains(imageKinds, kind) {
		t.Fatalf("no image kind %q", kind)
	}
	for _, c := range corpusRefs(t) {
		checkImageKind(t, c.corpusCase, c.refs, kind)
	}
}

// checkImageKinds holds every kind of image of tr, a recording or a
// hand-built trace nothing has asked yet, to the references over its ops. It
// reports whether tr passes Validate.
func checkImageKinds(t *testing.T, name string, tr *Trace) bool {
	t.Helper()
	r, err := newImageRefs(tr)
	if err != nil {
		t.Fatalf("%s: decoding: %v", name, err)
	}
	for _, kind := range imageKinds {
		checkImageKind(t, corpusCase{name, tr}, r, kind)
	}
	return r.verdict == nil
}

// checkImageKind opens a fresh image of the kind for each entry point, has
// that entry point walk it first, and holds the image to r.
func checkImageKind(t *testing.T, c corpusCase, r *imageRefs, kind string) {
	t.Helper()
	open := opener(t, kind, c, r)
	if open == nil {
		return
	}
	for _, first := range firstCalls {
		what := fmt.Sprintf("%s/%s/%s first", c.name, kind, first)
		var src Source
		var err error
		walks, laned := countWalks(func() { src, err = open() })
		if want, counted := readWalks[kind]; err != nil || counted && (walks != want || laned != want) {
			t.Fatalf("%s: %v, %d walks (%d with lanes) reading it, want %d", what, err, walks, laned, readWalks[kind])
		}
		col := columnsOf(src)
		switch first {
		case "Digest":
			src.Digest()
		case "Validate":
			col.ValidatePar(concurrent)
		case "WriteV2Par":
			WriteV2Par(io.Discard, src, concurrent)
		case "Verify":
			col.Verify()
		case "Count":
			col.Count()
		}
		checkImage(t, what, r, src)
		col.Close()
	}
}

// checkImage holds src, one image of a trace, to the trace's references.
func checkImage(t *testing.T, what string, r *imageRefs, src Source) {
	t.Helper()
	col := columnsOf(src)
	if d, err := src.Digest(); fmt.Sprint(err) != fmt.Sprint(r.writeErr) || d != r.digest {
		t.Fatalf("%s: Digest = %#x, %v; the sequential writer's checksum %#x, %v", what, d, err, r.digest, r.writeErr)
	}
	wantBlind := r.verdict == nil && !r.seen.near
	barriers, dmas, waits, cycles := col.Tally()
	seen := footprint{counts: col.Count(), near: r.seen.near, barriers: barriers, dmas: dmas, waits: waits, cycles: cycles}
	if err := src.Validate(); fmt.Sprint(err) != fmt.Sprint(r.verdict) || seen != r.seen || src.NearBlind() != wantBlind {
		t.Fatalf("%s: Validate %v, footprint %+v, near-blind %v; the validate-only walk %v, %+v, %v",
			what, err, seen, src.NearBlind(), r.verdict, r.seen, wantBlind)
	}
	var v2 bytes.Buffer
	if n, err := WriteV2Par(&v2, src, concurrent); fmt.Sprint(err) != fmt.Sprint(r.writeErr) || n != int64(v2.Len()) || !bytes.Equal(v2.Bytes(), r.v2) {
		t.Fatalf("%s: WriteV2Par wrote %d bytes (reported %d), %v; the sequential writer %d, %v", what, v2.Len(), n, err, len(r.v2), r.writeErr)
	}
	if !r.holdable {
		refusal := map[bool]string{true: "no threads", false: "phase names"}[r.writeErr != nil]
		if _, err := EncodeColumnar(src); err == nil || !strings.Contains(err.Error(), refusal) {
			t.Fatalf("%s: EncodeColumnar: %v, want a refusal mentioning %q", what, err, refusal)
		}
		return
	}
	if err := col.Verify(); err != nil {
		t.Fatalf("%s: Verify: %v", what, err)
	}
	if err := col.CheckPayload(concurrent); err != nil {
		t.Fatalf("%s: CheckPayload: %v", what, err)
	}
	var written bytes.Buffer
	encoded, err := EncodeColumnar(src)
	if _, werr := col.WriteTo(&written); err != nil || werr != nil || !bytes.Equal(encoded, r.image) || !bytes.Equal(written.Bytes(), r.image) || col.Size() != int64(len(r.image)) {
		t.Fatalf("%s: EncodeColumnar (%v) and WriteTo (%v) of %d bytes equal the two-pass encoder's %d: %v, %v",
			what, err, werr, col.Size(), len(r.image), bytes.Equal(encoded, r.image), bytes.Equal(written.Bytes(), r.image))
	}
	requireSegmentLayout(t, what, col)
	total := 0
	for tid, want := range r.ops.Streams {
		var got []Op
		for cur := src.CursorAt(tid); cur.Next(); {
			got = append(got, cur.Cur)
		}
		if total += len(want); !slices.Equal(got, want) || src.ThreadOps(tid) != len(want) {
			t.Fatalf("%s: thread %d: ThreadOps %d and a cursor of %d ops, want the %d recorded", what, tid, src.ThreadOps(tid), len(got), len(want))
		}
	}
	if src.Threads() != len(r.ops.Streams) || src.Ops() != total || !slices.Equal(src.PhaseTable(), r.ops.PhaseNames) || src.Geometry() != r.ops.L1 || src.CostModel() != r.ops.Costs {
		t.Fatalf("%s: %d threads, %d ops, or the header fields moved", what, src.Threads(), src.Ops())
	}
}

// requireSegmentLayout holds col's segments to the layout its section table
// names: the head up to thread 0's first column, one segment per thread from
// its first column to the next thread's (the last one's to the section
// table), and the tail, the table and the footer. A sealed image's thread
// segment is its own allocation: its capacity is no more than the thread's
// columns plus their padding.
func requireSegmentLayout(t *testing.T, what string, col *Columnar) {
	t.Helper()
	segs, _ := col.Segments()
	threads, secs := col.Threads(), col.Sections()
	cuts := []int64{0}
	for tid := range threads {
		cuts = append(cuts, secs[tid*numCols].Offset)
	}
	cuts = append(cuts, col.Size()-footerSize-int64(threads)*tableEntrySize, col.Size())
	if len(segs) != threads+2 {
		t.Fatalf("%s: %d segments for %d threads, want head, threads and tail", what, len(segs), threads)
	}
	for i, seg := range segs {
		if int64(len(seg)) != cuts[i+1]-cuts[i] {
			t.Fatalf("%s: segment %d is %d bytes, the section table gives it [%d,%d)", what, i, len(seg), cuts[i], cuts[i+1])
		}
	}
	for tid := 0; col.sealed && tid < threads; tid++ {
		var columns int64
		for _, s := range secs[tid*numCols : (tid+1)*numCols] {
			columns += s.Bytes
		}
		if seg := segs[1+tid]; int64(cap(seg)) > columns+numCols*(columnarAlign-1) {
			t.Fatalf("%s: thread %d's segment holds %d bytes, past its %d column bytes plus padding", what, tid, cap(seg), columns)
		}
	}
}

// overlong rewrites v2 stream raw so its first thread's first op carries its
// gap as an overlong varint, or a zero one behind tagHasGap where it had
// none: the same ops, in bytes WriteV2Par never writes. hdr is the header's
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
