package trace_test

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/addr"
	"repro/internal/harness"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/xrand"
)

// paperL1 is the paper's per-core 16KB 2-way data cache.
var paperL1 = trace.L1Geometry{Capacity: 16 * units.KiB, LineSize: 64, Ways: 2}

// requireMatchesReference is the differential every test here runs: the
// column builder's image of src must equal the reference encoder's, byte for
// byte, and must open, validate and verify.
func requireMatchesReference(t testing.TB, name string, src trace.Source) []byte {
	t.Helper()
	want, err := referenceEncodeColumnar(src)
	if err != nil {
		t.Fatalf("%s: reference encoder: %v", name, err)
	}
	got, err := trace.EncodeColumnar(src)
	if err != nil {
		t.Fatalf("%s: EncodeColumnar: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: builder image (%d bytes) differs from the reference (%d bytes) at byte %d",
			name, len(got), len(want), i)
	}
	col, err := trace.OpenBytes(got)
	if err != nil {
		t.Fatalf("%s: OpenBytes: %v", name, err)
	}
	if err := col.Verify(); err != nil {
		t.Fatalf("%s: Verify: %v", name, err)
	}
	if want := walkNearBlind(t, src); col.Validate() == nil && (src.NearBlind() != want || col.NearBlind() != want) {
		t.Fatalf("%s: NearBlind is %v on the source and %v on its opened image, a cursor walk says %v",
			name, src.NearBlind(), col.NearBlind(), want)
	}
	return got
}

// walkNearBlind decides near-blindness with nothing but a cursor and the
// address map: no access, atomic or DMA endpoint in the near window.
func walkNearBlind(t testing.TB, src trace.Source) bool {
	t.Helper()
	near := func(a uint64) bool { return addr.Addr(a) >= addr.NearBase }
	for tid := 0; tid < src.Threads(); tid++ {
		cur := src.CursorAt(tid)
		for cur.Next() {
			switch op := cur.Cur; op.Kind {
			case trace.OpAccess, trace.OpAtomic:
				if near(op.Addr) {
					return false
				}
			case trace.OpDMA:
				if near(op.Addr) || near(op.Addr2) {
					return false
				}
			}
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return true
}

// walkCounts tallies line transfers with nothing but a cursor and the
// address map: what a recording's LevelCounts must equal.
func walkCounts(t testing.TB, src trace.Source) trace.LevelCounts {
	t.Helper()
	var c trace.LevelCounts
	for tid := 0; tid < src.Threads(); tid++ {
		cur := src.CursorAt(tid)
		for cur.Next() {
			switch op := cur.Cur; {
			case op.Kind == trace.OpAtomic:
				c.Atomics++
			case op.Kind != trace.OpAccess:
			case addr.LevelOf(addr.Addr(op.Addr)) == addr.Near && op.Write:
				c.NearWrites++
			case addr.LevelOf(addr.Addr(op.Addr)) == addr.Near:
				c.NearReads++
			case op.Write:
				c.FarWrites++
			default:
				c.FarReads++
			}
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// requireSealedRecording checks what a born-columnar recording promises on
// top of the byte match: the recorder path (TP.emit into the builder) and
// the cursor path (EncodeColumnar over the decoded ops) seal to the same
// image; the counts its first walk found equal a cursor walk's; the digest
// that walk wrote is the decoded trace's; and the finished image verifies.
func requireSealedRecording(t *testing.T, name string, tr *trace.Trace) {
	t.Helper()
	if tr.Streams != nil || tr.Columns() == nil {
		t.Fatalf("%s: a recording must be sealed columns, not decoded streams", name)
	}
	image := requireMatchesReference(t, name, tr)
	dec, err := tr.Columns().Decode()
	if err != nil {
		t.Fatalf("%s: Decoded: %v", name, err)
	}
	if again := requireMatchesReference(t, name+" (decoded)", dec); !bytes.Equal(again, image) {
		t.Fatalf("%s: the recorder and EncodeColumnar of its decoded ops sealed different images", name)
	}
	if got, want := tr.Count(), walkCounts(t, tr); got != want {
		t.Fatalf("%s: counts %+v, a cursor walk counts %+v", name, got, want)
	}
	if got, want := dec.Count(), tr.Count(); got != want {
		t.Fatalf("%s: decoded Count %+v != sealed Count %+v", name, got, want)
	}
	d, err := tr.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := dec.Digest(); d != want {
		t.Fatalf("%s: sealed digest %016x != decoded digest %016x", name, d, want)
	}
	if err := tr.Columns().Verify(); err != nil {
		t.Fatalf("%s: Verify of the sealed image: %v", name, err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: Validate: %v", name, err)
	}
}

// TestBuilderMatchesReferenceOnAlgorithms records every algorithm the
// harness knows — the sorts, both k-means variants and the PEM sort — and
// holds each recording to the reference encoder.
func TestBuilderMatchesReferenceOnAlgorithms(t *testing.T) {
	w := harness.Workload{N: 1 << 12, Seed: 2015, Threads: 8, SP: 128 * units.KiB} // kmeans-sp pins 128KiB of points
	for _, name := range harness.AlgorithmNames() {
		alg := harness.Algorithm(name)
		res, err := harness.Record(alg, w)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		requireSealedRecording(t, name, res.Trace)
		// Only the far-memory baselines never reach the scratchpad.
		far := alg == harness.AlgGNUSort || alg == harness.AlgGNUExact || alg == harness.AlgKMeansFar
		if got := res.Trace.NearBlind(); got != far {
			t.Fatalf("%s: NearBlind = %v, want %v", alg, got, far)
		}
	}
}

// TestNearBlindSeesWhatLevelCountsMisses: the near-blind bit is exact where
// LevelCounts.Near() is not. Near() counts neither atomics nor DMA streams,
// so it reads zero for a thread that reaches the scratchpad only through the
// DMA engine or an atomic; the bit must not — in the recorder's builder, in
// the validation walk of an opened file, and on decoded streams alike.
func TestNearBlindSeesWhatLevelCountsMisses(t *testing.T) {
	far, near := addr.FarBase+1<<20, addr.NearBase+4096
	for _, tc := range []struct {
		name  string
		touch func(tp *trace.TP)
		blind bool
	}{
		{"far loads and stores", func(tp *trace.TP) {}, true},
		{"far atomic", func(tp *trace.TP) { tp.Atomic(far) }, true},
		{"far to far DMA", func(tp *trace.TP) { tp.DMA(far, far+8192, 4096); tp.DMAWait() }, true},
		{"near load", func(tp *trace.TP) { tp.Load(near, 8) }, false},
		{"near atomic", func(tp *trace.TP) { tp.Atomic(near) }, false},
		{"DMA into near", func(tp *trace.TP) { tp.DMA(far, near, 4096); tp.DMAWait() }, false},
		{"DMA out of near", func(tp *trace.TP) { tp.DMA(near, far, 4096); tp.DMAWait() }, false},
		{"empty DMA into near", func(tp *trace.TP) { tp.DMA(far, near, 0) }, false},
	} {
		// Every thread streams far memory; only the last one, and only once,
		// does what the case names.
		rec := trace.NewRecorder(3, trace.L1Geometry{Capacity: 256, LineSize: 64, Ways: 2}, trace.DefaultCosts())
		for tid := 0; tid < rec.Threads(); tid++ {
			tp := rec.Thread(tid)
			for i := 0; i < 100; i++ {
				tp.Load(addr.FarBase+addr.Addr(tid<<16+i*64), 8)
				tp.Store(addr.FarBase+addr.Addr(tid<<16+i*64), 8)
			}
			if tid == rec.Threads()-1 {
				tc.touch(tp)
			}
			tp.Barrier()
		}
		tr := rec.Finish(nil)
		requireSealedRecording(t, tc.name, tr) // the bit agrees across sealed, opened and decoded forms
		if tr.NearBlind() != tc.blind {
			t.Errorf("%s: NearBlind = %v, want %v", tc.name, tr.NearBlind(), tc.blind)
		}
		if !tc.blind && tc.name != "near load" && tr.Count().Near() != 0 {
			t.Errorf("%s: Count().Near() = %d; the case no longer shows the blind spot", tc.name, tr.Count().Near())
		}
	}

	// A file the validation walk rejects promises nothing.
	bad := &trace.Trace{L1: paperL1, Costs: trace.DefaultCosts(), Streams: [][]trace.Op{
		{{Kind: trace.OpBarrier}, {Kind: trace.OpEnd}}, {{Kind: trace.OpEnd}},
	}}
	image, err := trace.EncodeColumnar(bad)
	if err != nil {
		t.Fatal(err)
	}
	col, err := trace.OpenBytes(image)
	if err != nil {
		t.Fatal(err)
	}
	if col.Validate() == nil || col.NearBlind() {
		t.Errorf("barrier-mismatched file: Validate = %v, NearBlind = %v; want an error and false", col.Validate(), col.NearBlind())
	}
}

// builderCase generates one decoded trace aimed at the decisions the builder
// makes and the reference makes differently: where tag runs start and stop
// (around the 2/3 boundary, across chunk boundaries), how many distinct gaps
// there are and how their frequencies tie, which trailing zeros the
// addresses share and in which order the less aligned ones arrive. It is a
// pure function of its arguments, so a failing case is its argument tuple.
func builderCase(seed uint64, threads, shape uint8) *trace.Trace {
	r := xrand.New(seed)
	tr := &trace.Trace{
		L1:         trace.L1Geometry{Capacity: 2 * units.KiB, LineSize: units.Bytes(1) << (4 + r.Intn(4)), Ways: 2},
		Costs:      trace.DefaultCosts(),
		PhaseNames: []string{"scatter", "sort", "merge"},
	}
	// Each thread draws its own alignment, gap palette and run lengths, so
	// one trace seals threads under different shifts and dictionary sizes.
	tr.Streams = make([][]trace.Op, int(threads)%6+1)
	for t := range tr.Streams {
		align := uint([]int{0, 1, 6, 6, 6, 12, 20}[r.Intn(7)]) // trailing zeros most addresses share
		straggler := r.Intn(3) == 0                            // now and then one address is less aligned
		palette := []int{1, 3, 40, 130, 600}[r.Intn(5)]        // distinct gap values: 130+ needs 2-byte indices
		maxRun := []int{1, 2, 3, 4, 9, 200}[r.Intn(6)]
		length := []int{0, 1, 7, 300, 3000, 12000}[(int(shape)+t)%6] // 3000+ crosses several raw chunks

		address := func() uint64 {
			base := uint64(addr.FarBase)
			if r.Intn(3) == 0 {
				base = uint64(addr.NearBase)
			}
			a := base + uint64(r.Intn(1<<14))<<align
			if straggler && r.Intn(50) == 0 {
				a += uint64(1) << uint(r.Intn(int(align)+1))
			}
			return a
		}
		gap := func() uint32 {
			switch v := r.Intn(100); {
			case v < 25:
				return 0
			case v < 97:
				// A skewed draw from the palette: low values are hot, and
				// many values tie on frequency.
				i := r.Intn(palette)
				if r.Intn(2) == 0 {
					i = r.Intn(1 + i/8)
				}
				return uint32(1 + 7*i)
			case v < 99:
				return uint32(1 + r.Intn(1<<30))
			default:
				return math.MaxUint32
			}
		}
		var s []trace.Op
		for len(s) < length {
			var op trace.Op
			switch v := r.Intn(100); {
			case v < 45:
				op = trace.Op{Kind: trace.OpAccess, Addr: address()}
			case v < 70:
				op = trace.Op{Kind: trace.OpAccess, Write: true, Addr: address()}
			case v < 78:
				op = trace.Op{Kind: trace.OpAtomic, Addr: address()}
			case v < 84:
				op = trace.Op{Kind: trace.OpDMA, Addr: address(), Addr2: address(), Size: uint32(r.Intn(1 << 20))}
			case v < 88:
				op = trace.Op{Kind: trace.OpDMAWait}
			case v < 92:
				op = trace.Op{Kind: trace.OpGap, Gap: math.MaxUint32}
			case v < 96:
				op = trace.Op{Kind: trace.OpBarrier}
			default:
				op = trace.Op{Kind: trace.OpPhase, Addr: uint64(r.Intn(len(tr.PhaseNames)))}
			}
			// A run repeats the op's tag — same kind, direction and gap
			// presence — with fresh addresses and gap values.
			hasGap := op.Gap != 0 || r.Intn(3) > 0
			for n := 1 + r.Intn(maxRun); n > 0; n-- {
				if hasGap && op.Kind != trace.OpGap {
					for op.Gap = gap(); op.Gap == 0; op.Gap = gap() {
					}
				}
				if op.Kind == trace.OpAccess || op.Kind == trace.OpAtomic {
					op.Addr = address()
				}
				s = append(s, op)
			}
		}
		tr.Streams[t] = append(s, trace.Op{Kind: trace.OpEnd, Gap: gap()})
	}
	return tr
}

// TestBuilderMatchesReferenceGenerated sweeps the generator.
func TestBuilderMatchesReferenceGenerated(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := 0; seed < seeds; seed++ {
		r := xrand.New(uint64(seed) + 1)
		s, threads, shape := r.Uint64(), uint8(r.Intn(256)), uint8(seed)
		requireMatchesReference(t, fmt.Sprintf("seed=%d/threads=%d/shape=%d", s, threads, shape), builderCase(s, threads, shape))
	}
}

// FuzzBuilderMatchesReference hands the generator's arguments to the
// fuzzer. scripts/check.sh runs it briefly as a smoke.
func FuzzBuilderMatchesReference(f *testing.F) {
	for shape := uint8(0); shape < 6; shape++ {
		f.Add(uint64(2015)+uint64(shape), 2*shape+1, shape)
	}
	f.Fuzz(func(t *testing.T, seed uint64, threads, shape uint8) {
		requireMatchesReference(t, "fuzz", builderCase(seed, threads, shape))
	})
}

// TestBuilderEdgeCases constructs the streams the generator only reaches by
// luck, each held to the reference, with the sealed shift asserted where the
// case is about the shift.
func TestBuilderEdgeCases(t *testing.T) {
	far := uint64(addr.FarBase)
	read := func(a uint64) trace.Op { return trace.Op{Kind: trace.OpAccess, Addr: a} }
	write := func(a uint64) trace.Op { return trace.Op{Kind: trace.OpAccess, Addr: a, Write: true} }
	end := trace.Op{Kind: trace.OpEnd}
	// tags builds a stream whose tag sequence is the given run lengths,
	// alternating between two distinct tags.
	tags := func(runs ...int) []trace.Op {
		var s []trace.Op
		for i, n := range runs {
			for ; n > 0; n-- {
				if i%2 == 0 {
					s = append(s, read(far+64*uint64(len(s))))
				} else {
					s = append(s, write(far+64*uint64(len(s))))
				}
			}
		}
		return append(s, end)
	}
	var manyGaps, tiedGaps []trace.Op
	for i := 0; i < 400; i++ { // 400 distinct gaps: indices past 127 take two bytes
		for n := 0; n <= i%3; n++ {
			manyGaps = append(manyGaps, trace.Op{Kind: trace.OpAccess, Addr: far + 64*uint64(i), Gap: uint32(1000 - i)})
		}
	}
	for i := 0; i < 40; i++ { // every value exactly twice, first seen in descending order: ties break by value
		tiedGaps = append(tiedGaps, trace.Op{Kind: trace.OpGap, Gap: uint32(40 - i%20)})
	}
	shortRuns := []int{3} // a literal of 70 short runs (105 tags): its length takes two bytes
	for i := 0; i < 70; i++ {
		shortRuns = append(shortRuns, 1+i%2)
	}
	shortRuns = append(shortRuns, 3)
	long := make([]int, 0, 64) // > 8 KiB of tags: runs and literals straddle raw chunk boundaries
	for i := 0; i < 3000; i++ {
		long = append(long, 1+i%5)
	}

	cases := []struct {
		name    string
		streams [][]trace.Op
		shifts  []uint // expected sealed shift per thread; nil = not asserted
	}{
		{"misaligned after aligned: shift lowered mid-stream",
			[][]trace.Op{{read(far + 0x40), read(far + 0x80), write(far + 0x81), read(far + 0xc0), write(far + 0x44), end}},
			[]uint{0}},
		{"shift lowered twice, partially",
			[][]trace.Op{{read(far + 0x1000), read(far + 0x2000), read(far + 0x2040), read(far + 0x3000), read(far + 0x3008), read(far + 0x4000), end}},
			[]uint{3}},
		{"more shared zeros than the line: shift raised at seal",
			[][]trace.Op{{read(far + 0x1000), write(far + 0x5000), read(far + 0x3000), end}},
			[]uint{12}},
		{"no access op: shift 0",
			[][]trace.Op{{{Kind: trace.OpBarrier}, {Kind: trace.OpDMAWait, Gap: 9}, end}, {{Kind: trace.OpBarrier}, end}},
			[]uint{0, 0}},
		{"every address zero", [][]trace.Op{{read(0), write(0), {Kind: trace.OpAtomic}, end}}, []uint{0}},
		{"OpEnd-only threads", [][]trace.Op{{end}, {read(far), end}, {{Kind: trace.OpEnd, Gap: 5}}}, []uint{0, 44, 0}}, // FarBase is 1<<44
		{"a thread with no ops at all", [][]trace.Op{{}, {end}}, nil},
		{"tag runs of exactly 2, 3 and 4 between literals", [][]trace.Op{tags(1, 2, 1, 3, 1, 4, 2, 2, 3, 3, 1, 1, 4, 1)}, nil},
		{"stream ends inside a run / inside a literal", [][]trace.Op{tags(5), tags(1, 1, 2)}, nil},
		{"two-byte block lengths", [][]trace.Op{tags(66, 1, 67, 2, 200), tags(shortRuns...)}, nil},
		{"blocks straddling raw chunks", [][]trace.Op{tags(long...), tags(255, 2, 255, 1, 1, 1020, 3, 9000)}, nil},
		{"more than 127 distinct gaps", [][]trace.Op{append(manyGaps, end)}, nil},
		{"gap frequencies tie", [][]trace.Op{append(tiedGaps, end)}, nil},
		{"DMA and phase columns", [][]trace.Op{{
			{Kind: trace.OpPhase, Addr: 0}, {Kind: trace.OpDMA, Addr: far, Addr2: uint64(addr.NearBase) + 4096, Size: math.MaxUint32, Gap: 3},
			{Kind: trace.OpDMAWait}, {Kind: trace.OpPhase, Addr: 2, Gap: 1 << 31}, {Kind: trace.OpDMA, Addr: 1, Addr2: 0, Size: 0}, end}}, nil},
	}
	for _, c := range cases {
		tr := &trace.Trace{Streams: c.streams, L1: paperL1, Costs: trace.DefaultCosts(),
			PhaseNames: []string{"a", "b", "c"}}
		image := requireMatchesReference(t, c.name, tr)
		col, err := trace.OpenBytes(image)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for tid, want := range c.shifts {
			if got := col.Shift(tid); got != want {
				t.Errorf("%s: thread %d sealed under shift %d, want %d", c.name, tid, got, want)
			}
		}
		for tid := range c.streams { // and the image decodes to the ops that went in
			cur, i := col.CursorAt(tid), 0
			for ; cur.Next(); i++ {
				if i >= len(c.streams[tid]) || cur.Cur != c.streams[tid][i] {
					t.Fatalf("%s: thread %d op %d decodes to %+v", c.name, tid, i, cur.Cur)
				}
			}
			if err := cur.Err(); err != nil || i != len(c.streams[tid]) {
				t.Fatalf("%s: thread %d decoded %d of %d ops (%v)", c.name, tid, i, len(c.streams[tid]), err)
			}
		}
	}
}

// TestRecorderGapCarriers: compute time past 2^32 cycles reaches the builder
// as OpGap carriers through TP.emit, the one path the decoded-stream cases
// above cannot take.
func TestRecorderGapCarriers(t *testing.T) {
	rec := trace.NewRecorder(2, paperL1, trace.DefaultCosts())
	tp := rec.Thread(0)
	tp.Phase("warm")
	tp.Compute(3 * (1 << 32))
	tp.Load(addr.FarBase, 8)
	tp.Compute(1<<32 + 5)
	tp.Barrier()
	rec.Thread(1).Barrier()
	tr := rec.Finish(nil)
	requireSealedRecording(t, "gap carriers", tr)
	dec, err := tr.Columns().Decode()
	if err != nil {
		t.Fatal(err)
	}
	carriers := 0
	for _, op := range dec.Streams[0] {
		if op.Kind == trace.OpGap {
			carriers++
		}
	}
	if carriers != 4 {
		t.Fatalf("recorded %d OpGap carriers, want 4 (3 before the load, 1 before the barrier)", carriers)
	}
}

// goEach is a ForkJoin that really forks, for exercising the parallel seal
// and validation walks (and their -race cleanliness) without internal/par.
func goEach(n int, body func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body(i)
		}(i)
	}
	wg.Wait()
}

// recordSample records a small multi-thread trace with every column in use.
func recordSample(fj trace.ForkJoin) *trace.Trace {
	rec := trace.NewRecorder(6, trace.L1Geometry{Capacity: 256, LineSize: 64, Ways: 2}, trace.DefaultCosts())
	for tid := 0; tid < rec.Threads(); tid++ {
		tp := rec.Thread(tid)
		if tid == 0 {
			tp.Phase("fill")
		}
		for i := 0; i < 700*(tid+1); i++ {
			tp.Compute(int64(30 * (i % 7)))
			tp.Load(addr.FarBase+addr.Addr(tid<<20+i*64), 8)
			if i%3 == 0 {
				tp.Store(addr.NearBase+addr.Addr(tid<<16+(i%64)*64), 8)
			}
			if i%97 == 0 {
				tp.Atomic(addr.NearBase)
			}
		}
		tp.DMA(addr.FarBase, addr.NearBase+4096, 512)
		tp.DMAWait()
		tp.Barrier()
	}
	return rec.Finish(fj)
}

// TestParallelSealAndValidate: sealing and validating under a real fork-join
// produce the bytes and the verdict of the sequential path.
func TestParallelSealAndValidate(t *testing.T) {
	seq, err := trace.EncodeColumnar(recordSample(nil))
	if err != nil {
		t.Fatal(err)
	}
	par := recordSample(goEach)
	if err := par.Columns().ValidatePar(goEach); err != nil {
		t.Fatalf("ValidatePar: %v", err)
	}
	got, err := trace.EncodeColumnar(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, seq) {
		t.Fatal("Finish under a fork-join sealed different bytes than Finish(nil)")
	}

	// A file's validation walk under the fork-join yields the same counts
	// and, for a broken stream, the same error as the sequential walk.
	for _, fj := range []trace.ForkJoin{nil, goEach} {
		col, err := trace.OpenBytes(seq)
		if err != nil {
			t.Fatal(err)
		}
		if err := col.ValidatePar(fj); err != nil {
			t.Fatal(err)
		}
		if got, want := col.Count(), par.Count(); got != want {
			t.Fatalf("validation walk counted %+v, the recorder tallied %+v", got, want)
		}
	}
	bad := &trace.Trace{L1: paperL1, Costs: trace.DefaultCosts(), Streams: [][]trace.Op{
		{{Kind: trace.OpBarrier}, {Kind: trace.OpEnd}},
		{{Kind: trace.OpEnd}},
		{{Kind: trace.OpAccess, Addr: 0x10}, {Kind: trace.OpEnd}},
	}}
	image, err := trace.EncodeColumnar(bad)
	if err != nil {
		t.Fatal(err)
	}
	var verdicts []string
	for _, fj := range []trace.ForkJoin{nil, goEach} {
		col, err := trace.OpenBytes(image)
		if err != nil {
			t.Fatal(err)
		}
		verdicts = append(verdicts, fmt.Sprint(col.ValidatePar(fj)))
		if c := col.Count(); c != (trace.LevelCounts{}) {
			t.Fatalf("a rejected file reports counts %+v", c)
		}
	}
	if verdicts[0] != verdicts[1] || verdicts[0] != "trace: thread 1 reached 0 barriers, thread 0 reached 1" {
		t.Fatalf("sequential verdict %q, parallel verdict %q", verdicts[0], verdicts[1])
	}
}

// TestSealedConcurrentFirstUse: the first Digest of a sealed recording
// completes its footer in place while cursors walk the columns and other
// goroutines ask for the image. Run under -race.
func TestSealedConcurrentFirstUse(t *testing.T) {
	tr := recordSample(nil)
	want, err := referenceEncodeColumnar(recordSample(nil))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	digests := make([]uint64, 4)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				d, err := tr.Digest()
				if err != nil {
					t.Error(err)
				}
				digests[i/3] = d
			case 1:
				for tid := 0; tid < tr.Threads(); tid++ {
					cur, n := tr.CursorAt(tid), 0
					for cur.Next() {
						n++
					}
					if err := cur.Err(); err != nil || n != tr.ThreadOps(tid) {
						t.Errorf("thread %d: walked %d of %d ops (%v)", tid, n, tr.ThreadOps(tid), err)
					}
				}
			case 2:
				got, err := trace.EncodeColumnar(tr)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("EncodeColumnar during the first Digest: err %v, image matches the reference: %v",
						err, bytes.Equal(got, want))
				}
			}
		}(i)
	}
	wg.Wait()
	for _, d := range digests[1:] {
		if d != digests[0] {
			t.Fatalf("concurrent first Digest calls disagree: %x", digests)
		}
	}
}

// TestEncodeColumnarDoesNotAliasARecording: the bytes EncodeColumnar returns
// are the caller's to scribble on.
func TestEncodeColumnarDoesNotAliasARecording(t *testing.T) {
	tr := recordSample(nil)
	a, err := trace.EncodeColumnar(tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		a[i] = 0xff
	}
	if err := tr.Columns().Verify(); err != nil {
		t.Fatalf("scribbling on EncodeColumnar's result corrupted the recording: %v", err)
	}
	col, err := trace.Seal(tr)
	if err != nil || col != tr.Columns() {
		t.Fatalf("Seal of a recording must return its own columns (err %v)", err)
	}
}
