package trace

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/addr"
	"repro/internal/xrand"
)

// requireMatchesReference is the differential the builder tests run: the
// column builder's image of tr's streams must equal the two-pass encoder's,
// byte for byte, and must open and verify.
func requireMatchesReference(t testing.TB, name string, tr *Trace) []byte {
	t.Helper()
	want, err := refEncodeColumnar(tr)
	if err != nil {
		t.Fatalf("%s: reference encoder: %v", name, err)
	}
	got, err := EncodeColumnar(tr)
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
	col, err := OpenBytes(got)
	if err != nil {
		t.Fatalf("%s: OpenBytes: %v", name, err)
	}
	if err := col.Verify(); err != nil {
		t.Fatalf("%s: Verify: %v", name, err)
	}
	return got
}

// TestNearBlindSeesWhatLevelCountsMisses: the near-blind bit is exact where
// LevelCounts.Near() is not. Near() counts neither atomics nor DMA streams,
// so it reads zero for a thread that reaches the scratchpad only through the
// DMA engine or an atomic; the bit must not, in any kind of image.
func TestNearBlindSeesWhatLevelCountsMisses(t *testing.T) {
	far, near := addr.FarBase+1<<20, addr.NearBase+4096
	for _, tc := range []struct {
		name  string
		touch func(tp *TP)
		blind bool
	}{
		{"far loads and stores", func(tp *TP) {}, true},
		{"far atomic", func(tp *TP) { tp.Atomic(far) }, true},
		{"far to far DMA", func(tp *TP) { tp.DMA(far, far+8192, 4096); tp.DMAWait() }, true},
		{"near load", func(tp *TP) { tp.Load(near, 8) }, false},
		{"near atomic", func(tp *TP) { tp.Atomic(near) }, false},
		{"DMA into near", func(tp *TP) { tp.DMA(far, near, 4096); tp.DMAWait() }, false},
		{"DMA out of near", func(tp *TP) { tp.DMA(near, far, 4096); tp.DMAWait() }, false},
		{"empty DMA into near", func(tp *TP) { tp.DMA(far, near, 0) }, false},
	} {
		// Every thread streams far memory; only the last one, and only once,
		// does what the case names.
		rec := NewRecorder(3, tinyL1(), DefaultCosts())
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
		checkImageKinds(t, tc.name, tr) // the bit agrees across every kind of image
		if tr.NearBlind() != tc.blind {
			t.Errorf("%s: NearBlind = %v, want %v", tc.name, tr.NearBlind(), tc.blind)
		}
		if !tc.blind && tc.name != "near load" && tr.Count().Near() != 0 {
			t.Errorf("%s: Count().Near() = %d; the case no longer shows the blind spot", tc.name, tr.Count().Near())
		}
	}
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
	read := func(a uint64) Op { return Op{Kind: OpAccess, Addr: a} }
	write := func(a uint64) Op { return Op{Kind: OpAccess, Addr: a, Write: true} }
	end := Op{Kind: OpEnd}
	// tags builds a stream whose tag sequence is the given run lengths,
	// alternating between two distinct tags.
	tags := func(runs ...int) []Op {
		var s []Op
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
	var manyGaps, tiedGaps []Op
	for i := 0; i < 400; i++ { // 400 distinct gaps: indices past 127 take two bytes
		for n := 0; n <= i%3; n++ {
			manyGaps = append(manyGaps, Op{Kind: OpAccess, Addr: far + 64*uint64(i), Gap: uint32(1000 - i)})
		}
	}
	for i := 0; i < 40; i++ { // every value exactly twice, first seen in descending order: ties break by value
		tiedGaps = append(tiedGaps, Op{Kind: OpGap, Gap: uint32(40 - i%20)})
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
		streams [][]Op
		shifts  []uint // expected sealed shift per thread; nil = not asserted
	}{
		{"misaligned after aligned: shift lowered mid-stream",
			[][]Op{{read(far + 0x40), read(far + 0x80), write(far + 0x81), read(far + 0xc0), write(far + 0x44), end}},
			[]uint{0}},
		{"shift lowered twice, partially",
			[][]Op{{read(far + 0x1000), read(far + 0x2000), read(far + 0x2040), read(far + 0x3000), read(far + 0x3008), read(far + 0x4000), end}},
			[]uint{3}},
		{"more shared zeros than the line: shift raised at seal",
			[][]Op{{read(far + 0x1000), write(far + 0x5000), read(far + 0x3000), end}},
			[]uint{12}},
		{"no access op: shift 0",
			[][]Op{{{Kind: OpBarrier}, {Kind: OpDMAWait, Gap: 9}, end}, {{Kind: OpBarrier}, end}},
			[]uint{0, 0}},
		{"every address zero", [][]Op{{read(0), write(0), {Kind: OpAtomic}, end}}, []uint{0}},
		{"OpEnd-only threads", [][]Op{{end}, {read(far), end}, {{Kind: OpEnd, Gap: 5}}}, []uint{0, 44, 0}}, // FarBase is 1<<44
		{"a thread with no ops at all", [][]Op{{}, {end}}, nil},
		{"tag runs of exactly 2, 3 and 4 between literals", [][]Op{tags(1, 2, 1, 3, 1, 4, 2, 2, 3, 3, 1, 1, 4, 1)}, nil},
		{"stream ends inside a run / inside a literal", [][]Op{tags(5), tags(1, 1, 2)}, nil},
		{"two-byte block lengths", [][]Op{tags(66, 1, 67, 2, 200), tags(shortRuns...)}, nil},
		{"blocks straddling raw chunks", [][]Op{tags(long...), tags(255, 2, 255, 1, 1, 1020, 3, 9000)}, nil},
		{"more than 127 distinct gaps", [][]Op{append(manyGaps, end)}, nil},
		{"gap frequencies tie", [][]Op{append(tiedGaps, end)}, nil},
		{"DMA and phase columns", [][]Op{{
			{Kind: OpPhase, Addr: 0}, {Kind: OpDMA, Addr: far, Addr2: uint64(addr.NearBase) + 4096, Size: math.MaxUint32, Gap: 3},
			{Kind: OpDMAWait}, {Kind: OpPhase, Addr: 2, Gap: 1 << 31}, {Kind: OpDMA, Addr: 1, Addr2: 0, Size: 0}, end}}, nil},
	}
	for _, c := range cases {
		tr := &Trace{Streams: c.streams, L1: paperL1, Costs: DefaultCosts(),
			PhaseNames: []string{"a", "b", "c"}}
		image := requireMatchesReference(t, c.name, tr)
		col, err := OpenBytes(image)
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
	rec := NewRecorder(2, paperL1, DefaultCosts())
	tp := rec.Thread(0)
	tp.Phase("warm")
	tp.Compute(3 * (1 << 32))
	tp.Load(addr.FarBase, 8)
	tp.Compute(1<<32 + 5)
	tp.Barrier()
	rec.Thread(1).Barrier()
	tr := rec.Finish(nil)
	carriers := 0
	for _, op := range stream(t, tr, 0) {
		if op.Kind == OpGap {
			carriers++
		}
	}
	if carriers != 4 {
		t.Fatalf("recorded %d OpGap carriers, want 4 (3 before the load, 1 before the barrier)", carriers)
	}
}

// TestParallelSealAndValidate: sealing and validating under a real fork-join
// produce the bytes and the verdict of the sequential path.
func TestParallelSealAndValidate(t *testing.T) {
	seq, err := EncodeColumnar(sortishTrace(6, 700, nil))
	if err != nil {
		t.Fatal(err)
	}
	par := sortishTrace(6, 700, concurrent)
	if err := par.Columns().ValidatePar(concurrent); err != nil {
		t.Fatalf("ValidatePar: %v", err)
	}
	got, err := EncodeColumnar(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, seq) {
		t.Fatal("Finish under a fork-join sealed different bytes than Finish(nil)")
	}

	// A file's validation walk under the fork-join yields the same counts
	// and, for a broken stream, the same error as the sequential walk.
	for _, fj := range []ForkJoin{nil, concurrent} {
		col, err := OpenBytes(seq)
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
	bad := &Trace{L1: paperL1, Costs: DefaultCosts(), Streams: [][]Op{
		{{Kind: OpBarrier}, {Kind: OpEnd}},
		{{Kind: OpEnd}},
		{{Kind: OpAccess, Addr: 0x10}, {Kind: OpEnd}},
	}}
	image, err := EncodeColumnar(bad)
	if err != nil {
		t.Fatal(err)
	}
	var verdicts []string
	for _, fj := range []ForkJoin{nil, concurrent} {
		col, err := OpenBytes(image)
		if err != nil {
			t.Fatal(err)
		}
		verdicts = append(verdicts, fmt.Sprint(col.ValidatePar(fj)))
		if c := col.Count(); c != (LevelCounts{}) {
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
	tr := sortishTrace(6, 700, nil)
	want, err := refEncodeColumnar(decoded(t, tr))
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
				got, err := EncodeColumnar(tr)
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
	tr := sortishTrace(6, 700, nil)
	a, err := EncodeColumnar(tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		a[i] = 0xff
	}
	if err := tr.Columns().Verify(); err != nil {
		t.Fatalf("scribbling on EncodeColumnar's result corrupted the recording: %v", err)
	}
	col, err := Seal(tr)
	if err != nil || col != tr.Columns() {
		t.Fatalf("Seal of a recording must return its own columns (err %v)", err)
	}
}
