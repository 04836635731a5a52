package trace

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/addr"
	"repro/internal/xrand"
)

// builtCase is one hand-built trace, as a constructor: every *Trace method
// seals on first use, so each comparison below starts from a fresh one.
type builtCase struct {
	name  string
	build func() *Trace
}

// builtCorpus is every shape a test hands *Trace by hand: each op kind, the
// near memory reached only by DMA or an atomic, every way Validate fails,
// the two shapes no file can hold, and generated streams of all of it.
func builtCorpus() []builtCase {
	far, near := uint64(addr.FarBase)+1<<20, uint64(addr.NearBase)+4096
	end := Op{Kind: OpEnd}
	of := func(names []string, streams ...[]Op) func() *Trace {
		return func() *Trace {
			return &Trace{Streams: streams, L1: tinyL1(), Costs: DefaultCosts(), PhaseNames: names}
		}
	}
	cases := []builtCase{
		{"every op kind", of([]string{"a", "b"},
			[]Op{
				{Kind: OpPhase, Addr: 1},
				{Kind: OpGap, Gap: ^uint32(0)},
				{Kind: OpAccess, Addr: far, Gap: 12},
				{Kind: OpAccess, Addr: near + 64, Write: true},
				{Kind: OpAtomic, Addr: far + 128, Gap: 3},
				{Kind: OpDMA, Addr: far, Addr2: near, Size: 4096},
				{Kind: OpDMAWait, Gap: 3},
				{Kind: OpBarrier},
				end,
			},
			[]Op{{Kind: OpAccess, Addr: far + 1}, {Kind: OpBarrier, Gap: 7}, end})},
		{"far only", of(nil, []Op{{Kind: OpAccess, Addr: far}, {Kind: OpAtomic, Addr: far}, {Kind: OpDMA, Addr: far, Addr2: far + 8192, Size: 64}, end})},
		{"near by DMA destination only", of(nil, []Op{{Kind: OpDMA, Addr: far, Addr2: near, Size: 64}, end})},
		{"near by DMA source only", of(nil, []Op{{Kind: OpDMA, Addr: near, Addr2: far}, end})},
		{"near by atomic only", of(nil, []Op{{Kind: OpAtomic, Addr: near}, end})},
		{"empty thread", of(nil, []Op{end}, nil)},
		{"missing OpEnd", of(nil, []Op{{Kind: OpAccess, Addr: far}})},
		{"interior OpEnd", of(nil, []Op{end, {Kind: OpAccess, Addr: near}, end})},
		{"barrier disagreement", of(nil, []Op{{Kind: OpBarrier}, end}, []Op{end})},
		{"unroutable access", of(nil, []Op{{Kind: OpAccess, Addr: near}, {Kind: OpAccess, Addr: 0x1000}, end})},
		{"unroutable DMA destination", of(nil, []Op{{Kind: OpDMA, Addr: far, Addr2: 64, Size: 8}, end})},
		{"phase id out of range", of([]string{"only"}, []Op{{Kind: OpPhase, Addr: 1}, end})},
		{"first failure in thread order", of(nil, []Op{{Kind: OpBarrier}, end}, []Op{{Kind: OpAccess, Addr: 8}, end})},
		{"zero threads", of(nil)},
		{"too many phase names", of(make([]string, maxPhaseNames+1), []Op{end})},
	}
	for seed := uint64(0); seed < 200; seed++ {
		seed := seed
		cases = append(cases, builtCase{fmt.Sprintf("generated %d", seed), func() *Trace { return generatedTrace(seed) }})
	}
	return cases
}

// generatedTrace draws 1–4 threads of up to 300 ops over every kind, with
// addresses in both windows at mixed alignments and gaps from a small pool
// (so dictionary ranks tie). Two traces in three pass Validate; the third is
// wild — stray addresses, phase ids past the table, barriers that disagree,
// streams that end early, twice, or not at all. Each op carries only the
// fields its kind does.
func generatedTrace(seed uint64) *Trace {
	r := xrand.New(seed)
	wild := r.Intn(3) == 0
	names := make([]string, r.Intn(3))
	for i := range names {
		names[i] = fmt.Sprintf("phase %d", i)
	}
	address := func() uint64 {
		base := uint64(addr.FarBase)
		switch k := r.Intn(30); {
		case wild && k == 0:
			base = 0
		case k < 10:
			base = uint64(addr.NearBase)
		}
		return base + uint64(r.Intn(1<<16))<<uint(r.Intn(8))
	}
	tr := &Trace{L1: tinyL1(), Costs: DefaultCosts(), PhaseNames: names, Streams: make([][]Op, 1+r.Intn(4))}
	barriers := r.Intn(3)
	for t := range tr.Streams {
		ops := make([]Op, 0, 300)
		for n := r.Intn(300); n > 0; n-- {
			op := Op{Kind: Kind(r.Intn(int(OpPhase) + 1))}
			if r.Intn(3) == 0 {
				op.Gap = uint32(1 + r.Intn(5)*r.Intn(1000))
			}
			switch op.Kind {
			case OpAccess:
				op.Addr, op.Write = address(), r.Intn(2) == 0
			case OpAtomic:
				op.Addr = address()
			case OpDMA:
				op.Addr, op.Addr2, op.Size = address(), address(), uint32(r.Uint64())
			case OpPhase:
				switch {
				case wild:
					op.Addr = uint64(r.Intn(len(names) + 1))
				case len(names) > 0:
					op.Addr = uint64(r.Intn(len(names)))
				default:
					op.Kind = OpGap
				}
			case OpBarrier, OpEnd:
				if !wild || r.Intn(8) != 0 {
					op.Kind = OpDMAWait
				}
			}
			ops = append(ops, op)
		}
		for b := 0; b < barriers; b++ {
			ops = append(ops, Op{Kind: OpBarrier})
		}
		if !wild || r.Intn(4) != 0 {
			ops = append(ops, Op{Kind: OpEnd})
		}
		tr.Streams[t] = ops
	}
	return tr
}

// TestBuiltTraceMatchesItsStreams: a hand-built trace answers every Source
// method out of the columns it seals itself into, and every answer — error
// text included — is the one the references compute from its []Op directly,
// the form each method read until *Trace lost its second backing. Each
// method is asked first on its own fresh trace, so none can lean on a
// neighbour having sealed, walked or memoized before it.
func TestBuiltTraceMatchesItsStreams(t *testing.T) {
	verdicts := map[string]int{}
	for _, c := range builtCorpus() {
		want := c.build() // never asked anything: its Streams are the oracle's input
		wantV2, wantDigest, wantWriteErr := refStreamsWriteV2(want)
		wantSeen, wantVerdict := refStreamsValidate(want)
		verdicts[strings.SplitN(strings.TrimPrefix(fmt.Sprint(wantVerdict), "trace: "), " ", 3)[0]]++

		if got, err := c.build().Digest(); fmt.Sprint(err) != fmt.Sprint(wantWriteErr) || got != wantDigest {
			t.Errorf("%s: Digest = %#x, %v; the sequential writer over the streams %#x, %v", c.name, got, err, wantDigest, wantWriteErr)
		}
		var v2 bytes.Buffer
		if n, err := c.build().WriteTo(&v2); fmt.Sprint(err) != fmt.Sprint(wantWriteErr) || n != int64(v2.Len()) || !bytes.Equal(v2.Bytes(), wantV2) {
			t.Errorf("%s: WriteTo wrote %d bytes (reported %d), %v; want %d, %v", c.name, v2.Len(), n, err, len(wantV2), wantWriteErr)
		}
		if err := c.build().Validate(); fmt.Sprint(err) != fmt.Sprint(wantVerdict) {
			t.Errorf("%s: Validate = %v, over the streams %v", c.name, err, wantVerdict)
		}
		if got := c.build().Count(); got != wantSeen.counts {
			t.Errorf("%s: Count = %+v, over the streams %+v", c.name, got, wantSeen.counts)
		}
		if got := c.build().NearBlind(); got != (wantVerdict == nil && !wantSeen.near) {
			t.Errorf("%s: NearBlind = %v; over the streams near reached: %v, verdict %v", c.name, got, wantSeen.near, wantVerdict)
		}

		tr := c.build()
		ops := 0
		if tr.Threads() != len(want.Streams) {
			t.Fatalf("%s: Threads = %d, want %d", c.name, tr.Threads(), len(want.Streams))
		}
		for tid, stream := range want.Streams {
			ops += len(stream)
			var got []Op
			cur := c.build().CursorAt(tid)
			for cur.Next() {
				got = append(got, cur.Cur)
			}
			if cur.Err() != nil || tr.ThreadOps(tid) != len(stream) || !reflect.DeepEqual(got, append([]Op(nil), stream...)) {
				t.Errorf("%s: thread %d: ThreadOps %d and a cursor of %d ops (%v), want the %d built", c.name, tid, tr.ThreadOps(tid), len(got), cur.Err(), len(stream))
			}
		}
		if tr.Ops() != ops || !reflect.DeepEqual(tr.PhaseTable(), want.PhaseNames) || tr.Geometry() != want.L1 || tr.CostModel() != want.Costs {
			t.Errorf("%s: Ops %d of %d, or the header fields moved", c.name, tr.Ops(), ops)
		}
		if dec, err := tr.Columns().Decode(); err != nil || sameOps(t, dec, want) != nil || dec == tr {
			t.Errorf("%s: Decoded: %v", c.name, err)
		}

		// No file can hold the last two of the corpus, and none is written.
		refusal := ""
		switch {
		case len(want.Streams) == 0:
			refusal = "no threads"
		case len(want.PhaseNames) > maxPhaseNames:
			refusal = "phase names"
		}
		if _, err := EncodeColumnar(c.build()); (err == nil) != (refusal == "") || !strings.Contains(fmt.Sprint(err), refusal) {
			t.Errorf("%s: EncodeColumnar: %v, want a refusal mentioning %q", c.name, err, refusal)
		}
	}
	for _, must := range []string{"<nil>", "thread"} { // the corpus reaches both sides of Validate
		if verdicts[must] < 20 {
			t.Fatalf("corpus too tame: verdicts %v", verdicts)
		}
	}
}

// TestBuiltTraceFirstUseIsRaceSafe: goroutines racing to be a fresh
// hand-built trace's first user all read the one image — sealed once, walked
// once for verdict and digest both. Run under -race by scripts/check.sh.
func TestBuiltTraceFirstUseIsRaceSafe(t *testing.T) {
	for round := uint64(0); round < 20; round++ {
		tr := generatedTrace(1000 + round)
		wantDigest, wantDigestErr := generatedTrace(1000 + round).Digest()
		wantVerdict := generatedTrace(1000 + round).Validate()
		const users = 8
		images := make([]*Columnar, users)
		walks, _ := countWalks(func() {
			var wg sync.WaitGroup
			wg.Add(users)
			for u := 0; u < users; u++ {
				go func(u int) {
					defer wg.Done()
					switch u % 3 {
					case 0:
						for cur := tr.CursorAt(0); cur.Next(); {
						}
					case 1:
						if d, err := tr.Digest(); d != wantDigest || fmt.Sprint(err) != fmt.Sprint(wantDigestErr) {
							t.Errorf("round %d: Digest = %#x, %v; alone it is %#x, %v", round, d, err, wantDigest, wantDigestErr)
						}
					case 2:
						if err := tr.Validate(); fmt.Sprint(err) != fmt.Sprint(wantVerdict) {
							t.Errorf("round %d: Validate = %v; alone it is %v", round, err, wantVerdict)
						}
					}
					images[u] = tr.Columns()
				}(u)
			}
			wg.Wait()
		})
		for _, image := range images {
			if image != images[0] {
				t.Fatalf("round %d: two goroutines hold two images", round)
			}
		}
		if walks != 1 {
			t.Fatalf("round %d: %d walks of the one image, want 1", round, walks)
		}
	}
}

// TestCursorHasOneMode pins the cursor's size: it shrank by 40 bytes when the
// decoded-slice mode (a slice, an index, a mode flag) went, and the replay
// core embeds one per simulated core. A second mode cannot come back
// unnoticed. Its words are pointers and ints, so the size depends on theirs:
// 296 bytes with 64-bit words, 196 with 32-bit ones.
func TestCursorHasOneMode(t *testing.T) {
	want := uintptr(296)
	if unsafe.Sizeof(uintptr(0)) == 4 {
		want = 196
	}
	if got := unsafe.Sizeof(Cursor{}); got != want {
		t.Fatalf("Cursor is %d bytes, want %d", got, want)
	}
}

// TestReadTraceRefusesV1: nothing has written a v1 stream since the seed, and
// the reader refuses one at its header like any other version it does not
// know — from a reader and from a file.
func TestReadTraceRefusesV1(t *testing.T) {
	for i, v2 := range fuzzSeedTraces(t) {
		v1 := v1Stream(t, v2)
		_, err := ReadTrace(bytes.NewReader(v1))
		var de *DecodeError
		if !errors.As(err, &de) || de.Section != "header" || de.Offset != 4 || !strings.Contains(err.Error(), "unsupported version 1") {
			t.Fatalf("seed %d: ReadTrace of a v1 stream: %v", i, err)
		}
		if _, err := ReadTrace(bytes.NewReader(v2)); err != nil {
			t.Fatalf("seed %d: the v2 stream it was cut from: %v", i, err)
		}
	}
}
