package trace

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/addr"
	"repro/internal/units"
	"repro/internal/xrand"
)

// The one corpus the package's tests share: a few recordings, the hand-built
// traces that reach every op kind and every way Validate fails, and two
// generators. The harness's algorithms are recorded once, in the external
// test package (algorithms_test.go), which can import internal/harness.

// corpusCase is one trace of the corpus: a recording, or a hand-built
// trace's Streams, which nothing but fresh ever seals.
type corpusCase struct {
	name string
	tr   *Trace
}

// fresh returns the case as a trace nothing has asked anything yet: a
// hand-built trace's streams behind a new handle, or the recording, which
// Finish sealed and walked.
func (c corpusCase) fresh() *Trace {
	if c.tr.cols != nil {
		return c.tr
	}
	return &Trace{Streams: c.tr.Streams, L1: c.tr.L1, Costs: c.tr.Costs, PhaseNames: c.tr.PhaseNames}
}

// corpus is every case the image-kind tests hold to the references, but
// the long builder cases (longCorpus).
func corpus() []corpusCase {
	cases := append(handBuilt(),
		corpusCase{"recording", sampleTrace()},
		corpusCase{"recording of 4 threads", sortishTrace(4, 300, nil)},
		corpusCase{"recording sealed under a fork-join", sortishTrace(6, 700, concurrent)},
	)
	generated := 200
	if testing.Short() {
		generated = 60
	}
	for seed := range uint64(generated) {
		cases = append(cases, corpusCase{fmt.Sprintf("generated %d", seed), generatedTrace(seed)})
	}
	return cases
}

// longCorpus is threads of thousands of ops: lanes past one block, raw
// chunks past one.
func longCorpus() []corpusCase {
	long := 12
	if testing.Short() {
		long = 3
	}
	var cases []corpusCase
	for seed := range uint64(long) {
		cases = append(cases, corpusCase{fmt.Sprintf("builder case %d", seed), builderCase(seed, uint8(seed), uint8(seed))})
	}
	return cases
}

// handBuilt is each op kind, the near memory reached only by DMA or an
// atomic, every way Validate fails, and the two shapes no file can hold.
func handBuilt() []corpusCase {
	far, near := uint64(addr.FarBase)+1<<20, uint64(addr.NearBase)+4096
	end := Op{Kind: OpEnd}
	of := func(names []string, streams ...[]Op) *Trace {
		return &Trace{Streams: streams, L1: tinyL1(), Costs: DefaultCosts(), PhaseNames: names}
	}
	return []corpusCase{
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
		{"interior OpEnd, last", of(nil, []Op{{Kind: OpAccess, Addr: far}, end, end})},
		{"barrier disagreement", of(nil, []Op{{Kind: OpBarrier}, end}, []Op{end})},
		{"more barriers than thread 0", of(nil, []Op{end}, []Op{{Kind: OpBarrier}, end})},
		{"unroutable access", of(nil, []Op{{Kind: OpAccess, Addr: near}, {Kind: OpAccess, Addr: 0x1000}, end})},
		{"unroutable atomic", of(nil, []Op{{Kind: OpAtomic, Addr: uint64(addr.FarBase) - 64}, end})},
		{"unroutable DMA source", of(nil, []Op{{Kind: OpDMA, Addr: 1, Addr2: far, Size: 8}, end})},
		{"unroutable DMA destination", of(nil, []Op{{Kind: OpDMA, Addr: far, Addr2: 64, Size: 8}, end})},
		{"phase id out of range", of([]string{"only"}, []Op{{Kind: OpPhase, Addr: 1}, end})},
		{"first failure in thread order", of([]string{"only"},
			[]Op{{Kind: OpBarrier}, end},
			[]Op{{Kind: OpAccess, Addr: 8}, {Kind: OpPhase, Addr: 9}, end},
			[]Op{end, end})},
		{"failure then more ops", of(nil, []Op{{Kind: OpAccess, Addr: 0x40, Gap: 7}, {Kind: OpAccess, Addr: far, Write: true}, {Kind: OpBarrier}, end})},
		{"zero threads", of(nil)},
		{"too many phase names", of(make([]string, maxPhaseNames+1), []Op{end})},
	}
}

// sampleTrace records three threads, each touching every op kind once.
func sampleTrace() *Trace {
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

// sortishTrace records a trace shaped like the sorting workloads the format
// is tuned for, sealed under fj: line-aligned sequential accesses in both
// windows, compute gaps drawn from a few distinct cost sums, alternating
// loads and stores, occasional DMA and barriers, and thread 0 marking the
// phases sort, merge and sort again.
func sortishTrace(threads, opsPerThread int, fj ForkJoin) *Trace {
	rec := NewRecorder(threads, tinyL1(), DefaultCosts())
	gaps := []int64{180, 200, 220, 200, 180, 4}
	for tid := 0; tid < threads; tid++ {
		tp := rec.Thread(tid)
		for i := 0; i < opsPerThread; i += 32 {
			if tid == 0 && i == 0 {
				tp.Phase("sort")
			} else if tid == 0 && i == opsPerThread/64*32 {
				tp.Phase("merge")
			}
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
				tp.DMA(addr.FarBase+addr.Addr(tid<<24+i*64), addr.NearBase+addr.Addr(tid<<20), 4096)
				tp.DMAWait()
				tp.Barrier()
			}
		}
		if tid == 0 {
			tp.Phase("sort") // re-entering a phase reuses its interned id
		}
		tp.Barrier()
	}
	return rec.Finish(fj)
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

// builderCase generates one decoded trace aimed at the decisions the builder
// makes and the reference makes differently: where tag runs start and stop
// (around the 2/3 boundary, across chunk boundaries), how many distinct gaps
// there are and how their frequencies tie, which trailing zeros the
// addresses share and in which order the less aligned ones arrive. It is a
// pure function of its arguments, so a failing case is its argument tuple.
func builderCase(seed uint64, threads, shape uint8) *Trace {
	r := xrand.New(seed)
	tr := &Trace{
		L1:         L1Geometry{Capacity: 2 * units.KiB, LineSize: units.Bytes(1) << (4 + r.Intn(4)), Ways: 2},
		Costs:      DefaultCosts(),
		PhaseNames: []string{"scatter", "sort", "merge"},
	}
	// Each thread draws its own alignment, gap palette and run lengths, so
	// one trace seals threads under different shifts and dictionary sizes.
	tr.Streams = make([][]Op, int(threads)%6+1)
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
		var s []Op
		for len(s) < length {
			var op Op
			switch v := r.Intn(100); {
			case v < 45:
				op = Op{Kind: OpAccess, Addr: address()}
			case v < 70:
				op = Op{Kind: OpAccess, Write: true, Addr: address()}
			case v < 78:
				op = Op{Kind: OpAtomic, Addr: address()}
			case v < 84:
				op = Op{Kind: OpDMA, Addr: address(), Addr2: address(), Size: uint32(r.Intn(1 << 20))}
			case v < 88:
				op = Op{Kind: OpDMAWait}
			case v < 92:
				op = Op{Kind: OpGap, Gap: math.MaxUint32}
			case v < 96:
				op = Op{Kind: OpBarrier}
			default:
				op = Op{Kind: OpPhase, Addr: uint64(r.Intn(len(tr.PhaseNames)))}
			}
			// A run repeats the op's tag — same kind, direction and gap
			// presence — with fresh addresses and gap values.
			hasGap := op.Gap != 0 || r.Intn(3) > 0
			for n := 1 + r.Intn(maxRun); n > 0; n-- {
				if hasGap && op.Kind != OpGap {
					for op.Gap = gap(); op.Gap == 0; op.Gap = gap() {
					}
				}
				if op.Kind == OpAccess || op.Kind == OpAtomic {
					op.Addr = address()
				}
				s = append(s, op)
			}
		}
		tr.Streams[t] = append(s, Op{Kind: OpEnd, Gap: gap()})
	}
	return tr
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
