package machine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/xrand"
)

// The semantic trace generator: valid multi-thread op streams built at the
// level the core model reasons about — reads that fill MSHRs, ordering
// points that drain them, gaps that end before, exactly at, or long after a
// fill lands — rather than bytes for a decoder to reject. Everything is a
// pure function of the arguments, so a failing case is its argument tuple.

// Trace shapes. Beyond the random mix, each one forces a situation the
// elision rules are most likely to get wrong.
const (
	shapeMix       = iota // independent random streams
	shapeIdentical        // every thread replays thread 0's stream: same-picosecond ties inside each L2 group
	shapeBarriers         // nothing but barriers (some behind gaps)
	shapeEmpty            // nothing but OpEnd (some behind gaps)
	shapeReadStorm        // back-to-back reads over few lines: MSHRs always full
	numShapes
)

var oracleMSHRs = [...]int{1, 2, 4, 16}

// oracleCase is one differential input: a trace and the knobs of the node
// it replays on.
type oracleCase struct {
	name   string
	tr     *trace.Trace
	mshrs  int
	hz     units.Hz
	faults uint64 // fault seed; 0 = perfect memory
}

// config builds the node for one replay of the case. Each replay needs its
// own Config because telemetry recorders are single-use.
func (c oracleCase) config(tel *telemetry.Recorder) Config {
	cfg := TinyConfig(8, units.MiB)
	cfg.Cores = (len(c.tr.Streams) + 3) / 4 * 4
	cfg.NoC = noc.Paper(cfg.Cores / cfg.CoresPerGroup)
	cfg.MaxOutstanding = c.mshrs
	cfg.CoreHz = c.hz
	if c.faults != 0 {
		cfg.Fault = fault.Profile(c.faults, 0.02)
	}
	cfg.Telemetry = tel
	return cfg
}

// semanticCase generates one case. threads, mshrs and shape are reduced
// into range, so any fuzzer-chosen bytes are a valid request.
func semanticCase(seed uint64, threads, mshrs, shape uint8, faults bool) oracleCase {
	r := xrand.New(seed)
	c := oracleCase{
		mshrs: oracleMSHRs[int(mshrs)%len(oracleMSHRs)],
		tr:    &trace.Trace{L1: tinyL1(), Costs: trace.DefaultCosts(), PhaseNames: []string{"scatter", "sort", "merge"}},
	}
	if faults {
		c.faults = seed | 1
	}
	// Half the cases clock the cores at 1 GHz. The memory system's latencies
	// are whole nanoseconds, so gaps then end on the same picosecond fills
	// land on — an L2 hit is exactly 11 cycles — and cores tie with each
	// other constantly; at the paper's 1.7 GHz (a 588 ps period) they almost
	// never do.
	c.hz = units.Hz(1.7e9)
	if r.Intn(2) == 0 {
		c.hz = units.Hz(1e9)
	}
	p, sh := int(threads)%16+1, int(shape)%numShapes
	c.name = fmt.Sprintf("seed=%d/threads=%d/mshrs=%d/shape=%d/faults=%v", seed, p, c.mshrs, sh, faults)

	// A small line pool keeps the 256-line L2s busy with hits, conflict
	// misses and dirty victims; a large one makes nearly every read a miss.
	lines := []int{4, 64, 1024, 8192}[r.Intn(4)]
	if sh == shapeReadStorm {
		lines = 4
	}
	line := func() uint64 {
		base := addr.FarBase
		if r.Intn(3) == 0 {
			base = addr.NearBase
		}
		return uint64(base) + 64*uint64(r.Intn(lines))
	}
	gap := func() uint32 {
		switch v := r.Intn(100); {
		case v < 40:
			return 0
		case v < 55:
			return uint32(10 + r.Intn(4)) // an L2 hit at 1 GHz, give or take
		case v < 75:
			return uint32(1 + r.Intn(64)) // shorter than a fill
		case v < 93:
			return uint32(1 + r.Intn(4096)) // around a fill's round trip
		case v < 99:
			return uint32(1 + r.Intn(1<<20)) // far past every fill
		default:
			return math.MaxUint32
		}
	}
	op := func() trace.Op {
		if sh == shapeReadStorm {
			return trace.Op{Kind: trace.OpAccess, Addr: line(), Gap: []uint32{0, 0, 1, 11}[r.Intn(4)]}
		}
		switch v := r.Intn(100); {
		case v < 42:
			return trace.Op{Kind: trace.OpAccess, Addr: line(), Gap: gap()}
		case v < 64:
			return trace.Op{Kind: trace.OpAccess, Write: true, Addr: line(), Gap: gap()}
		case v < 74:
			return trace.Op{Kind: trace.OpAtomic, Addr: line(), Gap: gap()}
		case v < 82:
			return trace.Op{Kind: trace.OpDMA, Addr: line(), Addr2: line(), Size: uint32(64 * (1 + r.Intn(256))), Gap: gap()}
		case v < 88:
			return trace.Op{Kind: trace.OpDMAWait, Gap: gap()}
		case v < 94:
			return trace.Op{Kind: trace.OpGap, Gap: gap()}
		default:
			return trace.Op{Kind: trace.OpPhase, Addr: uint64(r.Intn(len(c.tr.PhaseNames))), Gap: gap()}
		}
	}

	// Streams grow round by round; a round may end in a global barrier,
	// which every thread must then carry.
	streams := make([][]trace.Op, p)
	for rounds := 1 + r.Intn(5); rounds > 0; rounds-- {
		barrier := r.Intn(2) == 0 || sh == shapeBarriers
		for t := range streams {
			if sh == shapeMix || sh == shapeReadStorm || (sh == shapeIdentical && t == 0) {
				for n := r.Intn(40); n > 0; n-- {
					streams[t] = append(streams[t], op())
				}
			}
			if barrier && sh != shapeEmpty && sh != shapeIdentical {
				streams[t] = append(streams[t], trace.Op{Kind: trace.OpBarrier, Gap: gap()})
			}
		}
		if barrier && sh == shapeIdentical {
			streams[0] = append(streams[0], trace.Op{Kind: trace.OpBarrier, Gap: gap()})
		}
	}
	for t := range streams {
		if sh == shapeIdentical && t > 0 {
			streams[t] = append([]trace.Op(nil), streams[0]...)
			continue
		}
		streams[t] = append(streams[t], trace.Op{Kind: trace.OpEnd, Gap: gap()})
	}
	c.tr.Streams = streams
	return c
}

// rows renders a recorder's sample rows as CSV minus the one column that
// differs by definition, sim.events.
func rows(t *testing.T, tel *telemetry.Recorder) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tel.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	drop := -1
	for i, name := range strings.Split(lines[0], ",") {
		if name == "sim.events" {
			drop = i
		}
	}
	if drop < 0 {
		t.Fatal("rows: no sim.events column to drop — the filter is stale")
	}
	var out strings.Builder
	for _, l := range lines {
		if l == "" {
			continue
		}
		f := strings.Split(l, ",")
		out.WriteString(strings.Join(append(f[:drop:drop], f[drop+1:]...), ","))
		out.WriteByte('\n')
	}
	return out.String()
}

// tracks renders what a recorder captured beside the sample rows — phase
// marks, barrier-wait and DMA-copy spans, fault instants, all in event-loop
// order — as the Chrome export minus its counter events.
func tracks(t *testing.T, tel *telemetry.Recorder) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tel.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, l := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if !bytes.HasPrefix(l, []byte(`{"ph":"C"`)) {
			out.Write(l)
		}
	}
	return out.String()
}

// checkAgainstReference is the differential: the fast kernel must equal the
// reference replay on every Result field but Events, on every telemetry
// sample row but the sim.events column and on every span and mark, account
// for every event it did not run (reference Events == Events + Elided), and
// be indifferent to slicing. It returns the fast kernel's Result.
func checkAgainstReference(t *testing.T, c oracleCase) Result {
	t.Helper()
	if err := c.tr.Validate(); err != nil {
		t.Fatalf("%s: generator produced an invalid trace: %v", c.name, err)
	}
	// Sample every microsecond, or coarser when the trace is mostly compute:
	// a gap of 2^32-1 cycles is seconds of simulated time, which is fine for
	// the kernel and millions of rows for a microsecond sampler. A thread's
	// gap total bounds its compute time, so this keeps a case to a few
	// hundred rows.
	epoch := units.Microsecond
	for _, s := range c.tr.Streams {
		var cycles units.Time
		for _, op := range s {
			cycles += units.Time(op.Gap)
		}
		if e := cycles * c.hz.Period() / 128; e > epoch {
			epoch = e
		}
	}
	replay := func(slice uint64) (Result, *telemetry.Recorder) {
		tel := telemetry.New(epoch)
		res, err := New(c.config(tel)).ReplaySliced(c.tr, slice, func() error { return nil })
		var mf *fault.MemFaultError
		if err != nil && !(c.faults != 0 && errors.As(err, &mf)) {
			t.Fatalf("%s: fast replay (slice %d): %v", c.name, slice, err)
		}
		return res, tel
	}

	refTel := telemetry.New(epoch)
	ref := referenceReplay(c.config(refTel), c.tr)
	fast, fastTel := replay(0)

	if ref.Elided != 0 {
		t.Fatalf("%s: the reference elided %d events; it must schedule every one", c.name, ref.Elided)
	}
	if ref.Events != fast.Events+fast.Elided {
		t.Errorf("%s: reference ran %d events, fast kernel %d + %d elided = %d",
			c.name, ref.Events, fast.Events, fast.Elided, fast.Events+fast.Elided)
	}
	want, got := ref, fast
	want.Events, got.Events, got.Elided = 0, 0, 0
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: Result diverged from the reference\n got %+v\nwant %+v", c.name, got, want)
	}
	fastRows := rows(t, fastTel)
	if rows(t, refTel) != fastRows {
		t.Errorf("%s: telemetry sample rows diverged from the reference", c.name)
	}
	if tracks(t, refTel) != tracks(t, fastTel) {
		t.Errorf("%s: telemetry spans and marks diverged from the reference", c.name)
	}
	for _, slice := range []uint64{1, 7, 1000} {
		sliced, slicedTel := replay(slice)
		if !reflect.DeepEqual(fast, sliced) {
			t.Errorf("%s: slice %d changed the Result\n got %+v\nwant %+v", c.name, slice, sliced, fast)
		}
		if rows(t, slicedTel) != fastRows {
			t.Errorf("%s: slice %d changed the telemetry sample rows", c.name, slice)
		}
	}
	return fast
}

// TestReplayMatchesReference sweeps the generator: every shape, every MSHR
// depth, 1–16 threads, faults on and off.
func TestReplayMatchesReference(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 60
	}
	var elided, events uint64
	for seed := 0; seed < seeds; seed++ {
		r := xrand.New(uint64(seed) + 1)
		c := semanticCase(r.Uint64(), uint8(r.Intn(16)), uint8(seed), uint8(seed/4), r.Intn(3) == 0)
		res := checkAgainstReference(t, c)
		if t.Failed() {
			t.FailNow() // one diverging case is enough output
		}
		elided += res.Elided
		events += res.Events
	}
	if elided == 0 {
		t.Fatal("no case elided a single event: the generator is not reaching the elision sites")
	}
	t.Logf("%d cases: %d events run, %d elided", seeds, events, elided)
}

// TestNearBlindReplayIgnoresNear is the property the harness's shared
// replays rest on: a trace that never reaches the near memory — far→far DMA
// included — replays to the same Result, Events and Elided too, on machines
// that differ only in Config.Near, once the Result's echoes of that
// configuration are re-derived (Result.ForNear). The generator's traces are
// made near-blind by moving every near address into the far window.
func TestNearBlindReplayIgnoresNear(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	replay := func(c oracleCase, cfg Config) Result {
		res, err := Run(cfg, c.tr)
		var mf *fault.MemFaultError
		if err != nil && !(c.faults != 0 && errors.As(err, &mf)) {
			t.Fatalf("%s: %v", c.name, err)
		}
		return res
	}
	toFar := func(a *uint64) {
		if addr.Addr(*a) >= addr.NearBase {
			*a = *a - uint64(addr.NearBase) + uint64(addr.FarBase)
		}
	}
	echoed, dmas := 0, uint64(0)
	for seed := 0; seed < seeds; seed++ {
		r := xrand.New(uint64(seed) + 77)
		c := semanticCase(r.Uint64(), uint8(r.Intn(16)), uint8(seed), uint8(seed/4), r.Intn(3) == 0)
		for _, s := range c.tr.Streams {
			for i := range s {
				if k := s[i].Kind; k == trace.OpAccess || k == trace.OpAtomic || k == trace.OpDMA {
					toFar(&s[i].Addr)
					toFar(&s[i].Addr2)
				}
			}
		}
		if !c.tr.NearBlind() {
			t.Fatalf("%s: trace still reaches the near memory", c.name)
		}
		base := replay(c, c.config(nil))
		if base.NearStats.Accesses() != 0 || base.NearUtilization != 0 {
			t.Fatalf("%s: a near-blind replay reached the near device: %+v", c.name, base.NearStats)
		}
		dmas += base.DMACopies
		for k := 0; k < 3; k++ {
			cfg := c.config(nil)
			cfg.Near.Channels = 1 + r.Intn(64)
			cfg.Near.ChannelBW = units.BytesPerSecond(1 + r.Intn(1<<40))
			cfg.Near.Latency = units.Time(r.Intn(1 << 30))
			cfg.Near.Capacity = units.Bytes(r.Intn(1 << 30))
			got := replay(c, cfg)
			if want := base.ForNear(cfg.Near); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Near = %+v changed a near-blind replay\n got %+v\nwant %+v", c.name, cfg.Near, got, want)
			}
			if !reflect.DeepEqual(got, base) {
				echoed++
			}
		}
	}
	if echoed == 0 || dmas == 0 {
		t.Fatalf("%d replays echoed their Near, %d DMA copies ran: the property is not reaching what it is about", echoed, dmas)
	}
}

// FuzzReplayMatchesReference hands the generator's arguments to the fuzzer.
// scripts/check.sh runs it briefly as a smoke.
func FuzzReplayMatchesReference(f *testing.F) {
	for shape := uint8(0); shape < numShapes; shape++ {
		f.Add(uint64(2015)+uint64(shape), uint8(3*shape+1), shape, shape, shape%2 == 0)
	}
	f.Add(uint64(1), uint8(0), uint8(0), uint8(shapeReadStorm), false) // one thread, one MSHR
	f.Add(uint64(7), uint8(15), uint8(3), uint8(shapeIdentical), true)
	f.Fuzz(func(t *testing.T, seed uint64, threads, mshrs, shape uint8, faults bool) {
		checkAgainstReference(t, semanticCase(seed, threads, mshrs, shape, faults))
	})
}
