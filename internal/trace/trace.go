// Package trace is the instrumentation seam between the algorithms and the
// machine simulator — the role the Ariel/Pin pipeline plays in the paper's
// SST setup (Figure 5). Algorithms execute natively on Go slices while a
// per-thread probe observes every logical memory access. The probe filters
// the raw stream through a private L1 model (so L1 hits never become
// simulation events, they fold into compute gaps) and records the surviving
// L2-level line operations, compute gaps, barriers, and DMA descriptors.
//
// A recorded trace is replayed by internal/machine under any memory
// configuration. Recording once and replaying under 2X/4X/8X near-memory
// bandwidth mirrors the paper's methodology: the instruction stream is
// identical across configurations, only the memory system differs.
package trace

import (
	"fmt"
	"sync"

	"repro/internal/addr"
	"repro/internal/cachesim"
	"repro/internal/units"
)

// Kind discriminates trace operations.
type Kind uint8

// Operation kinds.
const (
	OpAccess  Kind = iota // line fill (Write=false) or writeback (Write=true)
	OpAtomic              // serialized read-modify-write of one line
	OpBarrier             // all threads rendezvous
	OpDMA                 // enqueue an asynchronous bulk copy (paper §VII future work)
	OpDMAWait             // block until all DMA copies issued by this thread finish
	OpGap                 // pure compute time (only for gaps overflowing a uint32)
	OpEnd                 // end of thread stream
	OpPhase               // algorithm phase marker (Addr = index into Trace.PhaseNames)
)

// Op is one recorded event in a thread's stream. Gap carries the core
// compute cycles that elapsed since the previous recorded op, so replay can
// reconstruct the full timeline without storing per-instruction detail.
type Op struct {
	Addr  uint64 // line-aligned address (OpAccess/OpAtomic); DMA source
	Addr2 uint64 // DMA destination
	Size  uint32 // DMA bytes
	Gap   uint32 // core cycles of compute preceding this op
	Kind  Kind
	Write bool // OpAccess direction: true = toward memory (writeback)
}

// Costs are the core's cycle charges — the calibration constants that set
// the paper's processing rate x. The defaults put a 256-core 1.7GHz node
// near the paper's x ≈ 10¹⁰ comparisons/s, which is what makes sorting
// memory-bound at 256 cores and compute-bound at 128 (Section V-A).
type Costs struct {
	IssueCycles   int64 // every load/store issue
	L1HitCycles   int64 // additional latency of an L1 hit (2ns ≈ 3 cycles)
	CompareCycles int64 // one key comparison incl. branch logic
	AtomicCycles  int64 // local cost of an atomic RMW (bus time modeled at replay)
}

// DefaultCosts returns the calibrated defaults (see EXPERIMENTS.md).
func DefaultCosts() Costs {
	return Costs{IssueCycles: 1, L1HitCycles: 3, CompareCycles: 30, AtomicCycles: 20}
}

// L1Geometry describes the private L1 used as the record-time filter.
type L1Geometry struct {
	Capacity units.Bytes
	LineSize units.Bytes
	Ways     int
}

// Validate reports why no L1 filter of this geometry can be built, in
// cachesim's words with the type named; NewRecorder panics with the same
// text.
func (g L1Geometry) Validate() error {
	if err := cachesim.CheckGeometry(g.Capacity, g.LineSize, g.Ways); err != nil {
		return fmt.Errorf("trace: L1Geometry %+v: %w", g, err)
	}
	return nil
}

// TP is a per-thread probe. All methods are safe on a nil receiver and do
// nothing, so algorithms run uninstrumented ("pure mode") when handed a nil
// *TP — the mode used for correctness tests and native benchmarks.
type TP struct {
	l1    *cachesim.Cache
	line  uint64
	pend  int64 // compute cycles since last recorded op
	costs Costs
	cols  colBuilder   // the thread's columns: emit puts every op here
	count *LevelCounts // a counter's probe tallies its ops here instead
	rec   *Recorder    // owning recorder, for phase-name interning
}

// access runs one line-granular access through the L1 filter.
func (t *TP) access(a uint64, write bool) {
	r := t.l1.Access(a, write)
	if r.Hit {
		t.pend += t.costs.IssueCycles + t.costs.L1HitCycles
		return
	}
	t.pend += t.costs.IssueCycles
	if r.HasWB {
		t.emit(Op{Addr: r.Writeback, Kind: OpAccess, Write: true})
	}
	t.emit(Op{Addr: a &^ (t.line - 1), Kind: OpAccess, Write: false})
}

func (t *TP) emit(op Op) {
	if t.count != nil {
		if op.Kind == OpAccess || op.Kind == OpAtomic {
			t.count.tally(op)
		}
		return
	}
	if t.pend > 0 {
		const max = int64(^uint32(0))
		for t.pend > max {
			t.cols.put(Op{Kind: OpGap, Gap: uint32(max)})
			t.pend -= max
		}
		op.Gap = uint32(t.pend)
		t.pend = 0
	}
	t.cols.put(op)
}

// Load records a read of size bytes at address a.
func (t *TP) Load(a addr.Addr, size int) {
	if t == nil {
		return
	}
	first := uint64(a) &^ (t.line - 1)
	last := (uint64(a) + uint64(size) - 1) &^ (t.line - 1)
	for l := first; l <= last; l += t.line {
		t.access(l, false)
	}
}

// Store records a write of size bytes at address a (write-allocate).
func (t *TP) Store(a addr.Addr, size int) {
	if t == nil {
		return
	}
	first := uint64(a) &^ (t.line - 1)
	last := (uint64(a) + uint64(size) - 1) &^ (t.line - 1)
	for l := first; l <= last; l += t.line {
		t.access(l, true)
	}
}

// Compute charges raw compute cycles.
func (t *TP) Compute(cycles int64) {
	if t == nil {
		return
	}
	t.pend += cycles
}

// Compare charges the cost of n key comparisons.
func (t *TP) Compare(n int64) {
	if t == nil {
		return
	}
	t.pend += n * t.costs.CompareCycles
}

// Atomic records an atomic read-modify-write of the line at a. The line is
// treated as uncached (it is shared across cores), so every atomic reaches
// the memory system.
func (t *TP) Atomic(a addr.Addr) {
	if t == nil {
		return
	}
	t.pend += t.costs.AtomicCycles
	t.emit(Op{Addr: uint64(a) &^ (t.line - 1), Kind: OpAtomic})
}

// Barrier records a rendezvous point. The algorithm must pair every
// recorded barrier with its own real synchronization (see internal/par);
// replay re-synchronizes the simulated cores at the same points.
func (t *TP) Barrier() {
	if t == nil {
		return
	}
	t.emit(Op{Kind: OpBarrier})
}

// Phase records an algorithm phase boundary: everything the thread does
// from here until the next marker (or the stream's end) belongs to the
// named phase. Replay snapshots device counters at each marker, turning the
// deltas into per-phase bandwidth and utilization breakdowns.
//
// Phase markers carry no memory traffic and attach the pending compute gap
// exactly as the next op would, so a trace with markers replays to the
// identical timeline as the same trace without them. By convention exactly
// one thread (thread 0) marks phases: the names are interned in the shared
// Recorder, which is not synchronized.
func (t *TP) Phase(name string) {
	if t == nil {
		return
	}
	t.emit(Op{Addr: uint64(t.rec.phaseID(name)), Kind: OpPhase})
}

// DMA records an asynchronous bulk copy of n bytes from src to dst, the
// paper's future-work DMA engine (§VII). Replay charges the transfer to
// the memory channels in the background while the core continues.
func (t *TP) DMA(src, dst addr.Addr, n int) {
	if t == nil {
		return
	}
	t.emit(Op{Addr: uint64(src), Addr2: uint64(dst), Size: uint32(n), Kind: OpDMA})
}

// DMAWait records a block-until-DMA-drained point for this thread.
func (t *TP) DMAWait() {
	if t == nil {
		return
	}
	t.emit(Op{Kind: OpDMAWait})
}

// flushEnd drains the L1's dirty lines as writebacks and terminates the
// stream. Called by Recorder.Finish.
func (t *TP) flushEnd() {
	for _, l := range t.l1.FlushDirty() {
		t.emit(Op{Addr: l, Kind: OpAccess, Write: true})
	}
	t.emit(Op{Kind: OpEnd})
}

// Recorder owns the per-thread probes for one recorded run.
type Recorder struct {
	costs    Costs
	l1       L1Geometry
	threads  []*TP
	finished bool

	phaseNames []string       // interned phase names, in first-use order
	phaseIDs   map[string]int // lookup only (never ranged): name -> index
}

// NewRecorder creates probes for p threads.
func NewRecorder(p int, l1 L1Geometry, costs Costs) *Recorder {
	if p <= 0 {
		panic("trace: need at least one thread")
	}
	if err := l1.Validate(); err != nil {
		panic(err.Error())
	}
	r := &Recorder{costs: costs, l1: l1, threads: make([]*TP, p), phaseIDs: map[string]int{}}
	for i := range r.threads {
		r.threads[i] = &TP{
			l1:    cachesim.New(l1.Capacity, l1.LineSize, l1.Ways),
			line:  uint64(l1.LineSize),
			costs: costs,
			cols:  colBuilder{shift: provisionalShift(l1)},
			rec:   r,
		}
	}
	return r
}

// phaseID interns a phase name, returning its stable index. Called only
// from the single phase-marking thread (see TP.Phase).
func (r *Recorder) phaseID(name string) int {
	if id, ok := r.phaseIDs[name]; ok {
		return id
	}
	id := len(r.phaseNames)
	r.phaseNames = append(r.phaseNames, name)
	r.phaseIDs[name] = id
	return id
}

// Thread returns thread i's probe. Probes are single-goroutine objects:
// exactly one goroutine may use a given probe.
func (r *Recorder) Thread(i int) *TP {
	if r == nil {
		return nil
	}
	return r.threads[i]
}

// Threads returns the number of recorded threads.
func (r *Recorder) Threads() int { return len(r.threads) }

// Finish seals the recording: dirty L1 lines become trailing writebacks,
// every stream gets an end marker, the per-thread columns are sealed into
// one canonical v3 image (see builder.go), and the image's first walk
// validates it, counts it and writes its footer. The per-thread flush, seal
// and walk run under fj (nil: one after another). It returns the completed
// trace, which replays those columns in place. Calling Finish twice panics.
func (r *Recorder) Finish(fj ForkJoin) *Trace {
	r.markFinished()
	builders := make([]*colBuilder, len(r.threads))
	for i, t := range r.threads {
		if t.count != nil {
			panic("trace: Finish of a NewCounter recorder")
		}
		builders[i] = &t.cols
	}
	fj.run(len(r.threads), func(i int) { r.threads[i].flushEnd() })
	return sealImage(r.costs, r.l1, r.phaseNames, builders, fj).firstWalk(fj).AsTrace()
}

// NewCounter is NewRecorder for a run that is only counted, never
// replayed, stored or digested (the m1 and m3 rows): its probes tally each
// op's line transfers as they emit it, and build no columns. Count returns
// the tally; Finish panics.
func NewCounter(p int, l1 L1Geometry, costs Costs) *Recorder {
	r := NewRecorder(p, l1, costs)
	for _, t := range r.threads {
		t.count = new(LevelCounts)
	}
	return r
}

// Count ends a NewCounter recording: dirty L1 lines become trailing
// writebacks, as Finish makes them, and it returns the line transfers per
// level that Finish's trace would count. Calling it twice panics.
func (r *Recorder) Count() LevelCounts {
	r.markFinished()
	var c LevelCounts
	for _, t := range r.threads {
		if t.count == nil {
			panic("trace: Count of a recorder NewCounter did not make")
		}
		t.flushEnd()
		c.add(*t.count)
	}
	return c
}

// markFinished ends the recording, once.
func (r *Recorder) markFinished() {
	if r.finished {
		panic("trace: Recorder finished twice")
	}
	r.finished = true
}

// Trace is a completed recording. Traces are immutable once finished (or
// deserialized): replay, sweeps, and the serving layer all share one *Trace
// read-only across concurrent replays.
//
// A trace is its sealed v3 columns: a recording, a v2 stream read by
// ReadTrace, and a cache file opened by the harness all arrive sealed, with
// Streams nil. Streams is only an input — what a test builds by hand, or what
// Decode hands back — and Columns seals it on first use; every other method
// asks the columns.
type Trace struct {
	Streams [][]Op
	L1      L1Geometry
	Costs   Costs

	// PhaseNames resolves OpPhase markers: an OpPhase op's Addr indexes
	// this table. Empty for traces recorded without phase markers.
	PhaseNames []string

	sealOnce sync.Once
	cols     *Columnar
}

// Columns returns the sealed columns the trace is made of, sealing a
// hand-built trace's Streams, and walking them once as a recording's are,
// the first time it is asked. Sealing refuses nothing: a trace no file could
// hold (no threads, too many phase names) still gets its errors where it
// always did, from Digest, WriteTo and EncodeColumnar.
func (tr *Trace) Columns() *Columnar {
	tr.sealOnce.Do(func() {
		if tr.cols != nil {
			return
		}
		builders := make([]*colBuilder, len(tr.Streams))
		for t, ops := range tr.Streams {
			b := &colBuilder{shift: provisionalShift(tr.L1)}
			for _, op := range ops {
				b.put(op)
			}
			builders[t] = b
		}
		tr.cols = sealImage(tr.Costs, tr.L1, tr.PhaseNames, builders, nil).firstWalk(nil)
	})
	return tr.cols
}

// Ops returns the total number of recorded operations.
func (tr *Trace) Ops() int { return tr.Columns().Ops() }

// Validate checks stream well-formedness: every stream ends with exactly
// one OpEnd, barrier counts agree across all threads (replay would deadlock
// otherwise), every access address routes to a memory level, and every phase
// marker names a phase.
func (tr *Trace) Validate() error { return tr.Columns().Validate() }

// LevelCounts tallies line transfers per memory level, split by direction.
// This is the raw material for Table I's access columns and for the
// block-transfer model validation (Theorem 6).
type LevelCounts struct {
	FarReads   uint64
	FarWrites  uint64
	NearReads  uint64
	NearWrites uint64
	Atomics    uint64
}

// Far returns total far-memory line transfers.
func (c LevelCounts) Far() uint64 { return c.FarReads + c.FarWrites }

// Near returns total near-memory line transfers.
func (c LevelCounts) Near() uint64 { return c.NearReads + c.NearWrites }

// tally adds one OpAccess or OpAtomic. An address outside both windows
// tallies nowhere: rejecting it is Validate's job.
func (c *LevelCounts) tally(op Op) {
	switch a := addr.Addr(op.Addr); {
	case op.Kind == OpAtomic:
		c.Atomics++
	case a >= addr.NearBase:
		if op.Write {
			c.NearWrites++
		} else {
			c.NearReads++
		}
	case a >= addr.FarBase:
		if op.Write {
			c.FarWrites++
		} else {
			c.FarReads++
		}
	}
}

// inNear reports whether a lies in the near window.
func inNear(a uint64) bool { return addr.Addr(a) >= addr.NearBase }

// footprint is what one walk over a trace's ops learns about where they
// go — the line counts, and the bit the counts cannot give — and the op
// tallies nmtrace info prints beside them.
type footprint struct {
	counts LevelCounts
	near   bool // some op reaches the near memory: an access or atomic in its window, or a DMA endpoint there

	barriers, dmas, waits, cycles uint64 // OpBarrier, OpDMA and OpDMAWait ops; every op's gap, summed
}

// access adds one OpAccess or OpAtomic and dma one OpDMA, for walks that are
// already inside their own switch on Kind (threadCheck.op): ops of every
// other kind cost nothing but their tally. LevelCounts cannot stand in for
// near — Near() counts neither atomics nor DMA streams.
func (f *footprint) access(op Op) {
	f.counts.tally(op)
	if inNear(op.Addr) {
		f.near = true
	}
}

func (f *footprint) dma(op Op) {
	f.dmas++
	if inNear(op.Addr) || inNear(op.Addr2) {
		f.near = true
	}
}

func (f *footprint) add(o footprint) {
	f.counts.add(o.counts)
	f.near = f.near || o.near
	f.barriers += o.barriers
	f.dmas += o.dmas
	f.waits += o.waits
	f.cycles += o.cycles
}

func (c *LevelCounts) add(o LevelCounts) {
	c.FarReads += o.FarReads
	c.FarWrites += o.FarWrites
	c.NearReads += o.NearReads
	c.NearWrites += o.NearWrites
	c.Atomics += o.Atomics
}

// Count tallies the trace's line transfers per level. Note these are the
// L1-filtered counts; the replay-time shared L2 filters them further before
// they reach the memory devices.
func (tr *Trace) Count() LevelCounts { return tr.Columns().Count() }
