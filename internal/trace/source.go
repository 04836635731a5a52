package trace

// Source is a replayable trace, whatever its in-memory representation: the
// sealed columns a recorder or ReadTrace produces, the mmap-backed *Columnar
// view of a v3 file — all decode ops lazily through cursors — or a *Trace a
// test built from decoded streams. The machine, the harness, and the serving
// layer all accept a Source, so nothing above this package ever materializes
// []Op to replay.
//
// A Source is immutable and safe for concurrent use: CursorAt hands every
// replay its own iteration state over the shared backing data.
type Source interface {
	// Threads returns the number of per-thread op streams.
	Threads() int
	// ThreadOps returns the number of ops in thread tid's stream.
	ThreadOps(tid int) int
	// Ops returns the total op count across all threads.
	Ops() int
	// PhaseTable resolves OpPhase markers: an OpPhase op's Addr indexes it.
	PhaseTable() []string
	// Geometry returns the record-time L1 filter geometry.
	Geometry() L1Geometry
	// CostModel returns the record-time core cycle charges.
	CostModel() Costs
	// CursorAt returns a fresh cursor positioned before thread tid's first
	// op. Cursors are single-goroutine values; take one per replay core.
	CursorAt(tid int) Cursor
	// Validate checks stream well-formedness (termination, barrier
	// agreement, address routing, phase ids) without retaining decoded ops.
	Validate() error
	// Digest returns the stable 64-bit content fingerprint shared by every
	// encoding of the same logical trace (see Trace.Digest).
	Digest() (uint64, error)
	// NearBlind reports that no op of the trace reaches the near memory: no
	// access or atomic in the near window and no DMA endpoint there. A replay
	// of such a trace never sends the near device a request, whatever the
	// machine. Exact for a trace that passes Validate; a columnar file
	// that fails it reports false.
	NearBlind() bool
}

// Compile-time checks: both representations satisfy Source.
var (
	_ Source = (*Trace)(nil)
	_ Source = (*Columnar)(nil)
)

// Threads returns the number of per-thread op streams.
func (tr *Trace) Threads() int {
	if tr.cols != nil {
		return tr.cols.Threads()
	}
	return len(tr.Streams)
}

// ThreadOps returns the number of ops in thread tid's stream.
func (tr *Trace) ThreadOps(tid int) int {
	if tr.cols != nil {
		return tr.cols.ThreadOps(tid)
	}
	return len(tr.Streams[tid])
}

// NearBlind reports whether no op reaches the near memory: the sealed
// columns' bit, or a walk of the decoded streams.
func (tr *Trace) NearBlind() bool {
	if tr.cols != nil {
		return tr.cols.NearBlind()
	}
	return !tr.streamsFootprint().near
}

// PhaseTable returns the phase-name table.
func (tr *Trace) PhaseTable() []string { return tr.PhaseNames }

// Geometry returns the record-time L1 geometry.
func (tr *Trace) Geometry() L1Geometry { return tr.L1 }

// CostModel returns the record-time cycle charges.
func (tr *Trace) CostModel() Costs { return tr.Costs }

// CursorAt returns a cursor over thread tid's columns, or over its decoded
// op slice.
func (tr *Trace) CursorAt(tid int) Cursor {
	if tr.cols != nil {
		return tr.cols.CursorAt(tid)
	}
	return Cursor{ops: tr.Streams[tid], tid: tid}
}
