package trace

// Source is a replayable trace: v3 columns, whether a recorder or ReadTrace
// sealed them on the heap, Open mapped them from a file, or a *Trace sealed
// the streams a test built by hand. Ops are decoded lazily through cursors;
// the machine, the harness, and the serving layer all accept a Source, so
// nothing above this package ever materializes []Op to replay.
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

// Compile-time checks: the columns and the handle over them satisfy Source.
var (
	_ Source = (*Trace)(nil)
	_ Source = (*Columnar)(nil)
)

// Threads returns the number of per-thread op streams.
func (tr *Trace) Threads() int { return tr.Columns().Threads() }

// ThreadOps returns the number of ops in thread tid's stream.
func (tr *Trace) ThreadOps(tid int) int { return tr.Columns().ThreadOps(tid) }

// NearBlind reports whether no op reaches the near memory.
func (tr *Trace) NearBlind() bool { return tr.Columns().NearBlind() }

// PhaseTable returns the phase-name table.
func (tr *Trace) PhaseTable() []string { return tr.PhaseNames }

// Geometry returns the record-time L1 geometry.
func (tr *Trace) Geometry() L1Geometry { return tr.L1 }

// CostModel returns the record-time cycle charges.
func (tr *Trace) CostModel() Costs { return tr.Costs }

// CursorAt returns a cursor over thread tid's columns.
func (tr *Trace) CursorAt(tid int) Cursor { return tr.Columns().CursorAt(tid) }
