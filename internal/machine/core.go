package machine

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/units"
)

// core replays one thread's op stream as an in-order issue processor with
// miss-level parallelism: compute gaps advance time, line fills are issued
// without blocking until MaxOutstanding are in flight, writebacks post,
// barriers and atomics drain outstanding misses first, DMA descriptors hand
// off to the background engine.
type core struct {
	m     *Machine
	id    int
	group int

	// cur streams the thread's ops. For a decoded *Trace it walks the op
	// slice; for an mmapped v3 trace it decodes each op on the fly from the
	// thread's column segments — either way the core only ever sees cur.Cur.
	// eos latches once the stream is exhausted (it is the cursor-world
	// pc >= len(stream)); the current op stays addressable across the
	// stall-return-resume cycles below because Next is only called by
	// advance, never by a resume.
	cur    trace.Cursor
	eos    bool
	period units.Time

	// Pre-bound method-value events, created once per replay. Evaluating a
	// method value (c.run) allocates a bound-method closure every time, so
	// the hot scheduling sites below schedule these fields instead — the
	// three dominant per-op schedules (gap resume, fill completion, DMA
	// completion) then allocate nothing.
	runEv      engine.Event // c.run
	fillDoneEv engine.Event // c.fillDone
	dmaDoneEv  engine.Event // c.dmaDone

	gapDone   bool // the current op's leading gap has been consumed
	inflight  int  // outstanding line fills
	stallFull bool // stalled because all MSHR slots are busy
	draining  bool // stalled until inflight drains to zero
	dmaOut    int  // outstanding DMA copies issued by this core
	dmaWait   bool
	done      bool
}

// run advances the core from the current simulated time. It either
// processes ops until it must wait or finishes the stream. This is the
// per-core replay callback — the dominant event body of every experiment.
//
//nmlint:hotpath
func (c *core) run() {
	for !c.eos {
		op := c.cur.Cur

		// Consume the op's leading compute gap exactly once.
		if !c.gapDone && op.Gap > 0 {
			c.gapDone = true
			c.m.sim.After(units.Time(op.Gap)*c.period, c.runEv)
			return
		}

		switch op.Kind {
		case trace.OpGap:
			// Pure compute carrier; the gap was consumed above.
			c.next()

		case trace.OpAccess:
			if op.Write {
				// Posted writeback: occupies the L2 port but the core
				// continues immediately.
				c.m.writeback(c.group, addr.Addr(op.Addr))
				c.next()
				continue
			}
			if c.inflight >= c.m.cfg.MaxOutstanding {
				c.stallFull = true
				return // fillDone resumes us without advancing the cursor
			}
			done := c.m.fill(c.group, addr.Addr(op.Addr))
			c.inflight++
			c.m.sim.At(done, c.fillDoneEv)
			c.next()

		case trace.OpAtomic:
			if !c.drained() {
				return
			}
			done := c.m.atomic(c.group, addr.Addr(op.Addr))
			c.next()
			if done > c.m.sim.Now() {
				c.m.sim.At(done, c.runEv)
				return
			}

		case trace.OpBarrier:
			if !c.drained() {
				return
			}
			c.next()
			c.m.barrier.arrive(c)
			return

		case trace.OpDMA:
			c.dmaOut++
			c.m.dma.enqueue(c, addr.Addr(op.Addr), addr.Addr(op.Addr2), units.Bytes(op.Size))
			c.next()

		case trace.OpDMAWait:
			if c.dmaOut > 0 {
				c.dmaWait = true
				c.next()
				return // dmaEngine resumes us when the last copy lands
			}
			c.next()

		case trace.OpEnd:
			if !c.drained() {
				return
			}
			c.done = true
			c.next()
			return

		case trace.OpPhase:
			// Timing-neutral marker: snapshot device counters for phase
			// attribution, no memory traffic, no simulated time.
			c.m.notePhase(int(op.Addr))
			c.next()

		default:
			panic(fmt.Sprintf("machine: core %d hit unknown op kind %d", c.id, op.Kind))
		}
	}
	// Replay runs over validated sources, whose cursors never fail; a
	// failure here means the backing bytes changed underneath the replay.
	if err := c.cur.Err(); err != nil {
		panic(fmt.Sprintf("machine: core %d stream broke mid-replay: %v", c.id, err))
	}
}

// outstanding counts the work this core has issued or still owes: line
// fills in flight, unfinished DMA copies, and the op stream itself until
// OpEnd retires. The engine's watchdog flags any nonzero count once the
// event queue drains.
func (c *core) outstanding() int {
	n := c.inflight + c.dmaOut
	if !c.done {
		n++
	}
	return n
}

// drained reports whether all outstanding fills have landed, arranging to
// resume at the drain point if not. Ordering points (atomics, barriers,
// stream end) call this before proceeding.
func (c *core) drained() bool {
	if c.inflight == 0 {
		return true
	}
	c.draining = true
	return false
}

// fillDone retires one outstanding fill and wakes the core if it was
// stalled on a full MSHR or draining.
//
//nmlint:hotpath
func (c *core) fillDone() {
	c.inflight--
	if c.stallFull {
		c.stallFull = false
		c.run()
		return
	}
	if c.draining && c.inflight == 0 {
		c.draining = false
		c.run()
	}
}

// dmaDone retires one background copy issued by this core and wakes it if
// it was parked on an OpDMAWait.
//
//nmlint:hotpath
func (c *core) dmaDone() {
	c.dmaOut--
	if c.dmaWait && c.dmaOut == 0 {
		c.dmaWait = false
		c.run()
	}
}

func (c *core) next() {
	c.eos = !c.cur.Next()
	c.gapDone = false
}

// barrierCtl synchronizes the replaying cores at recorded barrier points
// and logs each release time (the algorithm's phase boundaries).
type barrierCtl struct {
	need     int
	waiting  []*core
	arrivals []units.Time // arrival time of each waiting core, same order
	releases []units.Time
}

func (b *barrierCtl) arrive(c *core) {
	//nmlint:ignore hotpath amortized: the release below recycles the backing array, so growth stops after the first cycle
	b.waiting = append(b.waiting, c)
	//nmlint:ignore hotpath amortized: recycled with waiting at release
	b.arrivals = append(b.arrivals, c.m.sim.Now())
	if len(b.waiting) < b.need {
		return
	}
	released := b.waiting
	arrivals := b.arrivals
	now := c.m.sim.Now()
	//nmlint:ignore hotpath one append per global barrier; bounded by the trace's barrier count
	b.releases = append(b.releases, now)
	if tel := c.m.tel; tel != nil {
		// One wait slice per core, arrival to release, on its own track —
		// the Perfetto view of load imbalance at each phase boundary.
		for i, w := range released {
			tel.Span(c.m.coreTracks[w.id], "barrier-wait", arrivals[i], now)
		}
	}
	for _, w := range released {
		c.m.sim.At(now, w.runEv)
	}
	// Recycle the buffers for the next cycle: every release is fully walked
	// above (only the scheduled runEv values outlive this call), so the next
	// barrier's arrivals can safely reuse the backing arrays instead of
	// reallocating them once per cycle.
	b.waiting = released[:0]
	b.arrivals = arrivals[:0]
}

// dmaEngine streams bulk copies between the memory devices in the
// background — the paper's §VII future-work extension. A copy occupies
// bandwidth on both the source and destination devices; its completion is
// bounded by the slower side. Copies from different cores proceed
// concurrently (each device's channel resources serialize as needed).
type dmaEngine struct {
	m      *Machine
	issued uint64
	bytes  uint64
}

func (d *dmaEngine) enqueue(c *core, src, dst addr.Addr, n units.Bytes) {
	d.issued++
	d.bytes += uint64(n)
	now := d.m.sim.Now()
	// The source device streams the copy out (reads), the destination
	// absorbs it (writes); each side accounts its own direction.
	var read, write units.Time
	//nmlint:ignore escape-check inlined LevelOf panic formatting; only the cold out-of-window exit allocates
	if addr.LevelOf(src) == addr.Near {
		read = d.m.near.BulkAcquire(now, n, false)
	} else {
		read = d.m.far.BulkAcquire(now, n, false)
	}
	//nmlint:ignore escape-check inlined LevelOf panic formatting; cold exit only
	if addr.LevelOf(dst) == addr.Near {
		write = d.m.near.BulkAcquire(now, n, true)
	} else {
		write = d.m.far.BulkAcquire(now, n, true)
	}
	done := read
	if write > done {
		done = write
	}
	if tel := d.m.tel; tel != nil {
		tel.Span("dma", "copy", now, done)
	}
	d.m.sim.At(done, c.dmaDoneEv)
}
