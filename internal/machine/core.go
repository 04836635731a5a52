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
//
// The core schedules an event only where it touches shared state or must
// wake (DESIGN.md §8, "Event elision"). A fill's completion touches nothing
// shared, so it gets a slot and a ticket instead of an event; the slot is
// retired lazily, and only a core that has to block redeems a ticket for a
// wake.
type core struct {
	m     *Machine
	id    int
	group int

	// cur streams the thread's ops, decoding each on the fly from the
	// thread's column segments: the core only ever sees cur.Cur.
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
	// dominant per-op schedules (gap resume, fill wake, DMA completion) then
	// allocate nothing.
	runEv     engine.Event // c.run
	dmaDoneEv engine.Event // c.dmaDone

	// fills[:nfill] are the line fills not yet retired: MaxOutstanding fixed
	// slots, carved out of one per-replay slab at setup. A slot stays here
	// past its completion time until the next run retires it, so nfill is
	// the in-flight count only right after retire.
	fills []fillSlot
	nfill int

	gapDone bool // the current op's leading gap has been consumed
	dmaOut  int  // outstanding DMA copies issued by this core
	dmaWait bool
	done    bool
}

// fillSlot is one outstanding line fill: when the line arrives, and the
// schedule-order ticket its completion event would have carried. The pair
// is the fill's position in the engine's (at, seq) order.
type fillSlot struct {
	done   units.Time
	ticket uint64
}

// before is the engine's event order applied to fills: time first, then
// schedule order.
func (a fillSlot) before(b fillSlot) bool {
	return a.done < b.done || (a.done == b.done && a.ticket < b.ticket)
}

// run advances the core from the current simulated time. It either
// processes ops until it must wait or finishes the stream. This is the
// per-core replay callback — the dominant event body of every experiment.
func (c *core) run() {
	if c.nfill > 0 {
		c.retire()
	}
	for !c.eos {
		op := c.cur.Cur

		// Consume the op's leading compute gap exactly once.
		if !c.gapDone && op.Gap > 0 {
			c.gapDone = true
			gap := units.Time(op.Gap) * c.period
			if f, ok := c.blockedPast(op, gap); ok {
				// Stall-fused gap: the op would come out of its gap only to
				// find the fill it must wait for still out, so skip the gap
				// event and park on that fill directly.
				c.m.elided++
				c.park(f)
				return
			}
			c.m.sim.After(gap, c.runEv)
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
			if c.nfill == len(c.fills) {
				c.park(c.earliest())
				return // the wake resumes us without advancing the cursor
			}
			// The ticket must be drawn after fill, which may itself post a
			// victim write: it is the sequence number a completion event
			// scheduled at this point would carry.
			done := c.m.fill(c.group, addr.Addr(op.Addr))
			c.fills[c.nfill] = fillSlot{done: done, ticket: c.m.sim.Ticket()}
			c.nfill++
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
// fills that land after the current time, unfinished DMA copies, and the
// op stream itself until OpEnd retires. The engine's watchdog flags any
// nonzero count once the event queue drains: a parked core whose wake was
// never pushed still owes its stream, and a fill past the drained clock is
// one nobody waited for.
func (c *core) outstanding() int {
	n := c.dmaOut
	now := c.m.sim.Now()
	for _, f := range c.fills[:c.nfill] {
		if f.done > now {
			n++
		}
	}
	if !c.done {
		n++
	}
	return n
}

// retire drops every fill at or before the executing event's (now, seq)
// position — exactly the fills whose completion events would have run by
// now. The one fill that sits *at* that position is the wake executing
// right now (tickets are unique), which is scheduled, not elided.
func (c *core) retire() {
	pos := fillSlot{done: c.m.sim.Now(), ticket: c.m.sim.Seq()}
	n := 0
	for _, f := range c.fills[:c.nfill] {
		switch {
		case pos.before(f):
			c.fills[n] = f
			n++
		case f.ticket != pos.ticket:
			c.m.elided++
		}
	}
	c.nfill = n
}

// earliest returns the outstanding fill first in (done, ticket) order: the
// one whose completion frees an MSHR slot. The core must have one.
func (c *core) earliest() fillSlot {
	min := c.fills[0]
	for _, f := range c.fills[1:c.nfill] {
		if f.before(min) {
			min = f
		}
	}
	return min
}

// latest returns the outstanding fill last in (done, ticket) order: the one
// whose completion finishes a drain. The core must have one.
func (c *core) latest() fillSlot {
	max := c.fills[0]
	for _, f := range c.fills[1:c.nfill] {
		if max.before(f) {
			max = f
		}
	}
	return max
}

// park blocks the core until f lands: one wake at f's own (done, ticket),
// the exact position in the global event order its completion event held.
func (c *core) park(f fillSlot) {
	c.m.sim.AtTicket(f.done, f.ticket, c.runEv)
}

// blockedPast reports whether op, once its leading gap has elapsed, would
// find the fill it has to wait for still outstanding — and which fill that
// is. A read waits for the earliest fill when every slot is taken; an
// ordering point waits for the latest. The comparison is strict: a fill
// landing exactly when the gap ends has the smaller sequence number (it was
// issued before the gap began), so its completion precedes the gap's end
// and the op would not block. Ops that reach the L2 port are never fused —
// the shared L2 and its bus must be touched in timestamp order.
func (c *core) blockedPast(op trace.Op, gap units.Time) (fillSlot, bool) {
	if c.nfill == 0 {
		return fillSlot{}, false
	}
	var f fillSlot
	switch op.Kind {
	case trace.OpAccess:
		if op.Write || c.nfill < len(c.fills) {
			return fillSlot{}, false
		}
		f = c.earliest()
	case trace.OpAtomic, trace.OpBarrier, trace.OpEnd:
		f = c.latest()
	default:
		return fillSlot{}, false
	}
	// done-now rather than now+gap: no overflow for any gap.
	return f, f.done-c.m.sim.Now() > gap
}

// drained reports whether all outstanding fills have landed, parking the
// core until the last one does if not. Ordering points (atomics, barriers,
// stream end) call this before proceeding.
func (c *core) drained() bool {
	if c.nfill == 0 {
		return true
	}
	c.park(c.latest())
	return false
}

// dmaDone retires one background copy issued by this core and wakes it if
// it was parked on an OpDMAWait.
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
	b.waiting = append(b.waiting, c)
	b.arrivals = append(b.arrivals, c.m.sim.Now())
	if len(b.waiting) < b.need {
		return
	}
	released := b.waiting
	arrivals := b.arrivals
	now := c.m.sim.Now()
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
	if addr.LevelOf(src) == addr.Near {
		read = d.m.near.BulkAcquire(now, n, false)
	} else {
		read = d.m.far.BulkAcquire(now, n, false)
	}
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
