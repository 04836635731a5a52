package machine

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/trace"
	"repro/internal/units"
)

// The reference replay: the one-event-per-completion core model, written
// the obvious way and kept test-only. Every compute gap is an After, every
// line fill schedules its own completion event, every posted write ends in
// a no-op event that keeps the loop alive — no tickets, no fusion, no drain
// horizon, no pooled carriers, decoded op slices instead of cursors. It
// uses nothing of the engine beyond At, After and Run.
//
// It shares with the fast kernel what event elision does not touch — the
// devices, the NoC, the L2s, the barrier controller, the DMA engine, the
// phase snapshots and Result assembly — and re-implements everything it
// does: the core state machine and the fill / writeback / posted-write
// paths. The differential in semantic_test.go holds the two to the same
// machine.Result, the same telemetry, and Events+Elided == reference Events.

type refMachine struct {
	m     *Machine
	cores []*refCore
}

type refCore struct {
	r     *refMachine
	shell *core // identity for the shared barrier and DMA engines
	ops   []trace.Op
	pc    int

	gapDone   bool
	inflight  int
	stallFull bool // waiting for any fill to free an MSHR slot
	draining  bool // waiting for every fill to land
	dmaOut    int
	dmaWait   bool
	done      bool
}

// referenceReplay replays tr on a fresh machine built from cfg under the
// reference schedule and returns the Result the fast kernel must reproduce.
func referenceReplay(cfg Config, tr *trace.Trace) Result {
	if err := tr.Validate(); err != nil {
		panic(err)
	}
	m := New(cfg)
	threads := len(tr.Streams)
	m.barrier = &barrierCtl{need: threads}
	m.phaseNames = tr.PhaseNames
	if m.tel != nil {
		m.coreTracks = make([]string, threads)
		for i := range m.coreTracks {
			m.coreTracks[i] = fmt.Sprintf("core%d", i)
		}
	}
	r := &refMachine{m: m}
	for i, ops := range tr.Streams {
		c := &refCore{r: r, ops: ops}
		c.shell = &core{m: m, id: i, group: i / cfg.CoresPerGroup, runEv: c.run, dmaDoneEv: c.dmaDone}
		r.cores = append(r.cores, c)
		m.sim.At(0, c.run)
	}
	end := m.sim.Run()
	for _, c := range r.cores {
		if !c.done || c.inflight != 0 || c.dmaOut != 0 {
			panic(fmt.Sprintf("reference replay stalled: core %d at op %d of %d", c.shell.id, c.pc, len(c.ops)))
		}
	}
	return m.collect(end)
}

func (c *refCore) run() {
	m, g := c.r.m, c.shell.group
	for c.pc < len(c.ops) {
		op := c.ops[c.pc]
		if !c.gapDone && op.Gap > 0 {
			c.gapDone = true
			m.sim.After(units.Time(op.Gap)*m.cfg.CoreHz.Period(), c.run)
			return
		}
		switch op.Kind {
		case trace.OpGap:
			c.next()
		case trace.OpAccess:
			if op.Write {
				c.r.writeback(g, addr.Addr(op.Addr))
				c.next()
				continue
			}
			if c.inflight >= m.cfg.MaxOutstanding {
				c.stallFull = true
				return
			}
			done := c.r.fill(g, addr.Addr(op.Addr))
			c.inflight++
			m.sim.At(done, c.fillDone)
			c.next()
		case trace.OpAtomic:
			if !c.drained() {
				return
			}
			arr := m.nw.Send(m.sim.Now(), g, m.cfg.LineSize)
			dev := m.deviceAccess(arr, addr.Addr(op.Addr), true)
			done := m.nw.Deliver(dev, g, 0)
			c.next()
			if done > m.sim.Now() {
				m.sim.At(done, c.run)
				return
			}
		case trace.OpBarrier:
			if !c.drained() {
				return
			}
			c.next()
			m.barrier.arrive(c.shell)
			return
		case trace.OpDMA:
			c.dmaOut++
			m.dma.enqueue(c.shell, addr.Addr(op.Addr), addr.Addr(op.Addr2), units.Bytes(op.Size))
			c.next()
		case trace.OpDMAWait:
			c.next()
			if c.dmaOut > 0 {
				c.dmaWait = true
				return
			}
		case trace.OpEnd:
			if !c.drained() {
				return
			}
			c.done = true
			c.next()
			return
		case trace.OpPhase:
			m.notePhase(int(op.Addr))
			c.next()
		default:
			panic(fmt.Sprintf("reference: unknown op kind %d", op.Kind))
		}
	}
}

func (c *refCore) next() { c.pc++; c.gapDone = false }

func (c *refCore) drained() bool {
	c.draining = c.inflight > 0
	return !c.draining
}

func (c *refCore) fillDone() {
	c.inflight--
	switch {
	case c.stallFull:
		c.stallFull = false
		c.run()
	case c.draining && c.inflight == 0:
		c.draining = false
		c.run()
	}
}

func (c *refCore) dmaDone() {
	c.dmaOut--
	if c.dmaWait && c.dmaOut == 0 {
		c.dmaWait = false
		c.run()
	}
}

// fill is a blocking line read for group g: L2 port, L2 lookup, and on a
// miss a round trip over the NoC to the backing device.
func (r *refMachine) fill(g int, a addr.Addr) units.Time {
	m := r.m
	t := m.l2bus[g].Acquire(m.cfg.LineSize) + m.cfg.L2Latency
	res := m.l2[g].Access(uint64(a), false)
	if res.Hit {
		return t
	}
	if res.HasWB {
		r.post(t, g, addr.Addr(res.Writeback))
	}
	arr := m.nw.Send(t, g, 0)
	dev := m.deviceAccess(arr, a, false)
	return m.nw.Deliver(dev, g, m.cfg.LineSize) + m.cfg.L2Latency
}

// writeback absorbs an L1 victim into the L2; a dirty L2 victim is posted
// on, otherwise a no-op event holds the loop open until the port drains.
func (r *refMachine) writeback(g int, a addr.Addr) {
	m := r.m
	t := m.l2bus[g].Acquire(m.cfg.LineSize) + m.cfg.L2Latency
	res := m.l2[g].Access(uint64(a), true)
	if res.HasWB {
		r.post(t, g, addr.Addr(res.Writeback))
	} else {
		m.sim.At(t, func() {})
	}
}

// post sends a dirty line toward its device at time at; a no-op event marks
// the time the device finishes with it.
func (r *refMachine) post(at units.Time, g int, a addr.Addr) {
	m := r.m
	m.sim.At(at, func() {
		arr := m.nw.Send(m.sim.Now(), g, m.cfg.LineSize)
		m.sim.At(m.deviceAccess(arr, a, true), func() {})
	})
}
