// Package machine assembles the whole simulated node of the paper's
// Figures 4, 5, and 7 — cores in quad-core groups with shared L2s, an
// on-chip network, a far DDR memory, a near scratchpad memory, optional
// DMA engines — and replays recorded traces through it.
//
// Replay is the second half of the Ariel-style pipeline: internal/trace
// records each thread's L1-filtered memory operations once; Replay runs
// those identical streams against any memory configuration, which is how
// the 2X/4X/8X near-memory experiments of Table I are produced.
package machine

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/addr"
	"repro/internal/cachesim"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/spmem"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

// Config describes one node. Zero values are invalid; start from
// PaperConfig or TinyConfig and adjust.
type Config struct {
	Cores         int
	CoresPerGroup int
	CoreHz        units.Hz

	L2Capacity units.Bytes
	L2Ways     int
	L2Latency  units.Time
	L2BW       units.BytesPerSecond // L2 port service bandwidth per group
	LineSize   units.Bytes

	// MaxOutstanding is the per-core miss-level parallelism: how many line
	// fills may be in flight before the core stalls (MSHR depth plus the
	// effect of hardware prefetch on streaming code). Without it a core's
	// demand bandwidth would be capped at one line per round-trip latency
	// and no bandwidth experiment could saturate the channels.
	MaxOutstanding int

	NoC  noc.Config   // Groups is filled in from Cores/CoresPerGroup
	Far  dram.Config  // far (capacity) memory
	Near spmem.Config // near (scratchpad) memory

	// Fault describes the injected fault environment. The zero value (or
	// any config with Seed == 0) models perfect memory and a lossless NoC,
	// bit-identical to a machine without a fault layer.
	Fault fault.Config

	// MaxEvents bounds the events one replay may execute — the
	// runaway-schedule guard. Zero means DefaultEventBudget.
	MaxEvents uint64

	// Shards is inert: nothing reads it. It selected the intra-replay
	// sharded engine that DESIGN.md §10 records as deleted. The field stays
	// declared for two reasons: bench/_layers/probes.go assigns it (and
	// bench/ changes only in benchmark PRs), and ConfigDigest hashes the
	// %+v rendering of this struct, so keeping the field keeps every
	// manifest key and served config_key byte-identical. Follow-up: the
	// next benchmark PR drops machine.shards_over_seq, then this field.
	Shards int

	// Telemetry, when non-nil, attaches a time-series recorder: every
	// device registers its probes, the engine samples them each epoch, and
	// barrier waits, DMA copies, and MemFaults land on event tracks. Nil
	// (the default) costs nothing — no probes, no samples, no events.
	// Recorders are single-use, like machines.
	Telemetry *telemetry.Recorder
}

// DefaultEventBudget is the generous per-replay event bound used when
// Config.MaxEvents is zero: far beyond any legitimate replay (the Table I
// runs execute tens of millions of events), close enough to abort a
// runaway schedule in reasonable wall time.
const DefaultEventBudget uint64 = 1 << 36

// PaperConfig returns the Figure 4 node: 256 cores at 1.7GHz in quad-core
// groups, 512KB 16-way shared L2 per group, 72GB/s group links with 20ns
// NoC latency, 4-channel DDR-1066 far memory, and a near memory with the
// given channel count (8, 16, 32 → bandwidth expansion 2X, 4X, 8X) and
// capacity.
func PaperConfig(nearChannels int, nearCapacity units.Bytes) Config {
	return Config{
		Cores:          256,
		CoresPerGroup:  4,
		CoreHz:         units.Hz(1.7e9),
		L2Capacity:     512 * units.KiB,
		L2Ways:         16,
		L2Latency:      10 * units.Nanosecond,
		L2BW:           units.GBps(64),
		LineSize:       64,
		MaxOutstanding: 4,
		NoC:            noc.Paper(64),
		Far:            dram.DDR1066(4),
		Near:           spmem.Paper(nearChannels, nearCapacity),
	}
}

// TinyConfig returns a scaled-down node for fast tests: 8 cores in groups
// of 4 with small caches, one far channel, and a near memory with the given
// channels.
func TinyConfig(nearChannels int, nearCapacity units.Bytes) Config {
	cfg := Config{
		Cores:          8,
		CoresPerGroup:  4,
		CoreHz:         units.Hz(1.7e9),
		L2Capacity:     16 * units.KiB,
		L2Ways:         4,
		L2Latency:      10 * units.Nanosecond,
		L2BW:           units.GBps(64),
		LineSize:       64,
		MaxOutstanding: 4,
		NoC:            noc.Paper(2),
		Far:            dram.DDR1066(1),
		Near:           spmem.Paper(nearChannels, nearCapacity),
	}
	return cfg
}

// Validate checks structural consistency.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0 || c.CoresPerGroup <= 0:
		return fmt.Errorf("machine: bad core counts %d/%d", c.Cores, c.CoresPerGroup)
	case c.Cores%c.CoresPerGroup != 0:
		return fmt.Errorf("machine: %d cores not divisible into groups of %d", c.Cores, c.CoresPerGroup)
	case c.NoC.Groups != c.Cores/c.CoresPerGroup:
		return fmt.Errorf("machine: NoC has %d endpoints, want %d groups", c.NoC.Groups, c.Cores/c.CoresPerGroup)
	case c.LineSize != c.Far.LineSize || c.LineSize != c.Near.LineSize:
		return fmt.Errorf("machine: line size mismatch across levels")
	case c.CoreHz <= 0:
		return fmt.Errorf("machine: bad core clock")
	case c.MaxOutstanding <= 0:
		return fmt.Errorf("machine: MaxOutstanding must be positive")
	}
	if err := cachesim.CheckGeometry(c.L2Capacity, c.LineSize, c.L2Ways); err != nil {
		return fmt.Errorf("machine: L2Capacity/LineSize/L2Ways: %w", err)
	}
	return c.Fault.Validate()
}

// BandwidthExpansion returns ρ: near aggregate bandwidth over far aggregate
// bandwidth.
func (c Config) BandwidthExpansion() float64 {
	return float64(c.Near.TotalBandwidth()) / float64(c.Far.TotalBandwidth())
}

// Result summarizes one replay.
type Result struct {
	SimTime units.Time // time at which the last event drained

	FarAccesses  uint64 // far-memory device requests (Table I "DRAM Accesses")
	NearAccesses uint64 // near-memory device requests (Table I "Scratchpad Accesses")

	FarStats  dram.Stats
	NearStats spmem.Stats
	L2        cachesim.Stats // aggregated over groups

	FarUtilization  float64
	NearUtilization float64
	NoCUtilization  float64

	DMACopies uint64 // background DMA transfers completed
	DMABytes  uint64 // bytes moved by DMA engines

	Events uint64 // discrete events executed (simulation effort)

	// Elided counts events the one-event-per-completion model would have
	// executed and this one did not: fill completions retired without an
	// event, gaps fused into the stall behind them, and drain markers folded
	// into the engine's horizon. Events+Elided is that model's event count.
	// Like Events it is a diagnostic, never rendered in a report. It is
	// omitted from JSON when zero so that a checkpoint manifest written
	// before the field existed still re-marshals to the bytes its checksum
	// covers, and resumes.
	Elided uint64 `json:"elided,omitempty"`

	// Phases attributes memory traffic to the algorithm phases the trace
	// marked (trace.OpPhase): one entry per marker, in order, covering
	// [marker, next marker), plus an "(init)" head segment when the first
	// marker arrives after time zero. Empty for traces without markers.
	Phases []telemetry.PhaseUsage

	// Faults summarizes injected-fault activity (zero without a fault
	// layer): ECC corrections, controller retries, uncorrectable faults,
	// degraded near accesses, and NoC retransmissions.
	Faults fault.Stats

	// BarrierTimes records the simulated time of every global barrier
	// release, in order — the phase boundaries of the replayed algorithm.
	// Inter-barrier deltas attribute sim time to algorithm phases.
	BarrierTimes []units.Time
}

// ForNear returns r as a machine differing from the replayed one only in
// Config.Near would have reported it. It is meaningful only for a replay
// that never reached the near device (NearStats.Accesses() == 0 and
// DMACopies == 0): Config.Near is read by spmem.New, Validate and
// BandwidthExpansion alone, so a near device that serves no request leaves
// every step of the replay the same, and the two Results differ only where
// one echoes its configuration — today Phases[].NearChannels.
func (r Result) ForNear(near spmem.Config) Result {
	r.Phases = slices.Clone(r.Phases)
	for i := range r.Phases {
		r.Phases[i].NearChannels = near.Channels
	}
	return r
}

// Machine is an instantiated node ready to replay one trace. Machines are
// single-use: build a fresh one per replay so cache and bank state never
// leaks between experiments.
type Machine struct {
	cfg     Config
	sim     *engine.Sim
	l2      []*cachesim.Cache
	l2bus   []*engine.Resource
	nw      *noc.Network
	far     *dram.Device
	near    *spmem.Device
	dma     *dmaEngine
	barrier *barrierCtl
	cores   []*core
	inj     *fault.Injector

	tel        *telemetry.Recorder // nil: telemetry disabled
	coreTracks []string            // per-core span track names (telemetry only)
	phaseNames []string            // the replayed trace's phase-name table
	phaseSnaps []phaseSnap         // device-counter snapshot per OpPhase marker
	elided     uint64              // Result.Elided, counted at the elision sites

	// postFree is the LIFO free list of posted-write carriers. Replay is
	// single-threaded inside one engine, so a plain slice is deterministic;
	// pooling makes the posted-write schedule site allocation-free once the
	// list warms up.
	postFree []*postOp
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sim := engine.New()
	groups := cfg.Cores / cfg.CoresPerGroup
	m := &Machine{
		cfg:   cfg,
		sim:   sim,
		l2:    make([]*cachesim.Cache, groups),
		l2bus: make([]*engine.Resource, groups),
		nw:    noc.New(sim, cfg.NoC),
		far:   dram.New(sim, cfg.Far, addr.FarBase),
		near:  spmem.New(sim, cfg.Near, addr.NearBase),
	}
	for g := 0; g < groups; g++ {
		m.l2[g] = cachesim.New(cfg.L2Capacity, cfg.LineSize, cfg.L2Ways)
		m.l2bus[g] = engine.NewResource(sim, cfg.L2BW)
	}
	m.dma = &dmaEngine{m: m}
	m.inj = fault.New(cfg.Fault)
	m.far.SetFaults(m.inj)
	m.near.SetFaults(m.inj)
	m.nw.SetFaults(m.inj)
	if cfg.Telemetry != nil {
		m.attachTelemetry(cfg.Telemetry)
	}
	return m
}

// attachTelemetry registers every component's probes on tel and installs
// the engine's epoch sampler. Registration order fixes export column order,
// so it must stay deterministic: memory devices, network, fault layer, then
// the machine-level aggregates.
func (m *Machine) attachTelemetry(tel *telemetry.Recorder) {
	tel.Attach()
	m.tel = tel
	m.far.RegisterProbes(tel)
	m.near.RegisterProbes(tel)
	m.nw.RegisterProbes(tel)
	m.inj.RegisterProbes(tel)
	tel.Counter("l2", "hits", func() uint64 { return m.l2Stats().Hits })
	tel.Counter("l2", "misses", func() uint64 { return m.l2Stats().Misses })
	tel.Counter("l2", "writebacks", func() uint64 { return m.l2Stats().Writebacks })
	tel.Counter("dma", "copies", func() uint64 { return m.dma.issued })
	tel.Counter("dma", "bytes", func() uint64 { return m.dma.bytes })
	tel.Counter("sim", "events", m.sim.Executed)
	m.sim.SetSampler(tel.Epoch(), tel.Sample)
}

// l2Stats aggregates the per-group L2 counters.
func (m *Machine) l2Stats() cachesim.Stats {
	var s cachesim.Stats
	for _, l2 := range m.l2 {
		t := l2.Stats()
		s.Hits += t.Hits
		s.Misses += t.Misses
		s.Writebacks += t.Writebacks
	}
	return s
}

// Replay runs the trace to completion and returns the result. The trace
// must have at most Config.Cores threads; thread i runs on core i. It
// accepts any trace.Source — sealed or mmapped columns — and the replay
// cores stream it through cursors, so no trace is ever materialized into op
// slices to replay.
func (m *Machine) Replay(src trace.Source) (Result, error) {
	return m.ReplaySliced(src, 0, nil)
}

// ReplaySliced is Replay with cooperative preemption: the event budget is
// spent in slices of at most `slice` events (0 means one undivided slice),
// and between slices the pause callback runs on the replay goroutine. A
// non-nil error from pause abandons the replay — the partial result is
// returned with that error. Slicing is observationally invisible
// (engine.RunBudget resume is byte-identical, pinned by engine/slice_test
// and machine's sliced-replay tests), so a supervisor can poll deadlines
// and cancellation between slices without perturbing simulation state.
func (m *Machine) ReplaySliced(src trace.Source, slice uint64, pause func() error) (Result, error) {
	if err := src.Validate(); err != nil {
		return Result{}, err
	}
	threads := src.Threads()
	if threads > m.cfg.Cores {
		return Result{}, fmt.Errorf("machine: trace has %d threads but machine has %d cores",
			threads, m.cfg.Cores)
	}
	if m.cores != nil {
		return Result{}, fmt.Errorf("machine: machines are single-use; build a new one per replay")
	}
	m.barrier = &barrierCtl{need: threads}
	m.cores = make([]*core, threads)
	m.phaseNames = src.PhaseTable()
	if m.tel != nil {
		m.coreTracks = make([]string, threads)
		for i := range m.coreTracks {
			m.coreTracks[i] = fmt.Sprintf("core%d", i)
		}
	}
	mshrs := m.cfg.MaxOutstanding
	m.sim.Reserve(queueReservation(threads, mshrs, src.Ops()))
	period := m.cfg.CoreHz.Period()
	slots := make([]fillSlot, threads*mshrs)
	for i := 0; i < threads; i++ {
		c := &core{m: m, id: i, group: i / m.cfg.CoresPerGroup, cur: src.CursorAt(i), period: period}
		c.eos = !c.cur.Next() // prime the first op
		c.runEv = c.run
		c.dmaDoneEv = c.dmaDone
		c.fills = slots[i*mshrs : (i+1)*mshrs : (i+1)*mshrs]
		m.cores[i] = c
		m.sim.At(0, c.runEv)
	}
	m.watch()
	budget := m.cfg.MaxEvents
	if budget == 0 {
		budget = DefaultEventBudget
	}
	sliceSize := slice
	if sliceSize == 0 || sliceSize > budget {
		sliceSize = budget
	}
	var (
		end    units.Time
		runErr error
		ran    uint64
	)
	for {
		step := sliceSize
		if rem := budget - ran; step > rem {
			step = rem
		}
		end, runErr = m.sim.RunBudget(step)
		if runErr == nil {
			break // drained: the replay completed
		}
		var be *engine.BudgetError
		if !errors.As(runErr, &be) {
			break // stall or other terminal failure
		}
		ran += step
		if ran >= budget {
			// The whole budget is spent: report the same error an unsliced
			// RunBudget(budget) would have produced, not the last slice's.
			runErr = &engine.BudgetError{MaxEvents: budget, LastEventAt: be.LastEventAt, Pending: be.Pending}
			break
		}
		runErr = nil
		if pause != nil {
			if err := pause(); err != nil {
				runErr = err
				break
			}
		}
	}
	res := m.collect(end)
	if runErr != nil {
		// A stalled or runaway replay: the result is returned for diagnosis
		// but its SimTime is not a completion time.
		return res, runErr
	}
	if res.Faults.MemFaults > 0 {
		// The replay ran to completion, but some reads returned uncorrected
		// data: surface the machine-level fault outcome while keeping the
		// full result (fault sweeps treat this as data, not failure).
		return res, &fault.MemFaultError{Count: res.Faults.MemFaults, First: res.Faults.Faults[0]}
	}
	return res, nil
}

// queueReservation sizes the event queue for a replay's steady state. A
// core has at most one event of its own pending (gap resume, fill wake, or
// barrier release). Each outstanding fill can have one posted victim write
// pending — it is due at the L2 port, before the fill lands — and one more
// event per core is headroom for writeback victims and DMA completions;
// the Table I replays peak at 5.0 pending events per core with
// MaxOutstanding 4. Small traces never reach the bound, so it is capped by
// the total op count; either way it is only a hint. (The op count is
// Validate-verified, so a hostile header cannot inflate the reservation.)
func queueReservation(threads, maxOutstanding, ops int) int {
	pending := threads*(maxOutstanding+2) + 64
	if ops < pending {
		pending = ops + 16
	}
	return pending
}

// collect assembles the Result of a replay that stopped at simulated time
// end and closes the telemetry recorder there.
func (m *Machine) collect(end units.Time) Result {
	var res Result
	res.SimTime = end
	res.FarStats = m.far.Stats()
	res.NearStats = m.near.Stats()
	res.FarAccesses = res.FarStats.Accesses()
	res.NearAccesses = res.NearStats.Accesses()
	for _, l2 := range m.l2 {
		s := l2.Stats()
		res.L2.Hits += s.Hits
		res.L2.Misses += s.Misses
		res.L2.Writebacks += s.Writebacks
	}
	res.FarUtilization = m.far.Utilization()
	res.NearUtilization = m.near.Utilization()
	res.NoCUtilization = m.nw.Utilization()
	res.DMACopies = m.dma.issued
	res.DMABytes = m.dma.bytes
	res.Events = m.sim.Executed()
	res.Elided = m.elided
	res.BarrierTimes = m.barrier.releases
	res.Faults = m.inj.Stats()
	res.Phases = m.phaseUsages(end)
	if m.tel != nil {
		for _, f := range res.Faults.Faults {
			m.tel.Instant("faults", "mem_fault", f.At)
		}
		m.tel.Finish(end)
	}
	return res
}

// watch registers every component whose pending work the engine's
// watchdog must cross-check when the event queue drains: the memory
// devices and buses (busy horizons) and the cores and barrier (outstanding
// requests). A dropped completion event then yields a StallError naming
// the stuck component instead of a silently short SimTime.
func (m *Machine) watch() {
	m.sim.Watch("far", m.far.BusyUntil, nil)
	m.sim.Watch("near", m.near.BusyUntil, nil)
	m.sim.Watch("noc", m.nw.BusyUntil, nil)
	for g := range m.l2bus {
		m.sim.Watch(fmt.Sprintf("l2bus[%d]", g), m.l2bus[g].BusyUntil, nil)
	}
	for _, c := range m.cores {
		c := c
		m.sim.Watch(fmt.Sprintf("core[%d]", c.id), nil, c.outstanding)
	}
	m.sim.Watch("barrier", nil, func() int { return len(m.barrier.waiting) })
}

// Run is a convenience wrapper: build a machine from cfg and replay src.
func Run(cfg Config, src trace.Source) (Result, error) {
	return New(cfg).Replay(src)
}

// device routes an address to its backing memory.
func (m *Machine) deviceAccess(at units.Time, a addr.Addr, write bool) units.Time {
	//nmlint:ignore escape-check inlined LevelOf panic formatting; only the cold out-of-window exit allocates
	if addr.LevelOf(a) == addr.Near {
		return m.near.Access(at, a, write)
	}
	return m.far.Access(at, a, write)
}

// fill performs a blocking line read for group g and returns the time the
// line reaches the core.
func (m *Machine) fill(g int, a addr.Addr) units.Time {
	t := m.l2bus[g].Acquire(m.cfg.LineSize) + m.cfg.L2Latency
	r := m.l2[g].Access(uint64(a), false)
	if r.Hit {
		return t
	}
	if r.HasWB {
		m.postToMemory(t, g, addr.Addr(r.Writeback))
	}
	arr := m.nw.Send(t, g, 0) // read command, no payload
	dev := m.deviceAccess(arr, a, false)
	resp := m.nw.Deliver(dev, g, m.cfg.LineSize)
	return resp + m.cfg.L2Latency
}

// writeback absorbs an L1 victim into the L2 (write-allocate, full line so
// no fetch); a dirty L2 victim is posted toward memory. Never blocks the
// core beyond the L2 port.
func (m *Machine) writeback(g int, a addr.Addr) units.Time {
	t := m.l2bus[g].Acquire(m.cfg.LineSize) + m.cfg.L2Latency
	r := m.l2[g].Access(uint64(a), true)
	if r.HasWB {
		m.postToMemory(t, g, addr.Addr(r.Writeback))
	} else {
		// Nothing downstream waits on a posted write, so hold the drain
		// horizon out until the L2 port drains; otherwise a replay ending
		// in writebacks reports a SimTime inside the port's busy period.
		m.sim.Extend(t)
		m.elided++
	}
	return t
}

// postOp carries one posted write toward its device. Each carrier's ev
// field is bound to its run method exactly once, at allocation; recycling
// through Machine.postFree then makes posting a write allocation-free. A
// carrier has at most one pending schedule — it returns itself to the free
// list only from inside run, after its fields have been consumed.
type postOp struct {
	m  *Machine
	g  int
	a  addr.Addr
	ev engine.Event // bound to run once; reused across recycles
}

// postFreeCap bounds the postFree free list. The list's length tracks the
// peak number of concurrently posted writes, which a writeback storm can
// spike far above the steady state; carriers past the cap are dropped to
// the GC instead of pinning that peak for the rest of the replay. 256
// carriers (~64 bytes each) comfortably cover the deepest sustained
// posted-write concurrency the paper's configurations reach.
const postFreeCap = 256

// run drains the posted write: route it over the NoC to its device, then
// hold the drain horizon out until the write finishes (see postToMemory).
//
//nmlint:hotpath
func (p *postOp) run() {
	m := p.m
	g, a := p.g, p.a
	if len(m.postFree) < postFreeCap {
		//nmlint:ignore hotpath recycle push bounded by postFreeCap; the backing array stops growing once warm
		m.postFree = append(m.postFree, p)
	}
	arr := m.nw.Send(m.sim.Now(), g, m.cfg.LineSize)
	m.sim.Extend(m.deviceAccess(arr, a, true))
	m.elided++
}

// postToMemory sends a dirty line toward its device without anything
// waiting for it (posted write). The carrier extends the engine's drain
// horizon to the time the write finishes: without it Run() can return while
// the NoC and device buses are still busy, making SimTime undershoot the
// real end of traffic and pushing Utilization past 1 on writeback-heavy
// replays.
func (m *Machine) postToMemory(at units.Time, g int, a addr.Addr) {
	var p *postOp
	if n := len(m.postFree); n > 0 {
		p = m.postFree[n-1]
		m.postFree = m.postFree[:n-1]
	} else {
		//nmlint:ignore hotpath pool miss: one carrier per concurrently posted write, recycled thereafter
		p = &postOp{m: m}
		//nmlint:ignore hotpath bound once per carrier lifetime, at allocation
		p.ev = p.run
	}
	p.g, p.a = g, a
	m.sim.At(at, p.ev)
}

// atomic performs a serialized uncached read-modify-write and returns the
// acknowledgment time.
func (m *Machine) atomic(g int, a addr.Addr) units.Time {
	arr := m.nw.Send(m.sim.Now(), g, m.cfg.LineSize)
	dev := m.deviceAccess(arr, a, true)
	return m.nw.Deliver(dev, g, 0)
}

// phaseSnap captures device totals at the moment an OpPhase marker replays.
// Deltas between consecutive snapshots attribute traffic to phases.
type phaseSnap struct {
	id        int // index into phaseNames, or -1 for synthetic boundaries
	at        units.Time
	farBytes  uint64
	nearBytes uint64
	farBusy   units.Time
	nearBusy  units.Time
}

func (m *Machine) snap(id int, at units.Time) phaseSnap {
	return phaseSnap{
		id: id, at: at,
		farBytes:  m.far.BytesMoved(),
		nearBytes: m.near.BytesMoved(),
		farBusy:   m.far.BusyTime(),
		nearBusy:  m.near.BusyTime(),
	}
}

// notePhase handles a replayed OpPhase marker: snapshot the device counters
// and, with telemetry attached, mark the phase on the recorder's phase track.
func (m *Machine) notePhase(id int) {
	now := m.sim.Now()
	//nmlint:ignore hotpath one append per OpPhase marker; bounded by the trace's marker count
	m.phaseSnaps = append(m.phaseSnaps, m.snap(id, now))
	if m.tel != nil {
		m.tel.MarkPhase(m.phaseNames[id], now)
	}
}

// phaseUsages converts the marker snapshots into per-phase traffic deltas.
// Each phase covers [its marker, the next marker); the last runs to end. A
// synthetic "(init)" segment covers any traffic before the first marker.
func (m *Machine) phaseUsages(end units.Time) []telemetry.PhaseUsage {
	snaps := m.phaseSnaps
	if len(snaps) == 0 {
		return nil
	}
	if snaps[0].at > 0 {
		head := phaseSnap{id: -1}
		snaps = append([]phaseSnap{head}, snaps...)
	}
	final := m.snap(-1, end)
	out := make([]telemetry.PhaseUsage, 0, len(snaps))
	for i, s := range snaps {
		next := final
		if i+1 < len(snaps) {
			next = snaps[i+1]
		}
		name := "(init)"
		if s.id >= 0 {
			name = m.phaseNames[s.id]
		}
		out = append(out, telemetry.PhaseUsage{
			Name:         name,
			Start:        s.at,
			End:          next.at,
			FarBytes:     next.farBytes - s.farBytes,
			NearBytes:    next.nearBytes - s.nearBytes,
			FarBusy:      next.farBusy - s.farBusy,
			NearBusy:     next.nearBusy - s.nearBusy,
			FarChannels:  m.far.Channels(),
			NearChannels: m.near.Channels(),
		})
	}
	return out
}
