// Package fault is the deterministic, seed-driven fault-injection layer of
// the simulator. The paper's two-level memory is a co-design with emerging
// far-memory parts (NVM-class DIMMs) whose error rates and latency
// variability are first-order design inputs; this package lets the same
// recorded trace be replayed under a configurable fault environment so
// experiments can answer "how do the co-design claims degrade under memory
// faults?" instead of assuming a perfect memory system.
//
// Three fault classes are modeled:
//
//   - Far-memory transient bit errors with an ECC SECDED model: a
//     single-bit (correctable) error costs a fixed extra controller
//     latency; a double-bit (uncorrectable) error triggers controller
//     re-reads with bounded exponential backoff in simulated time, and a
//     read whose retry budget is exhausted surfaces as a machine-level
//     MemFault outcome.
//   - Near-memory channel degradation: a scratchpad channel drops to a
//     fraction of its bandwidth for a simulated interval (thermal
//     throttling, refresh storms in stacked DRAM).
//   - NoC packet corruption: a corrupted message is retransmitted,
//     re-occupying its link and paying the hop latency again.
//
// Every decision is a pure function of (seed, device, index[, attempt]) via
// xrand.Mix — a stateless counter-based draw, not a shared sequential
// stream — so a given (trace, config, fault seed) is bit-identical across
// runs regardless of the order in which devices consult the injector, and
// Seed == 0 disables injection entirely (provably a no-op: every query
// returns the clean outcome and adds zero latency).
package fault

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/xrand"
)

// Device keys partition the Mix keyspace so equal indices on different
// devices draw independent values.
const (
	devFar  uint64 = 1 // far-memory ECC decisions, keyed by read index
	devNear uint64 = 2 // near-memory degradation, keyed by (channel, epoch)
	devNoC  uint64 = 3 // NoC corruption, keyed by message index
)

// Config describes one fault environment. The zero value (and any config
// with Seed == 0) disables injection.
type Config struct {
	Seed uint64 // fault stream seed; 0 disables all injection

	// Far-memory transient bit errors (ECC SECDED model).
	BitErrorRate      float64    // probability a far read observes a transient error
	UncorrectableFrac float64    // fraction of errors SECDED cannot correct (double-bit)
	StuckFrac         float64    // fraction of uncorrectable errors that persist across every retry
	CorrectLatency    units.Time // extra controller latency per corrected error
	RetryBackoff      units.Time // base backoff before the first controller re-read
	MaxRetries        int        // controller re-reads before declaring a MemFault

	// Near-memory channel degradation.
	DegradeProb   float64    // probability a (channel, epoch) window is degraded
	DegradeEpoch  units.Time // window length the degradation schedule is drawn over
	DegradeFactor int64      // service-time multiplier while degraded (bandwidth / factor)

	// NoC packet corruption.
	CorruptRate float64 // probability a message arrives corrupted and is retransmitted
	MaxResends  int     // retransmissions before the message is forced through
}

// Profile returns a full fault environment scaled from one knob: rate is
// the per-read far-memory bit error rate, with the other classes derived at
// fixed ratios so a single sweep axis exercises all three. The constants
// are defaults, not dogma; sweeps that need independent axes set Config
// fields directly.
func Profile(seed uint64, rate float64) Config {
	degrade := rate * 100
	if degrade > 1 {
		degrade = 1
	}
	return Config{
		Seed:              seed,
		BitErrorRate:      rate,
		UncorrectableFrac: 0.25,
		StuckFrac:         0.05,
		CorrectLatency:    20 * units.Nanosecond,
		RetryBackoff:      100 * units.Nanosecond,
		MaxRetries:        4,
		DegradeProb:       degrade,
		DegradeEpoch:      10 * units.Microsecond,
		DegradeFactor:     4,
		CorruptRate:       rate / 4,
		MaxResends:        4,
	}
}

// Validate checks that every rate is a probability and every latency,
// factor, and bound is non-negative (the command-line flag validators lean
// on this).
func (c Config) Validate() error {
	prob := func(name string, v float64) error {
		if v < 0 || v > 1 || v != v {
			return fmt.Errorf("fault: %s %v outside [0, 1]", name, v)
		}
		return nil
	}
	if err := prob("bit error rate", c.BitErrorRate); err != nil {
		return err
	}
	if err := prob("uncorrectable fraction", c.UncorrectableFrac); err != nil {
		return err
	}
	if err := prob("stuck fraction", c.StuckFrac); err != nil {
		return err
	}
	if err := prob("degrade probability", c.DegradeProb); err != nil {
		return err
	}
	if err := prob("corrupt rate", c.CorruptRate); err != nil {
		return err
	}
	switch {
	case c.CorrectLatency < 0:
		return fmt.Errorf("fault: negative correct latency %v", c.CorrectLatency)
	case c.RetryBackoff < 0:
		return fmt.Errorf("fault: negative retry backoff %v", c.RetryBackoff)
	case c.MaxRetries < 0:
		return fmt.Errorf("fault: negative retry budget %d", c.MaxRetries)
	case c.MaxResends < 0:
		return fmt.Errorf("fault: negative resend budget %d", c.MaxResends)
	case c.DegradeProb > 0 && c.DegradeEpoch <= 0:
		return fmt.Errorf("fault: degradation enabled with non-positive epoch %v", c.DegradeEpoch)
	case c.DegradeProb > 0 && c.DegradeFactor < 1:
		return fmt.Errorf("fault: degradation enabled with factor %d < 1", c.DegradeFactor)
	}
	return nil
}

// Enabled reports whether this config injects anything at all.
func (c Config) Enabled() bool {
	return c.Seed != 0 &&
		(c.BitErrorRate > 0 || c.DegradeProb > 0 || c.CorruptRate > 0)
}

// MemFault records one far-memory read whose retry budget was exhausted:
// the machine-level outcome of an uncorrectable, persistent error.
type MemFault struct {
	Addr    uint64     // faulting line address
	At      units.Time // simulated time the last retry completed
	Retries int        // controller re-reads spent before giving up
}

// Stats counts injected faults and their handling. All counters are
// simulated outcomes, deterministic for a given (trace, config, seed).
type Stats struct {
	FarBitErrors     uint64 // transient errors observed on far reads
	FarCorrected     uint64 // SECDED single-bit corrections
	FarUncorrectable uint64 // double-bit detections (retry sequences started)
	FarRetries       uint64 // controller re-reads issued
	MemFaults        uint64 // reads that exhausted the retry budget
	NearDegraded     uint64 // near accesses served by a degraded channel
	NoCRetransmits   uint64 // NoC messages retransmitted

	// Faults holds the first few machine-level faults for diagnosis.
	Faults []MemFault
}

// maxRecordedFaults caps the Faults sample so a pathological sweep point
// cannot balloon the result.
const maxRecordedFaults = 8

// Injector answers fault queries for one machine instance. Its state is
// simulator-owned (it hangs off the component graph and is only touched
// from the single-threaded event loop); all methods are safe on a nil
// receiver and return the clean outcome, so devices built without a fault
// layer need no branching.
type Injector struct {
	cfg     Config
	enabled bool
	stats   Stats
}

// New builds an injector for cfg. It panics on an invalid config (the
// machine validates earlier; this is the last line of defense). A Seed of
// zero, or all-zero rates, yields a disabled injector.
func New(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Injector{cfg: cfg, enabled: cfg.Enabled()}
}

// RegisterProbes registers the injector's fault counters on the "fault"
// track. A nil or disabled injector registers nothing: a fault-free replay
// has no fault tracks rather than five all-zero ones.
func (in *Injector) RegisterProbes(tel *telemetry.Recorder) {
	if in == nil || !in.enabled {
		return
	}
	tel.Counter("fault", "corrected", func() uint64 { return in.stats.FarCorrected })
	tel.Counter("fault", "retries", func() uint64 { return in.stats.FarRetries })
	tel.Counter("fault", "mem_faults", func() uint64 { return in.stats.MemFaults })
	tel.Counter("fault", "near_degraded", func() uint64 { return in.stats.NearDegraded })
	tel.Counter("fault", "noc_retransmits", func() uint64 { return in.stats.NoCRetransmits })
}

// FarPlan is the ECC outcome for one far-memory read. The device applies
// it: Corrected adds CorrectLatency; each retry waits Backoff(k) and
// re-occupies the channel bus; Fatal marks the data as returned
// uncorrected — a machine-level MemFault.
type FarPlan struct {
	Corrected bool
	Retries   int
	Fatal     bool
}

// FarRead classifies far-memory read #index. Clean reads return the zero
// plan. Called once per far device read, so it must stay allocation-free.
//
//nmlint:hotpath
func (in *Injector) FarRead(index uint64) FarPlan {
	if in == nil || !in.enabled || in.cfg.BitErrorRate <= 0 {
		return FarPlan{}
	}
	if xrand.MixFloat64(in.cfg.Seed, devFar, index, 0) >= in.cfg.BitErrorRate {
		return FarPlan{}
	}
	in.stats.FarBitErrors++
	if xrand.MixFloat64(in.cfg.Seed, devFar, index, 1) >= in.cfg.UncorrectableFrac {
		in.stats.FarCorrected++
		return FarPlan{Corrected: true}
	}
	in.stats.FarUncorrectable++
	plan := FarPlan{}
	if xrand.MixFloat64(in.cfg.Seed, devFar, index, 2) < in.cfg.StuckFrac {
		// A persistent (stuck-cell) fault: every re-read sees it again.
		plan.Retries, plan.Fatal = in.cfg.MaxRetries, true
	} else {
		// Transient: each re-read re-samples the error process.
		plan.Fatal = true
		for a := 1; a <= in.cfg.MaxRetries; a++ {
			plan.Retries = a
			if xrand.MixFloat64(in.cfg.Seed, devFar, index, 2+uint64(a)) >= in.cfg.BitErrorRate {
				plan.Fatal = false
				break
			}
		}
	}
	in.stats.FarRetries += uint64(plan.Retries)
	return plan
}

// CorrectLatency returns the extra latency of one SECDED correction.
func (in *Injector) CorrectLatency() units.Time {
	if in == nil {
		return 0
	}
	return in.cfg.CorrectLatency
}

// Backoff returns the wait before controller re-read k (0-based): bounded
// exponential backoff in simulated time, base RetryBackoff, capped at 16
// doublings so the shift cannot overflow.
func (in *Injector) Backoff(k int) units.Time {
	if in == nil {
		return 0
	}
	if k > 16 {
		k = 16
	}
	return in.cfg.RetryBackoff << uint(k)
}

// NoteMemFault records a read that exhausted its retry budget. On the
// per-access fault path (a device calls it from inside the event loop).
//
//nmlint:hotpath
func (in *Injector) NoteMemFault(a uint64, at units.Time, retries int) {
	if in == nil {
		return
	}
	in.stats.MemFaults++
	if len(in.stats.Faults) < maxRecordedFaults {
		//nmlint:ignore hotpath bounded by maxRecordedFaults: at most eight appends per replay
		in.stats.Faults = append(in.stats.Faults, MemFault{Addr: a, At: at, Retries: retries})
	}
}

// NearFactor returns the service-time multiplier for an access to near
// channel ch starting at time at: 1 when the channel is healthy,
// DegradeFactor while the (channel, epoch) window it falls in is degraded.
// The degradation schedule is a pure function of (seed, channel, epoch), so
// it is fixed up front for all simulated time.
//
//nmlint:hotpath
func (in *Injector) NearFactor(ch int, at units.Time) int64 {
	if in == nil || !in.enabled || in.cfg.DegradeProb <= 0 {
		return 1
	}
	epoch := uint64(at / in.cfg.DegradeEpoch)
	if xrand.MixFloat64(in.cfg.Seed, devNear, uint64(ch), epoch) >= in.cfg.DegradeProb {
		return 1
	}
	in.stats.NearDegraded++
	return in.cfg.DegradeFactor
}

// NoCResends returns how many times message #index must be retransmitted:
// each attempt re-samples the corruption process, bounded by MaxResends
// (after which the message is forced through — the simulator's stand-in
// for an end-to-end recovery path).
//
//nmlint:hotpath
func (in *Injector) NoCResends(index uint64) int {
	if in == nil || !in.enabled || in.cfg.CorruptRate <= 0 {
		return 0
	}
	n := 0
	for n < in.cfg.MaxResends &&
		xrand.MixFloat64(in.cfg.Seed, devNoC, index, uint64(n)) < in.cfg.CorruptRate {
		n++
	}
	in.stats.NoCRetransmits += uint64(n)
	return n
}

// Stats returns a copy of the injection counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	s := in.stats
	s.Faults = append([]MemFault(nil), in.stats.Faults...)
	return s
}

// MemFaultError is the machine-level outcome of uncorrectable far-memory
// faults: the replay ran to completion, but one or more reads returned
// uncorrected data, so the simulated program's output cannot be trusted.
// Callers that sweep fault rates treat it as data (errors.As), not failure.
type MemFaultError struct {
	Count uint64
	First MemFault
}

// Error implements error.
func (e *MemFaultError) Error() string {
	return fmt.Sprintf("fault: %d uncorrectable memory fault(s); first at line %#x, t=%v after %d retries",
		e.Count, e.First.Addr, e.First.At, e.First.Retries)
}
