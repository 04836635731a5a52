package simpure

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/units"
)

type node struct {
	sim  *engine.Sim
	seen []units.Time
	tab  map[string]int
}

// tick mutates only receiver-rooted state and reads simulated time from
// the kernel: the canonical pure callback.
func (g *node) tick() {
	g.seen = append(g.seen, g.sim.Now())
}

// schedule shows the allowed idioms: method values, writes through a
// captured component pointer, locals, pure fmt, and nested scheduling.
func (g *node) schedule() {
	g.sim.At(0, g.tick)
	g.sim.After(units.Nanosecond, func() {
		g.tab["k"]++
		g.seen = g.seen[:0]
		s := fmt.Sprintf("%d", len(g.seen))
		local := map[string]bool{s: true}
		delete(local, s)
		g.sim.At(g.sim.Now(), func() { g.tab["t"] = len(local) })
	})
}

// sortedDrain: ordinary pure stdlib helpers (sort, append to locals) are
// fine inside callbacks.
func sortedDrain(sim *engine.Sim, g *node) {
	sim.At(0, func() {
		keys := make([]string, 0, len(g.tab))
		for k := range g.tab {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			g.tab[k]++
		}
	})
}

// pooled shows the pre-bound event-field idiom from internal/machine's hot
// path: a field bound once to a method value (or a named function in a
// composite literal) and scheduled repeatedly without allocating. The
// analyzer verifies the field through its assignments.
type pooled struct {
	sim *engine.Sim
	n   int
	ev  engine.Event
	alt engine.Event
}

func (p *pooled) step() { p.n++ }

func pureTick() {}

func newPooled(sim *engine.Sim) *pooled {
	p := &pooled{sim: sim, alt: pureTick}
	p.ev = p.step
	return p
}

func (p *pooled) schedule() {
	p.sim.At(0, p.ev)
	p.sim.After(units.Nanosecond, p.alt)
}

// ticketed shows the ticket idiom: draw a place in line when the completion
// time is known, redeem it for a wake only if one turns out to be needed.
// AtTicket is a scheduling site like At: its callback — a pre-bound field, a
// method value, or a literal — is verified the same way.
func (p *pooled) ticketed(g *node) {
	tk := p.sim.Ticket()
	p.sim.AtTicket(units.Nanosecond, tk, p.ev)
	p.sim.AtTicket(units.Nanosecond, p.sim.Ticket(), g.tick)
	p.sim.AtTicket(units.Nanosecond, p.sim.Ticket(), func() { g.tab["w"]++ })
}

// suppressed: a real violation (bare captured counter) silenced with an
// ignore directive and a reason — the escape hatch the analyzer honors.
func suppressed(sim *engine.Sim) {
	total := 0
	sim.At(0, func() {
		//nmlint:ignore simpure scratch counter, reset before every Run in the harness
		total++
	})
	_ = total
}
