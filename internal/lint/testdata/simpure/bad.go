// Package simpure is the simpure fixture: bad.go holds the violations
// (every want marker is one diagnostic), good.go the allowed idioms.
package simpure

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/units"
)

var hits int

type comp struct {
	sim *engine.Sim
}

// badCaptures: callbacks may not mutate state that lives outside the
// component graph — captured locals, package-level vars, or anything
// reached through captured non-component values.
func badCaptures(sim *engine.Sim) {
	count := 0
	m := map[string]int{}
	p := new(int)
	sim.At(0, func() {
		count++    // want
		hits++     // want
		m["k"] = 1 // want
		*p = 2     // want
	})
}

// badHost: no host I/O, wall clock, or synchronization inside a callback.
func badHost(sim *engine.Sim, mu *sync.Mutex, ch chan int) {
	sim.At(0, func() {
		fmt.Println("tick")   // want
		_ = os.Getenv("HOME") // want
		_ = time.Now()        // want
		mu.Lock()             // want
		ch <- 1               // want
		<-ch                  // want
		close(ch)             // want
		go func() {}()        // want
	})
}

// badOpaque: a bare function value cannot be traversed, so it is flagged.
func badOpaque(sim *engine.Sim, f func()) {
	sim.At(0, f) // want
}

// badTicket: a wake redeemed with AtTicket runs inside the event loop like
// any other callback, so it is held to the same rules — impure bodies,
// opaque function values, and poisoned event fields are all flagged.
func badTicket(sim *engine.Sim, f func(), b *badPool) {
	sim.AtTicket(0, sim.Ticket(), func() {
		hits++              // want
		fmt.Println("wake") // want
	})
	sim.AtTicket(0, sim.Ticket(), f) // want
	sim.AtTicket(0, sim.Ticket(), b.ev)
}

// badFieldCall: calls through func-typed fields are equally opaque.
type hooks struct {
	fn func()
}

func badFieldCall(sim *engine.Sim, h *hooks) {
	sim.At(0, func() {
		h.fn() // want
	})
}

// badPool: a scheduled event field is verified through every assignment to
// it; one store of an opaque function value poisons the field.
type badPool struct {
	sim *engine.Sim
	ev  engine.Event
}

func (b *badPool) bind(f func()) {
	b.ev = f // want
}

func (b *badPool) schedule() {
	b.sim.At(0, b.ev)
}

// unbound: scheduling a field no assignment ever binds is flagged at the
// field's declaration.
type unbound struct {
	sim *engine.Sim
	ev  engine.Event // want
}

func (u *unbound) schedule() {
	u.sim.At(0, u.ev)
}

// badPoolLit: an impure callback stored into an event field is reported
// where the impurity lives, exactly like a directly scheduled literal.
type badPoolLit struct {
	sim *engine.Sim
	ev  engine.Event
}

func (b *badPoolLit) bind() {
	b.ev = func() {
		hits++ // want
	}
}

func (b *badPoolLit) schedule() {
	b.sim.At(0, b.ev)
}

// badTransitive: the walk follows method values through module-internal
// helpers; the violation is reported where it lives, not at the call site.
func (c *comp) leak() {
	c.helper()
}

func (c *comp) helper() {
	os.Exit(1) // want
}

func (c *comp) schedule() {
	c.sim.After(units.Nanosecond, c.leak)
}
