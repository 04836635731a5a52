package serve

import (
	"context"
	"errors"
)

// The admission gate: bounded concurrency plus a bounded wait queue in
// front of the replay workers. A job is first admitted (or refused with
// ErrBusy when workers + queue are all taken — the HTTP layer's 429),
// then waits for a run slot. Built from two channels and no goroutines:
// jobs run on their request goroutines, so the gate only meters them.

// ErrBusy is returned when the queue is full; clients should back off and
// resubmit. Maps to 429 Too Many Requests.
var ErrBusy = errors.New("serve: job queue full")

// Gate meters job admission. Safe for concurrent use.
type Gate struct {
	admit chan struct{} // capacity workers+queue: admitted jobs (running or waiting)
	slots chan struct{} // capacity workers: running jobs
}

// NewGate returns a gate running at most workers jobs with at most queue
// more waiting (workers <= 0 means 1; queue < 0 means 0).
func NewGate(workers, queue int) *Gate {
	if workers <= 0 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &Gate{
		admit: make(chan struct{}, workers+queue),
		slots: make(chan struct{}, workers),
	}
}

// Acquire admits the caller and blocks until a run slot is free or ctx is
// done. On success the caller owns a slot until it calls the returned
// release. A full queue fails immediately with ErrBusy — overload is
// answered now, not after a timeout.
func (g *Gate) Acquire(ctx context.Context) (release func(), err error) {
	select {
	case g.admit <- struct{}{}:
	default:
		return nil, ErrBusy
	}
	select {
	case g.slots <- struct{}{}:
		return func() {
			<-g.slots
			<-g.admit
		}, nil
	case <-ctx.Done():
		<-g.admit
		return nil, context.Cause(ctx)
	}
}

// running reports the jobs currently holding run slots.
func (g *Gate) running() int { return len(g.slots) }

// Admitted reports admitted jobs (running plus waiting).
func (g *Gate) Admitted() int { return len(g.admit) }
