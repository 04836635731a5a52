package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/trace"
)

// TestErrorTaxonomy audits the failure vocabulary end to end: every error
// class the harness and the commands branch on must stay reachable through
// errors.Is / errors.As even when wrapped — callers classify with the
// taxonomy, never by string matching, so a silent wrap change would break
// retry, resume, and exit-code decisions without failing any other test.
func TestErrorTaxonomy(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", err)) }

	cancelled := &CancelledError{Cell: CellKey{Trace: 1}, Label: "c", Cause: context.Canceled}
	cases := []struct {
		name string
		err  error
		as   func(error) bool
		kind string // FailKind through the same wrap chain
	}{
		{
			name: "replay panic",
			err:  &ReplayPanicError{Cell: CellKey{Trace: 1, Config: 2}, Value: "boom"},
			as:   func(e error) bool { return errors.As(e, new(*ReplayPanicError)) },
			kind: "panic",
		},
		{
			name: "cancelled",
			err:  cancelled,
			as:   func(e error) bool { return errors.As(e, new(*CancelledError)) },
			kind: "cancelled",
		},
		{
			name: "budget",
			err:  &engine.BudgetError{MaxEvents: 10, LastEventAt: 5, Pending: 3},
			as:   func(e error) bool { return errors.As(e, new(*engine.BudgetError)) },
			kind: "budget",
		},
		{
			name: "stall",
			err:  &engine.StallError{Now: 7},
			as:   func(e error) bool { return errors.As(e, new(*engine.StallError)) },
			kind: "stall",
		},
		{
			name: "mem fault",
			err:  &fault.MemFaultError{Count: 1},
			as:   func(e error) bool { return errors.As(e, new(*fault.MemFaultError)) },
			kind: "error",
		},
		{
			name: "manifest corrupt",
			err:  fmt.Errorf("%w: details", errManifestCorrupt),
			as:   func(e error) bool { return errors.Is(e, errManifestCorrupt) },
			kind: "error",
		},
		{
			name: "trace decode",
			err:  &trace.DecodeError{Section: "header", Offset: 4, Err: errors.New("bad")},
			as:   func(e error) bool { return errors.As(e, new(*trace.DecodeError)) },
			kind: "error",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if !c.as(c.err) {
				t.Error("not reachable unwrapped")
			}
			if !c.as(wrap(c.err)) {
				t.Error("not reachable through a double wrap")
			}
			if got := FailKind(wrap(c.err)); got != c.kind {
				t.Errorf("FailKind = %q, want %q", got, c.kind)
			}
		})
	}

	// Cross-type leakage: errors.As must not confuse the classes.
	if errors.As(wrap(cancelled), new(*ReplayPanicError)) {
		t.Error("CancelledError matched ReplayPanicError")
	}
	// CancelledError unwraps to its cause for errors.Is.
	if !errors.Is(wrap(cancelled), context.Canceled) {
		t.Error("CancelledError cause unreachable via errors.Is")
	}
	if FailKind(nil) != "" {
		t.Errorf("FailKind(nil) = %q, want empty", FailKind(nil))
	}
}

// TestErrorTaxonomyLive drives two classes through their real production
// paths — an actual starved replay and an actual torn trace file — so the
// taxonomy test cannot rot into checking only hand-built values.
func TestErrorTaxonomyLive(t *testing.T) {
	w := tinyWorkload()
	rec, err := Record(AlgGNUSort, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NodeFor(w.Threads, 8, w.SP)
	cfg.MaxEvents = 99
	_, rerr := machine.Run(cfg, rec.Trace)
	var be *engine.BudgetError
	if !errors.As(rerr, &be) || be.MaxEvents != 99 {
		t.Errorf("starved replay error = %v, want BudgetError{MaxEvents: 99}", rerr)
	}

	var buf bytes.Buffer
	if _, err := rec.Trace.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	_, derr := trace.ReadTrace(bytes.NewReader(buf.Bytes()[:buf.Len()/2]))
	var de *trace.DecodeError
	if !errors.As(derr, &de) {
		t.Fatalf("torn trace error = %v, want DecodeError", derr)
	}
	if de.Section == "" || de.Offset < 0 {
		t.Errorf("DecodeError missing coordinates: %+v", de)
	}
}
