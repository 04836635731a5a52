package repro_test

// Byte-identity of every rendered report across replay worker counts: the
// parallel sweep pool (internal/harness/parallel.go) must be invisible in
// the output. Each replay point owns a private engine, machine, and fault
// injector and writes its outcome to a pre-assigned slot, so Table I, the
// sweeps, and the fault axis are required to produce the same bytes at
// -par 1, -par 8, and whatever GOMAXPROCS resolves to.

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/harness"
)

// digest hashes a rendered report for compact comparison failures.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// parVariants is the worker-count axis every byte-identity test runs over:
// forced-sequential, oversubscribed, and auto (GOMAXPROCS).
var parVariants = []int{1, 8, 0}

// TestTable1ParByteIdentity pins Table I to the golden digest at every
// worker count — the pool may not move a single output byte, including the
// anchor the fault layer is checked against.
func TestTable1ParByteIdentity(t *testing.T) {
	for _, par := range parVariants {
		w := goldenWorkload()
		w.Par = par
		tb, err := harness.Table1Faults(w, false, fault.Config{})
		if err != nil {
			t.Fatalf("Par=%d: %v", par, err)
		}
		if got := digest(tb.String()); got != goldenTable1 {
			t.Errorf("Par=%d: Table1 digest = %s, want golden %s", par, got, goldenTable1)
		}
	}
}

// TestBandwidthSweepParByteIdentity requires the C1 sweep text to be
// byte-identical at every worker count, including under a different
// GOMAXPROCS (the auto value -par 0 resolves to).
func TestBandwidthSweepParByteIdentity(t *testing.T) {
	render := func(par int) string {
		w := goldenWorkload()
		w.Par = par
		s, err := harness.BandwidthSweep(w)
		if err != nil {
			t.Fatalf("Par=%d: %v", par, err)
		}
		return s.String()
	}
	want := render(1)
	for _, par := range parVariants[1:] {
		if got := render(par); got != want {
			t.Errorf("Par=%d: bandwidth sweep differs from sequential output", par)
		}
	}
	old := runtime.GOMAXPROCS(0)
	alt := 1
	if old == 1 {
		alt = 4
	}
	runtime.GOMAXPROCS(alt)
	defer runtime.GOMAXPROCS(old)
	if got := render(0); got != want {
		t.Errorf("GOMAXPROCS=%d: bandwidth sweep differs from sequential output", alt)
	}
}

// TestFaultSweepParByteIdentity extends the identity to the fault axis: the
// injectors are counter-keyed per replay, so the schedule may not depend on
// which worker ran which point.
func TestFaultSweepParByteIdentity(t *testing.T) {
	render := func(par int) string {
		w := goldenWorkload()
		w.Par = par
		s, err := harness.RunFaultSweep(w, 16, 99, []float64{1e-3, 1e-2})
		if err != nil {
			t.Fatalf("Par=%d: %v", par, err)
		}
		return s.String()
	}
	want := render(1)
	for _, par := range parVariants[1:] {
		if got := render(par); got != want {
			t.Errorf("Par=%d: fault sweep differs from sequential output", par)
		}
	}
}
