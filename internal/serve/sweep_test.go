package serve

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestNormalizeSweepIsTheFlaglessSweep: the wire's minimal request means the
// request a flagless `sweep` builds, on every field the defaults name
// (cmd/sweep's TestFlaglessRequest holds the other side to the same value).
func TestNormalizeSweepIsTheFlaglessSweep(t *testing.T) {
	got := normalizeSweep(SweepRequest{Exp: "bandwidth"})
	want := SweepRequest{Exp: "bandwidth", N: 1 << 20, Seed: 2015, Cores: 256, SPMiB: 8, Format: "text"}
	if got.Exp != want.Exp || got.N != want.N || got.Seed != want.Seed || got.Cores != want.Cores ||
		got.SPMiB != want.SPMiB || got.Format != want.Format {
		t.Errorf("normalizeSweep = %+v, want %+v", got, want)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("the defaults do not validate: %v", err)
	}
}

// TestRunSweepRefusesAnInvalidRequest: the executor validates on its own, so a
// caller that skips Validate gets its error and not a panicking row.
func TestRunSweepRefusesAnInvalidRequest(t *testing.T) {
	req := normalizeSweep(SweepRequest{Exp: "faults", N: 4096, Cores: 8, SPMiB: 1, FaultRates: []float64{7}})
	var out strings.Builder
	if _, err := RunSweep(&out, req, nil); err == nil || !strings.Contains(err.Error(), "fault_rates (-fault-rates)") {
		t.Fatalf("RunSweep(fault_rates [7]) = %v, want the fault_rates refusal", err)
	}
	if out.Len() != 0 {
		t.Errorf("a refused request wrote %q", out.String())
	}
}

// TestRunSweepNilSupervisorKeepsTheRetryPolicy: a nil supervisor is the zero
// one, so the request's retries and retry seed still reach every cell — the
// same bytes as under &harness.Supervisor{}, and not those of no retries.
func TestRunSweepNilSupervisorKeepsTheRetryPolicy(t *testing.T) {
	req := normalizeSweep(SweepRequest{Exp: "table1", N: 1 << 13, Cores: 16, SPMiB: 1, FaultSeed: 41, FaultRate: 2e-2, Retries: 2, RetrySeed: 5})
	render := func(req SweepRequest, sup *harness.Supervisor) string {
		var out strings.Builder
		if _, err := RunSweep(&out, req, sup); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	got := render(req, nil)
	if want := render(req, &harness.Supervisor{}); got != want {
		t.Errorf("under a nil supervisor:\n%s\nunder the zero one:\n%s", got, want)
	}
	noRetries := req
	noRetries.Retries = 0
	if got == render(noRetries, nil) {
		t.Error("retries change nothing here; the case no longer shows that they reach the cells")
	}
}
