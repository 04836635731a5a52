package repro_test

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/units"
)

// goldenWorkload is the fixed anchor workload of the fault, Table I and
// timeline tests.
func goldenWorkload() harness.Workload {
	return harness.Workload{N: 1 << 13, Seed: 7, Threads: 8, SP: 64 * units.KiB}
}

func table1Text(t *testing.T, fc fault.Config) string {
	t.Helper()
	tb, err := harness.Table1Faults(goldenWorkload(), false, fc)
	if err != nil {
		t.Fatal(err)
	}
	return tb.String()
}

// TestFaultSeedZeroGolden: a disabled (Seed == 0) fault config at maximal
// rates renders the fault-free Table I, the golden one. The fault-injection
// code is threaded through every device's timing path, so a difference means
// the disabled fault layer perturbed a fault-free simulation — the one thing
// it must never do. (TestRows pins the fault-free bytes themselves.)
func TestFaultSeedZeroGolden(t *testing.T) {
	if got, want := table1Text(t, fault.Profile(0, 1)), table1Text(t, fault.Config{}); got != want {
		t.Errorf("Table1 with a seed-0 fault config differs from the fault-free one:\n%s\nwant:\n%s", got, want)
	}
}

// TestFaultSweepDeterminism: the fault seed is the schedule — a different
// seed injects differently. (TestRows holds one seed's sweep to its bytes.)
func TestFaultSweepDeterminism(t *testing.T) {
	sweep := func(seed uint64) string {
		s, err := harness.RunFaultSweep(goldenWorkload(), 16, seed, []float64{1e-3, 1e-2})
		if err != nil {
			t.Fatal(err)
		}
		return s.String()
	}
	if sweep(99) == sweep(100) {
		t.Error("fault seeds 99 and 100 produced identical sweeps")
	}
}

// TestFaultSweepInjects sanity-checks that the sweep's fault rates actually
// inject: the highest-rate points must report fault activity and slow down
// relative to their fault-free anchors.
func TestFaultSweepInjects(t *testing.T) {
	s, err := harness.RunFaultSweep(goldenWorkload(), 16, 99, []float64{1e-2})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 4 { // (gnusort, nmsort) x (0, 1e-2)
		t.Fatalf("sweep has %d points, want 4", len(s.Points))
	}
	for i := 1; i < len(s.Points); i += 2 {
		p := s.Points[i]
		f := p.Result.Faults
		if f.FarBitErrors == 0 {
			t.Errorf("%s at rate %v injected nothing", p.Label, p.Rate)
		}
		if p.Slowdown <= 1 {
			t.Errorf("%s at rate %v slowdown %v, want > 1", p.Label, p.Rate, p.Slowdown)
		}
	}
}
