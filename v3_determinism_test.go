package repro_test

// Byte-identity of Table I when every recorded trace is round-tripped
// through the columnar v3 serialization: a sweep whose recordings are
// served from converted .nmt3 files must render the golden digest at
// every worker count and GOMAXPROCS — the on-disk format
// may not move a single output byte.

import (
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/harness"
)

// TestTable1FromConvertedV3ByteIdentity populates a disk cache of columnar
// v3 traces, then re-renders Table I from those files across the -par
// axis under two schedulers, pinning each render to goldenTable1.
func TestTable1FromConvertedV3ByteIdentity(t *testing.T) {
	rc, err := harness.NewDiskRecordCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// First pass records fresh and persists each trace as .nmt3.
	w := goldenWorkload()
	w.Sup = &harness.Supervisor{Records: rc}
	tb, err := harness.Table1Faults(w, false, fault.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(tb.String()); got != goldenTable1 {
		t.Fatalf("priming pass: Table1 digest = %s, want golden %s", got, goldenTable1)
	}

	// Every later pass replays from the converted v3 files.
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, par := range []int{1, 8, 0} {
			w := goldenWorkload()
			w.Par = par
			w.Sup = &harness.Supervisor{Records: rc}
			tb, err := harness.Table1Faults(w, false, fault.Config{})
			if err != nil {
				t.Fatalf("par=%d procs=%d: %v", par, procs, err)
			}
			if got := digest(tb.String()); got != goldenTable1 {
				t.Errorf("par=%d procs=%d: v3-served Table1 digest = %s, want golden %s",
					par, procs, got, goldenTable1)
			}
		}
	}
}
