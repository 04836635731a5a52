package repro_test

// Byte-identity of Table I at the golden workload across replay worker
// counts, schedulers, and the columnar v3 trace files a -trace-cache
// directory serves: none of them may move a single output byte.

import (
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/harness"
)

// goldenTable1 is the SHA-256 of Table1(goldenWorkload, dma=false).String(),
// captured on the commit immediately before the fault layer landed.
const goldenTable1 = "ad1a9cdeb60699fe31b478ccb4df8f3e250b5c4dbdffd0da445e0135d28c872b"

// table1Sum renders Table I at w and hashes it.
func table1Sum(t *testing.T, w harness.Workload) string {
	t.Helper()
	tb, err := harness.Table1Faults(w, false, fault.Config{})
	if err != nil {
		t.Fatalf("par=%d: %v", w.Par, err)
	}
	return sha([]byte(tb.String()))
}

// TestTable1ParByteIdentity pins Table I to the golden digest at every
// worker count: forced-sequential, oversubscribed, and auto (GOMAXPROCS).
func TestTable1ParByteIdentity(t *testing.T) {
	for _, par := range []int{1, 8, 0} {
		w := goldenWorkload()
		w.Par = par
		if got := table1Sum(t, w); got != goldenTable1 {
			t.Errorf("Par=%d: Table1 digest = %s, want golden %s", par, got, goldenTable1)
		}
	}
}

// TestTable1FromConvertedV3ByteIdentity populates a disk cache of columnar
// v3 traces, then re-renders Table I from those files across the -par axis
// under two schedulers, pinning each render to goldenTable1.
func TestTable1FromConvertedV3ByteIdentity(t *testing.T) {
	rc, err := harness.NewDiskRecordCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// The first pass records fresh and persists each trace as .nmt3.
	w := goldenWorkload()
	w.Sup = &harness.Supervisor{Records: rc}
	if got := table1Sum(t, w); got != goldenTable1 {
		t.Fatalf("priming pass: Table1 digest = %s, want golden %s", got, goldenTable1)
	}

	// Every later pass replays from the converted v3 files.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, par := range []int{1, 8, 0} {
			w := goldenWorkload()
			w.Par = par
			w.Sup = &harness.Supervisor{Records: rc}
			if got := table1Sum(t, w); got != goldenTable1 {
				t.Errorf("par=%d procs=%d: v3-served Table1 digest = %s, want golden %s",
					par, procs, got, goldenTable1)
			}
		}
	}
}
