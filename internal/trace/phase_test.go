package trace

import (
	"bytes"
	"testing"

	"repro/internal/addr"
)

// phaseTrace records a two-thread stream where thread 0 marks phases —
// the single-thread marking convention the algorithms follow.
func phaseTrace(t *testing.T) *Trace {
	t.Helper()
	rec := NewRecorder(2, tinyL1(), DefaultCosts())
	for tid := 0; tid < 2; tid++ {
		tp := rec.Thread(tid)
		if tid == 0 {
			tp.Phase("sort")
		}
		tp.Compute(50)
		tp.Load(addr.FarBase+addr.Addr(tid*4096), 8)
		tp.Barrier()
		if tid == 0 {
			tp.Phase("merge")
		}
		tp.Store(addr.FarBase+addr.Addr(tid*4096), 8)
		if tid == 0 {
			tp.Phase("sort") // re-entering a phase reuses its interned id
		}
	}
	return rec.Finish()
}

func TestPhaseInterning(t *testing.T) {
	tr := phaseTrace(t)
	if len(tr.PhaseNames) != 2 || tr.PhaseNames[0] != "sort" || tr.PhaseNames[1] != "merge" {
		t.Fatalf("PhaseNames = %v", tr.PhaseNames)
	}
	var ids []uint64
	for _, op := range stream(t, tr, 0) {
		if op.Kind == OpPhase {
			ids = append(ids, op.Addr)
		}
	}
	want := []uint64{0, 1, 0}
	if len(ids) != len(want) {
		t.Fatalf("phase ids = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("phase ids = %v, want %v", ids, want)
		}
	}
	// Thread 1 marked nothing.
	for _, op := range stream(t, tr, 1) {
		if op.Kind == OpPhase {
			t.Fatal("thread 1 has a phase marker")
		}
	}
}

func TestPhaseGapCarried(t *testing.T) {
	// A marker attaches the pending compute gap exactly as the next op
	// would, so total gap cycles match a marker-free recording of the same
	// work (timing neutrality).
	record := func(mark bool) *Trace {
		rec := NewRecorder(1, tinyL1(), DefaultCosts())
		tp := rec.Thread(0)
		tp.Compute(100)
		if mark {
			tp.Phase("p")
		}
		tp.Load(addr.FarBase, 8)
		return rec.Finish()
	}
	gaps := func(tr *Trace) (total uint64, phase uint64) {
		for _, op := range stream(t, tr, 0) {
			total += uint64(op.Gap)
			if op.Kind == OpPhase {
				phase = uint64(op.Gap)
			}
		}
		return
	}
	markedTotal, phaseGap := gaps(record(true))
	plainTotal, _ := gaps(record(false))
	if markedTotal != plainTotal {
		t.Errorf("marked trace carries %d gap cycles, marker-free %d", markedTotal, plainTotal)
	}
	if phaseGap != 100 {
		t.Errorf("phase marker absorbed gap %d, want 100", phaseGap)
	}
}

func TestPhaseRoundTrip(t *testing.T) {
	tr := phaseTrace(t)
	got := roundTrip(t, tr)
	if len(got.PhaseNames) != len(tr.PhaseNames) {
		t.Fatalf("PhaseNames: %v vs %v", got.PhaseNames, tr.PhaseNames)
	}
	for i := range tr.PhaseNames {
		if got.PhaseNames[i] != tr.PhaseNames[i] {
			t.Fatalf("PhaseNames: %v vs %v", got.PhaseNames, tr.PhaseNames)
		}
	}
	if err := sameOps(t, got, tr); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadPhaseID(t *testing.T) {
	tr := phaseTrace(t)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Point a marker past the name table.
	tr = decoded(t, tr)
	for i, op := range tr.Streams[0] {
		if op.Kind == OpPhase {
			tr.Streams[0][i].Addr = uint64(len(tr.PhaseNames))
			break
		}
	}
	if err := tr.Validate(); err == nil {
		t.Error("out-of-range phase id accepted")
	}
}

func TestPhaseNilTP(t *testing.T) {
	// A nil TP ignores markers like every other probe call.
	var tp *TP
	tp.Phase("p") // must not panic
}

func TestReadTraceRejectsOversizedPhaseTable(t *testing.T) {
	tr := phaseTrace(t)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The phase-name count lives right after the magic and 9-int64 header.
	off := len(traceMagic) + 9*8
	for i := 0; i < 8; i++ {
		raw[off+i] = 0xff // count = -1 (and any huge value) must be rejected
	}
	if _, err := ReadTrace(bytes.NewReader(raw)); err == nil {
		t.Error("corrupt phase-name count accepted")
	}
}
