package telemetry

import (
	"strings"
	"testing"

	"repro/internal/units"
)

func TestSamplingRows(t *testing.T) {
	r := New(units.Microsecond)
	var a, b uint64
	r.Counter("dev", "a", func() uint64 { return a })
	r.Counter("dev", "b", func() uint64 { return b })
	if len(r.probes) != 2 {
		t.Fatalf("probes = %d", len(r.probes))
	}

	a, b = 1, 10
	r.Sample(0)
	a, b = 5, 20
	r.Sample(units.Microsecond)
	if r.Samples() != 2 {
		t.Fatalf("samples = %d", r.Samples())
	}
	if got := r.row(0); got[0] != 1 || got[1] != 10 {
		t.Errorf("row 0 = %v", got)
	}
	if got := r.row(1); got[0] != 5 || got[1] != 20 {
		t.Errorf("row 1 = %v", got)
	}
}

func TestFinishRecordsFinalSample(t *testing.T) {
	r := New(units.Microsecond)
	var v uint64
	r.Counter("dev", "v", func() uint64 { return v })
	r.Sample(0)
	v = 7
	end := 1500 * units.Nanosecond
	r.Finish(end)
	if r.Samples() != 2 {
		t.Fatalf("samples after Finish = %d", r.Samples())
	}
	if got := r.row(1); got[0] != 7 {
		t.Errorf("final row = %v", got)
	}
	if r.end != end {
		t.Errorf("end = %v, want %v", r.end, end)
	}

	// A sample already sitting exactly at end must not be duplicated.
	r2 := New(units.Microsecond)
	r2.Counter("dev", "v", func() uint64 { return 1 })
	r2.Sample(units.Microsecond)
	r2.Finish(units.Microsecond)
	if r2.Samples() != 1 {
		t.Errorf("duplicate final sample: %d rows", r2.Samples())
	}
}

func TestRecorderPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("New(0)", func() { New(0) })
	mustPanic("New(-1)", func() { New(-units.Nanosecond) })
	mustPanic("double Attach", func() {
		r := New(units.Microsecond)
		r.Attach()
		r.Attach()
	})
	mustPanic("Counter after sampling", func() {
		r := New(units.Microsecond)
		r.Sample(0)
		r.Counter("dev", "late", func() uint64 { return 0 })
	})
	mustPanic("double Finish", func() {
		r := New(units.Microsecond)
		r.Finish(units.Microsecond)
		r.Finish(units.Microsecond)
	})
}

func TestSliceTrackOrder(t *testing.T) {
	r := New(units.Microsecond)
	r.Span("dma", "copy", 0, units.Microsecond)
	r.MarkPhase("p1", 0)
	r.Instant("faults", "mem_fault", units.Microsecond)
	r.Span("core0", "barrier-wait", 0, units.Nanosecond)
	r.Span("dma", "copy", units.Microsecond, 2*units.Microsecond)

	got := r.sliceTracks()
	want := []string{PhaseTrack, "dma", "core0", "faults"}
	if len(got) != len(want) {
		t.Fatalf("tracks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tracks = %v, want %v", got, want)
		}
	}
}

func TestPhaseUsageMath(t *testing.T) {
	p := PhaseUsage{
		Name:  "p1",
		Start: 0, End: units.Microsecond,
		FarBytes: 1000, NearBytes: 4000,
		FarBusy: 2 * units.Microsecond, NearBusy: 4 * units.Microsecond,
		FarChannels: 4, NearChannels: 16,
	}
	if p.Duration() != units.Microsecond {
		t.Errorf("duration = %v", p.Duration())
	}
	// 1000 bytes in 1us = 1e9 B/s = 1 GB/s.
	if got := p.FarGBps(); got != 1.0 {
		t.Errorf("FarGBps = %v", got)
	}
	if got := p.NearGBps(); got != 4.0 {
		t.Errorf("NearGBps = %v", got)
	}
	// 2us busy over 1us x 4 channels = 0.5.
	if got := p.FarUtil(); got != 0.5 {
		t.Errorf("FarUtil = %v", got)
	}
	// 4us busy over 1us x 16 channels = 0.25.
	if got := p.NearUtil(); got != 0.25 {
		t.Errorf("NearUtil = %v", got)
	}

	// Degenerate phases report zero, not NaN or Inf.
	z := PhaseUsage{Name: "empty"}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"FarGBps", z.FarGBps()}, {"NearGBps", z.NearGBps()},
		{"FarUtil", z.FarUtil()}, {"NearUtil", z.NearUtil()},
	} {
		if c.v != 0 {
			t.Errorf("zero-duration %s = %v, want 0", c.name, c.v)
		}
	}
}

func TestCSVExport(t *testing.T) {
	r := New(units.Microsecond)
	var v uint64
	r.Counter("far", "reads", func() uint64 { return v })
	r.Counter("far.ch0", "bytes", func() uint64 { return 2 * v })
	r.Sample(0)
	v = 3
	r.Sample(units.Microsecond)

	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "t_ps,far.reads,far.ch0.bytes\n0,0,0\n1000000,3,6\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
}
