package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/units"
)

// ndjsonRecorder builds a small sealed recorder with two counters.
func ndjsonRecorder() *Recorder {
	r := New(units.Microsecond)
	var a, b uint64
	r.Counter("far.ch0", "bytes", func() uint64 { return a })
	r.Counter("near.ch0", "bytes", func() uint64 { return b })
	a, b = 64, 128
	r.Sample(units.Microsecond)
	a, b = 4096, 256
	r.Finish(3 * units.Microsecond)
	return r
}

// writeNDJSON streams every sample row of r, as the serving layer does
// between replay slices.
func writeNDJSON(t *testing.T, r *Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < r.Samples(); i++ {
		if err := r.WriteSampleNDJSON(&buf, i); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestWriteNDJSON checks the stream is valid JSON per line, keeps probe
// registration order in the keys, and is byte-deterministic.
func TestWriteNDJSON(t *testing.T) {
	r := ndjsonRecorder()
	out := writeNDJSON(t, r)
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out)
	}
	for i, line := range lines {
		var obj struct {
			Type     string            `json:"type"`
			TPs      int64             `json:"t_ps"`
			Counters map[string]uint64 `json:"counters"`
		}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if obj.Type != "sample" || len(obj.Counters) != 2 {
			t.Fatalf("line %d = %+v, want sample with 2 counters", i, obj)
		}
	}
	if !strings.Contains(lines[0], `"far.ch0.bytes":64`) || !strings.Contains(lines[1], `"near.ch0.bytes":256`) {
		t.Fatalf("counter values wrong:\n%s", out)
	}
	// Registration order, not sorted order: far.ch0 registered first.
	if far := strings.Index(lines[0], "far.ch0"); far > strings.Index(lines[0], "near.ch0") {
		t.Fatalf("keys not in registration order: %s", lines[0])
	}
	if again := writeNDJSON(t, r); !bytes.Equal(out, again) {
		t.Fatal("the NDJSON stream is not byte-deterministic")
	}
}

// TestWriteSampleNDJSON checks a row streamed while the replay runs is the
// row the finished recorder holds: later samples and Finish never rewrite
// a row already sent.
func TestWriteSampleNDJSON(t *testing.T) {
	r := New(units.Microsecond)
	var v uint64 = 64
	r.Counter("far.ch0", "bytes", func() uint64 { return v })
	r.Sample(units.Microsecond)
	var early bytes.Buffer
	if err := r.WriteSampleNDJSON(&early, 0); err != nil {
		t.Fatal(err)
	}
	v = 4096
	r.Sample(2 * units.Microsecond)
	r.Finish(3 * units.Microsecond)
	var late bytes.Buffer
	if err := r.WriteSampleNDJSON(&late, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(early.Bytes(), late.Bytes()) {
		t.Fatalf("row 0 streamed as %q, reads %q after Finish", early.String(), late.String())
	}
}

// TestWritePhasesNDJSON checks phase rows parse and carry the derived
// bandwidth/utilization numbers.
func TestWritePhasesNDJSON(t *testing.T) {
	phases := []PhaseUsage{
		{Name: "sort chunks", Start: 0, End: units.Microsecond,
			FarBytes: 1 << 20, NearBytes: 1 << 18,
			FarBusy: 500 * units.Nanosecond, NearBusy: 250 * units.Nanosecond,
			FarChannels: 2, NearChannels: 8},
		{Name: "(init)", Start: units.Microsecond, End: 2 * units.Microsecond},
	}
	var buf bytes.Buffer
	if err := WritePhasesNDJSON(&buf, phases); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var obj struct {
		Type    string  `json:"type"`
		Name    string  `json:"name"`
		FarGBps float64 `json:"far_gbps"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &obj); err != nil {
		t.Fatalf("phase line not valid JSON: %v\n%s", err, lines[0])
	}
	if obj.Type != "phase" || obj.Name != "sort chunks" {
		t.Fatalf("phase row = %+v", obj)
	}
	if want := phases[0].FarGBps(); obj.FarGBps != want {
		t.Fatalf("far_gbps = %v, want %v", obj.FarGBps, want)
	}
}
