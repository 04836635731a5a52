package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/harness"
	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/units"
)

// testTrace records a small but representative trace: both windows,
// compute gaps, atomics, DMA, and barriers across three threads.
func testTrace(t *testing.T) *trace.Trace {
	t.Helper()
	rec := trace.NewRecorder(3, trace.L1Geometry{
		Capacity: 4 * 1024, Ways: 4, LineSize: 64,
	}, trace.DefaultCosts())
	for tid := 0; tid < 3; tid++ {
		tp := rec.Thread(tid)
		for i := 0; i < 300; i++ {
			tp.Compute(int64(100 + i%7))
			tp.Load(addr.FarBase+addr.Addr(tid<<20+i*64), 8)
			if i%3 == 0 {
				tp.Store(addr.NearBase+addr.Addr(tid<<16+(i%64)*64), 8)
			}
			if i%100 == 50 {
				tp.Atomic(addr.NearBase + addr.Addr(tid<<16))
				tp.DMA(addr.FarBase+addr.Addr(tid<<20), addr.NearBase+addr.Addr(tid<<16), 4096)
				tp.DMAWait()
				tp.Barrier()
			}
		}
		tp.Barrier()
	}
	return rec.Finish(nil)
}

// writeV2 serializes tr as a v2 stream at path and returns the bytes.
func writeV2(t *testing.T, tr *trace.Trace, path string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConvertRoundTrip pins the satellite contract: converting a trace
// between serializations and back reproduces the input file byte for
// byte, in both directions.
func TestConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	v2a := filepath.Join(dir, "a.nmt")
	v3a := filepath.Join(dir, "a.nmt3")
	v2b := filepath.Join(dir, "b.nmt")
	v3b := filepath.Join(dir, "b.nmt3")

	orig := writeV2(t, testTrace(t), v2a)

	// v2 -> v3 -> v2 must reproduce the v2 bytes.
	if err := convertFile(v2a, v3a); err != nil {
		t.Fatalf("convert v2->v3: %v", err)
	}
	if err := convertFile(v3a, v2b); err != nil {
		t.Fatalf("convert v3->v2: %v", err)
	}
	back, err := os.ReadFile(v2b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, back) {
		t.Fatalf("v2 -> v3 -> v2 changed the bytes: %d vs %d", len(orig), len(back))
	}

	// v3 -> v2 -> v3 must reproduce the v3 bytes.
	v3orig, err := os.ReadFile(v3a)
	if err != nil {
		t.Fatal(err)
	}
	if err := convertFile(v2b, v3b); err != nil {
		t.Fatalf("convert v2->v3: %v", err)
	}
	v3back, err := os.ReadFile(v3b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v3orig, v3back) {
		t.Fatalf("v3 -> v2 -> v3 changed the bytes: %d vs %d", len(v3orig), len(v3back))
	}

	// Digests agree across all four files.
	var digests []uint64
	for _, p := range []string{v2a, v3a, v2b, v3b} {
		src, err := trace.Load(p, par.Each)
		if err != nil {
			t.Fatalf("Load %s: %v", p, err)
		}
		d, err := src.Digest()
		if err != nil {
			t.Fatalf("Digest %s: %v", p, err)
		}
		if col, ok := src.(*trace.Columnar); ok {
			col.Close()
		}
		digests = append(digests, d)
	}
	for _, d := range digests[1:] {
		if d != digests[0] {
			t.Fatalf("digest mismatch across conversions: %x", digests)
		}
	}
}

// TestFormat: only a .nmt name asks for v2; every other name, the .nmt3
// extension, none at all or a foreign one, gets v3 — and convert writes it
// the bytes it writes at a .nmt3 name.
func TestFormat(t *testing.T) {
	for _, tc := range []struct{ out, want string }{
		{"a.nmt", "v2"}, {"dir.nmt3/a.nmt", "v2"}, {"a.nmt3.nmt", "v2"},
		{"a.nmt3", "v3"}, {"a", "v3"}, {"a.trace", "v3"}, {"a.nmt.bak", "v3"}, {"a.NMT", "v3"}, {"nmt", "v3"},
	} {
		if got := format(tc.out); got != tc.want {
			t.Errorf("format(%q) = %s, want %s", tc.out, got, tc.want)
		}
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "in.nmt")
	writeV2(t, testTrace(t), in)
	var images [][]byte
	for _, out := range []string{"a.nmt3", "a.trace"} {
		out = filepath.Join(dir, out)
		if err := convertFile(in, out); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !trace.IsColumnar(b) {
			t.Fatalf("%s: not a v3 file", out)
		}
		images = append(images, b)
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Fatalf("convert -o a.trace wrote %d bytes, -o a.nmt3 %d", len(images[1]), len(images[0]))
	}
}

// TestRecordWritesEitherSerialization: record -o x.nmt3 writes the
// recording's sealed image directly, record -o x.nmt the canonical v2 stream
// through its cursors, and the two files are each other's conversions byte
// for byte — a recorder-born image is the image convert encodes.
func TestRecordWritesEitherSerialization(t *testing.T) {
	dir := t.TempDir()
	w := harness.Workload{N: 1 << 11, Seed: 2015, Threads: 8, SP: 64 * units.KiB}
	for _, alg := range []harness.Algorithm{harness.AlgGNUSort, harness.AlgNMSort, harness.AlgNMSortDM, harness.AlgNMScatter} {
		v2, v3 := filepath.Join(dir, string(alg)+".nmt"), filepath.Join(dir, string(alg)+".nmt3")
		for _, out := range []string{v2, v3} {
			res, n, err := recordFile(alg, w, out)
			if err != nil {
				t.Fatalf("record %s -> %s: %v", alg, out, err)
			}
			if st, err := os.Stat(out); err != nil || st.Size() != n || res.Trace.Ops() == 0 {
				t.Fatalf("record %s -> %s: reported %d bytes, file: %v (%v)", alg, out, n, st, err)
			}
		}
		for _, c := range []struct{ in, want, ext string }{{v2, v3, ".conv.nmt3"}, {v3, v2, ".conv.nmt"}} {
			out := filepath.Join(dir, string(alg)+c.ext)
			if err := convertFile(c.in, out); err != nil {
				t.Fatalf("convert %s: %v", c.in, err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(c.want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: converting %s gives %d bytes that differ from the recorded %s (%d bytes)",
					alg, filepath.Base(c.in), len(got), filepath.Base(c.want), len(want))
			}
		}
	}
}

// TestConvertRejectsInvalid: conversion must refuse a trace that fails
// validation rather than propagate it into the other serialization, and
// leave a file already at the output as it was.
func TestConvertRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	// An unterminated stream (no OpEnd) fails Validate. Both serializations
	// of it load, so the refusal comes once the output's bytes are written.
	bad := &trace.Trace{
		Streams: [][]trace.Op{{{Kind: trace.OpAccess, Addr: uint64(addr.FarBase)}}},
		Costs:   trace.DefaultCosts(),
		L1:      trace.L1Geometry{Capacity: 4 * 1024, Ways: 4, LineSize: 64},
	}
	badV2 := filepath.Join(dir, "bad.nmt")
	writeV2(t, bad, badV2)
	badV3 := filepath.Join(dir, "bad.nmt3")
	var image bytes.Buffer
	if _, err := bad.Columns().WriteTo(&image); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(badV3, image.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	prev := writeV2(t, testTrace(t), filepath.Join(dir, "prev.nmt"))
	for _, in := range []string{badV2, badV3} {
		for _, ext := range []string{".nmt", ".nmt3"} {
			out := filepath.Join(dir, "prev"+ext)
			if err := os.WriteFile(out, prev, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := convertFile(in, out); err == nil {
				t.Fatalf("convertFile(%s, %s) accepted an invalid trace", filepath.Base(in), filepath.Base(out))
			}
			if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, prev) {
				t.Errorf("a refused convert of %s changed %s: %d bytes, %v", filepath.Base(in), filepath.Base(out), len(got), err)
			}
		}
	}
	onlyFiles(t, dir, "bad.nmt", "bad.nmt3", "prev.nmt", "prev.nmt3")
}

// TestConvertOntoItself: convert -i x -o x writes the conversion of x's old
// bytes, which it reads to the end from the file it replaces: a v3 image at
// a .nmt name becomes the v2 stream, and a v3 or v2 file onto itself stays
// what it was. A trace opened from the old file keeps reading its bytes.
func TestConvertOntoItself(t *testing.T) {
	dir := t.TempDir()
	v2 := writeV2(t, testTrace(t), filepath.Join(dir, "src.nmt"))
	if err := convertFile(filepath.Join(dir, "src.nmt"), filepath.Join(dir, "src.nmt3")); err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile(filepath.Join(dir, "src.nmt3"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		old, new []byte
	}{
		{"v3.nmt", v3, v2},
		{"x.nmt3", v3, v3},
		{"x.nmt", v2, v2},
	} {
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, tc.old, 0o644); err != nil {
			t.Fatal(err)
		}
		var opened *trace.Columnar
		if trace.IsColumnar(tc.old) {
			if opened, err = trace.Open(path); err != nil {
				t.Fatal(err)
			}
		}
		if err := convertFile(path, path); err != nil {
			t.Fatalf("convert %s onto itself: %v", tc.name, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, tc.new) {
			t.Errorf("convert %s onto itself: %d bytes (%v), want the %d of its conversion", tc.name, len(got), err, len(tc.new))
		}
		if opened != nil {
			if err := opened.CheckPayload(par.Each); err != nil {
				t.Errorf("%s opened before the convert: %v", tc.name, err)
			}
			opened.Close()
		}
	}
	onlyFiles(t, dir, "src.nmt", "src.nmt3", "v3.nmt", "x.nmt", "x.nmt3")
}

// onlyFiles fails t unless dir holds exactly names, in order: no temporary
// file of a write is left behind.
func onlyFiles(t *testing.T, dir string, names ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if strings.Join(got, " ") != strings.Join(names, " ") {
		t.Errorf("%s holds %q, want %q", dir, got, names)
	}
}

// TestStatFile smoke-tests the stat surface on both serializations.
func TestStatFile(t *testing.T) {
	dir := t.TempDir()
	v2p := filepath.Join(dir, "a.nmt")
	v3p := filepath.Join(dir, "a.nmt3")
	writeV2(t, testTrace(t), v2p)
	if err := convertFile(v2p, v3p); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := statFile(&out, v2p); err != nil {
		t.Fatalf("statFile v2: %v", err)
	}
	s := out.String()
	for _, want := range []string{"serialization: v2", "digest:", "threads:       3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("v2 stat output missing %q:\n%s", want, s)
		}
	}

	out.Reset()
	if err := statFile(&out, v3p); err != nil {
		t.Fatalf("statFile v3: %v", err)
	}
	s = out.String()
	for _, want := range []string{"serialization: v3", "file size:", "sections:", "tags", "addrs"} {
		if !strings.Contains(s, want) {
			t.Fatalf("v3 stat output missing %q:\n%s", want, s)
		}
	}
}

// TestInfoFile pins nmtrace info's bytes on a 2^14-key corpus, in both
// serializations: DMA copies and waits in one trace, atomics in the other.
func TestInfoFile(t *testing.T) {
	dir := t.TempDir()
	w := harness.Workload{N: 1 << 14, Seed: 2015, Threads: 16, SP: units.MiB}
	for _, tc := range []struct {
		alg  harness.Algorithm
		want string
	}{
		{harness.AlgNMSortDM, `threads:      16 (ops per thread 3123..4698)
total ops:    57048
  accesses:   56653 (far 618, near 56035)
  atomics:    0
  barriers:   368 (23 per thread)
  dma:        4 (+4 waits)
compute:      8636011 core cycles total
L1 geometry:  2KiB 2-way, 64B lines
costs:        issue 1, L1 hit 3, compare 30, atomic 20 cycles
`},
		{harness.AlgNMScatter, `threads:      16 (ops per thread 3827..5493)
total ops:    69328
  accesses:   68960 (far 13067, near 55893)
  atomics:    64
  barriers:   288 (18 per thread)
  dma:        0 (+0 waits)
compute:      8637892 core cycles total
L1 geometry:  2KiB 2-way, 64B lines
costs:        issue 1, L1 hit 3, compare 30, atomic 20 cycles
`},
	} {
		for _, ext := range []string{".nmt3", ".nmt"} {
			path := filepath.Join(dir, string(tc.alg)+ext)
			if _, _, err := recordFile(tc.alg, w, path); err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if err := infoFile(&out, path); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if out.String() != tc.want {
				t.Errorf("%s: info printed\n%s\nwant\n%s", path, out.String(), tc.want)
			}
		}
	}
}

// TestCheck: one verdict per file — "FILE: ok" on out, the failure on errw —
// and false when any file is not a loadable trace-event container.
func TestCheck(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.trace.json")
	bad := filepath.Join(dir, "bad.trace.json")
	if err := os.WriteFile(good, []byte(`{"traceEvents":[{"ph":"X","name":"p","ts":"0","dur":"1","pid":1,"tid":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(`{"traceEvents":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errw strings.Builder
	if !check([]string{good}, &out, &errw) {
		t.Errorf("valid file rejected: %s", errw.String())
	}
	if !strings.Contains(out.String(), "good.trace.json: ok") {
		t.Errorf("verdict missing: %q", out.String())
	}

	out.Reset()
	errw.Reset()
	if check([]string{good, bad}, &out, &errw) {
		t.Error("invalid file accepted")
	}
	if !strings.Contains(out.String(), "ok") || !strings.Contains(errw.String(), "bad.trace.json") {
		t.Errorf("mixed verdicts wrong: out=%q err=%q", out.String(), errw.String())
	}

	if check([]string{filepath.Join(dir, "missing.json")}, &out, &errw) {
		t.Error("missing file accepted")
	}
}

// TestReplayFile holds replay's node flags to the daemon's /v1/jobs rules:
// each bad value is a one-line error before any replay, never a panic, and
// the header prints the bandwidth expansion the node computes.
func TestReplayFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.nmt")
	writeV2(t, testTrace(t), path)
	for _, tc := range []struct {
		name string
		node serve.JobRequest
		want string // the error, or the header's start
	}{
		{"zero near", serve.JobRequest{NearChannels: 0, SPMiB: 4}, "near_channels (-near) 0 must be positive"},
		{"negative near", serve.JobRequest{NearChannels: -4, SPMiB: 4}, "near_channels (-near) -4 must be positive"},
		{"cores not multiple of 4", serve.JobRequest{Cores: 6, NearChannels: 16, SPMiB: 4}, "cores (-cores) 6 must be a positive multiple of 4"},
		{"zero scratchpad", serve.JobRequest{NearChannels: 16, SPMiB: 0}, "sp_mib (-sp) 0 must be positive"},
		{"cores from the trace", serve.JobRequest{NearChannels: 16, SPMiB: 4}, "node: 4 cores, near 4X ("},
		{"near 10", serve.JobRequest{Cores: 8, NearChannels: 10, SPMiB: 4}, "node: 8 cores, near 2.5X ("},
		{"near 32", serve.JobRequest{NearChannels: 32, SPMiB: 1}, "node: 4 cores, near 8X ("},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := replayFile(&out, path, tc.node, 2)
			if strings.HasPrefix(tc.want, "node:") {
				if err != nil || !strings.HasPrefix(out.String(), tc.want) {
					t.Errorf("replayFile(%+v) = %v, printed:\n%s\nwant a header starting %q", tc.node, err, out.String(), tc.want)
				}
			} else if err == nil || err.Error() != tc.want || out.Len() != 0 {
				t.Errorf("replayFile(%+v) = %v after printing %q, want only %q", tc.node, err, out.String(), tc.want)
			}
		})
	}
}
