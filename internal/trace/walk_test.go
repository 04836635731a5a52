package trace_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/harness"
	"repro/internal/par"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/xrand"
)

// requireFusedWalk holds every product of the one fused walk to the walks it
// replaced, each made on its own: the digest and the v2 bytes to the
// sequential writer's, Validate's verdict to the validate-only walk's, the
// footprint to a plain cursor walk's — for an opened image of src under each
// fork-join, whichever of Verify, Validate and WriteV2Par walks first, and for
// src itself.
func requireFusedWalk(t *testing.T, name string, src trace.Source) {
	t.Helper()
	wantV2, wantDigest, err := referenceWriteV2(src)
	if err != nil {
		t.Fatalf("%s: reference v2 writer: %v", name, err)
	}
	wantVerdict := fmt.Sprint(referenceValidate(src))
	wantBlind := walkNearBlind(t, src)
	wantCounts := trace.LevelCounts{}
	if wantVerdict == "<nil>" {
		wantCounts = walkCounts(t, src)
	}
	check := func(what string, s trace.Source) {
		t.Helper()
		if got := fmt.Sprint(s.Validate()); got != wantVerdict {
			t.Fatalf("%s, %s: Validate says %q, the validate-only walk %q", name, what, got, wantVerdict)
		}
		if d, err := s.Digest(); err != nil || d != wantDigest {
			t.Fatalf("%s, %s: Digest = %016x (%v), the sequential writer's checksum is %016x", name, what, d, err, wantDigest)
		}
		if wantVerdict != "<nil>" {
			return
		}
		var counts trace.LevelCounts
		switch s := s.(type) {
		case *trace.Trace:
			counts = s.Count()
		case *trace.Columnar:
			counts = s.Count()
		}
		if counts != wantCounts || s.NearBlind() != wantBlind {
			t.Fatalf("%s, %s: footprint %+v near-blind %v, a cursor walk finds %+v near-blind %v",
				name, what, counts, s.NearBlind(), wantCounts, wantBlind)
		}
	}
	writeV2 := func(what string, s trace.Source, fj trace.ForkJoin) {
		t.Helper()
		var buf bytes.Buffer
		n, err := trace.WriteV2Par(&buf, s, fj)
		if err != nil || n != int64(buf.Len()) || !bytes.Equal(buf.Bytes(), wantV2) {
			t.Fatalf("%s, %s: WriteV2Par wrote %d bytes (reports %d, %v), equal to the sequential writer's %d: %v",
				name, what, buf.Len(), n, err, len(wantV2), bytes.Equal(buf.Bytes(), wantV2))
		}
	}

	image, err := trace.EncodeColumnar(src)
	if err != nil {
		t.Fatalf("%s: EncodeColumnar: %v", name, err)
	}
	for i, fj := range []trace.ForkJoin{nil, par.Each} {
		fjName := []string{"sequential", "par.Each"}[i]
		for _, first := range []string{"Verify", "Validate", "WriteV2Par"} {
			col, err := trace.OpenBytes(image)
			if err != nil {
				t.Fatalf("%s: OpenBytes: %v", name, err)
			}
			what := fmt.Sprintf("opened image, %s, %s first", fjName, first)
			switch first {
			case "Verify":
				if err := col.Verify(); err != nil {
					t.Fatalf("%s, %s: Verify: %v", name, what, err)
				}
			case "Validate":
				col.ValidatePar(fj)
			case "WriteV2Par":
				writeV2(what, col, fj)
			}
			check(what, col)
			writeV2(what, col, fj)
			if err := col.Verify(); err != nil {
				t.Fatalf("%s, %s: Verify after the verdict was memoized: %v", name, what, err)
			}
		}
		writeV2("the source, "+fjName, src, fj)
	}
	check("the source", src)
}

// TestFusedWalkMatchesSeparateWalks runs every recording the harness can
// make, and the builder tests' generator — whose traces mostly fail
// validation, on barriers — through requireFusedWalk.
func TestFusedWalkMatchesSeparateWalks(t *testing.T) {
	w := harness.Workload{N: 1 << 12, Seed: 2015, Threads: 8, SP: 128 * units.KiB} // kmeans-sp pins 128KiB of points
	for _, name := range harness.AlgorithmNames() {
		res, err := harness.Record(harness.Algorithm(name), w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireFusedWalk(t, name, res.Trace)
	}
	// A fresh recording, walked for the first time by each entry point.
	for _, first := range []string{"Validate", "Digest", "WriteV2Par", "Verify"} {
		tr := recordSample(nil)
		switch first {
		case "Validate":
			tr.Columns().ValidatePar(par.Each)
		case "Digest":
			tr.Digest()
		case "WriteV2Par":
			trace.WriteV2Par(new(bytes.Buffer), tr, par.Each)
		case "Verify":
			tr.Columns().Verify()
		}
		requireFusedWalk(t, "fresh recording, "+first+" first", tr)
	}
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	for seed := 0; seed < seeds; seed++ {
		r := xrand.New(uint64(seed) + 1)
		s, threads, shape := r.Uint64(), uint8(r.Intn(256)), uint8(seed)
		requireFusedWalk(t, fmt.Sprintf("seed=%d/threads=%d/shape=%d", s, threads, shape), builderCase(s, threads, shape))
	}
}
