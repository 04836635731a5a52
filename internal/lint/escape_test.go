package lint

// White-box tests for the -escape-check plumbing: the compiler-output
// parser and the region/cold-line bookkeeping CrossCheck filters through.
// The end-to-end path (go build -gcflags=-m=2 over the real module) runs
// in scripts/check.sh and CI, where the toolchain is guaranteed present.

import (
	"path/filepath"
	"testing"
)

func TestParseEscapes(t *testing.T) {
	out := `# repro/internal/engine
./internal/engine/engine.go:10:6: can inline (*queue).pop
./internal/engine/engine.go:42:13: leaking param: fn
./internal/engine/engine.go:42:13: fn escapes to heap:
./internal/engine/engine.go:42:13:   flow: {heap} = fn:
./internal/engine/engine.go:42:13:     from item{...} (composite literal) at ./internal/engine/engine.go:44:20
./internal/engine/engine.go:57:9: moved to heap: it
./internal/engine/engine.go:60:11: make([]byte, n) does not escape
./internal/machine/machine.go:99:12: &postOp{...} escapes to heap
not a diagnostic line
`
	escs := ParseEscapes(out)
	want := []Escape{
		{File: "./internal/engine/engine.go", Line: 42, Col: 13, Msg: "fn escapes to heap"},
		{File: "./internal/engine/engine.go", Line: 57, Col: 9, Msg: "moved to heap: it"},
		{File: "./internal/machine/machine.go", Line: 99, Col: 12, Msg: "&postOp{...} escapes to heap"},
	}
	if len(escs) != len(want) {
		t.Fatalf("ParseEscapes returned %d escapes, want %d: %v", len(escs), len(want), escs)
	}
	for i, e := range escs {
		if e != want[i] {
			t.Errorf("escape %d = %+v, want %+v", i, e, want[i])
		}
	}
}

func TestRegionSetCovers(t *testing.T) {
	rs := newRegionSet()
	rs.add(Region{File: "/m/a.go", Func: "hot", StartLine: 10, EndLine: 30})
	rs.addCold("/m/a.go", 20, 22)

	if _, ok := rs.covers("/m/a.go", 15); !ok {
		t.Error("line 15 should be inside the hot region")
	}
	if _, ok := rs.covers("/m/a.go", 21); ok {
		t.Error("line 21 is cold (panic/error exit) and must not be covered")
	}
	if _, ok := rs.covers("/m/a.go", 31); ok {
		t.Error("line 31 is outside the region")
	}
	if _, ok := rs.covers("/m/b.go", 15); ok {
		t.Error("other files are not covered")
	}
	if got, ok := rs.covers("/m/a.go", 10); !ok || got.Func != "hot" {
		t.Errorf("covers should name the region, got %+v ok=%v", got, ok)
	}
}

func TestCrossCheck(t *testing.T) {
	mod := &Module{Root: "/m"}
	rs := newRegionSet()
	rs.add(Region{File: filepath.Join("/m", "internal", "engine", "engine.go"), Func: "step", StartLine: 40, EndLine: 60})
	rs.addCold(filepath.Join("/m", "internal", "engine", "engine.go"), 50, 52)

	escs := []Escape{
		{File: "./internal/engine/engine.go", Line: 45, Col: 3, Msg: "x escapes to heap"}, // inside: reported
		{File: "./internal/engine/engine.go", Line: 51, Col: 3, Msg: "y escapes to heap"}, // cold line: excused
		{File: "./internal/engine/engine.go", Line: 70, Col: 3, Msg: "z escapes to heap"}, // outside region
		{File: "./internal/machine/machine.go", Line: 45, Col: 3, Msg: "w escapes to heap"} /* other file */}
	diags := CrossCheck(mod, rs, escs)
	if len(diags) != 1 {
		t.Fatalf("CrossCheck returned %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "escape-check" || d.Line != 45 {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}
