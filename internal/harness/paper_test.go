package harness

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/model"
)

// TestPaperRowsRefuseSizesTheirAxesCannotUse: a row whose axis cannot start
// at the given n says so as an error — which is sweep's exit 1 and
// /v1/sweeps' 422 — and never panics; the smallest n it accepts runs.
func TestPaperRowsRefuseSizesTheirAxesCannotUse(t *testing.T) {
	cases := []struct {
		exp  string
		n    int
		want string // "" = runs
	}{
		{"m1", 31, "n = 31 must be at least 32"},
		{"m1", -1, "must be at least 32"},
		{"m1", 32, ""},
		{"m2", 0, "must be at least 32"},
		{"m2", 32, ""},
		{"m3", 1023, "n = 1023 must be at least 1024"},
		{"m3", 1024, ""},
		{"pem", 63, "n = 63 must be in [64, 262144]"},
		{"pem", 262145, "must be in [64, 262144]"},
		{"pem", 64, ""},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/n=%d", c.exp, c.n), func(t *testing.T) {
			e, ok := FindExperiment(c.exp)
			if !ok {
				t.Fatalf("%s is not registered", c.exp)
			}
			w := tinyWorkload()
			w.N = c.n
			out, err := e.Run(ExperimentParams{}, w)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("n = %d: %v", c.n, err)
			case c.want == "" && out.Failed() != 0:
				t.Fatalf("n = %d: %d failed cells", c.n, out.Failed())
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("n = %d: err = %v, want one saying %q", c.n, err, c.want)
			}
		})
	}
}

// TestCoDesignReadsTableOnesCells: -exp=codesign's measured row is the
// profile of Table I's GNU and NMsort-2X cells, computed by hand here, and
// after Table I on one manifest it replays nothing and adds no cell.
func TestCoDesignReadsTableOnesCells(t *testing.T) {
	man := NewManifest(filepath.Join(t.TempDir(), "m.json"))
	w := tinyWorkload()
	w.Sup = &Supervisor{Cache: man}
	tb, err := Table1Faults(w, false, fault.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cells := man.Len()
	w.Sup = &Supervisor{Cache: man}
	e, _ := FindExperiment("codesign")
	out, err := e.Run(ExperimentParams{}, w)
	if err != nil {
		t.Fatal(err)
	}
	if man.Len() != cells {
		t.Errorf("codesign after table1 grew the manifest from %d to %d cells", cells, man.Len())
	}
	p := model.TrafficProfile{
		BaseFar: float64(tb.Rows[0].Result.FarAccesses),
		NMFar:   float64(tb.Rows[1].Result.FarAccesses),
		NMNear:  float64(tb.Rows[1].Result.NearAccesses),
	}
	want := []string{"measured",
		strconv.FormatUint(tb.Rows[0].Result.FarAccesses, 10),
		strconv.FormatUint(tb.Rows[1].Result.FarAccesses, 10),
		strconv.FormatUint(tb.Rows[1].Result.NearAccesses, 10),
		fmt.Sprintf("%.2f", p.MinRho()),
		fmt.Sprintf("%.2fx", p.Speedup(2)), fmt.Sprintf("%.2fx", p.Speedup(4)), fmt.Sprintf("%.2fx", p.Speedup(8)),
		fmt.Sprintf("%.2fx", p.AsymptoticSpeedup()),
	}
	rows := out.Report().Rows
	if len(rows) != 2 || strings.Join(rows[1], "|") != strings.Join(want, "|") {
		t.Errorf("measured row = %q, want %q", rows[len(rows)-1], want)
	}
}
