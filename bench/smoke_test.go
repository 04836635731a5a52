// Package bench holds the smoke test of the benchmark: `go test ./...` in
// this directory runs every workload of nmbench once at toy size and checks
// the shape of what it prints against the root BENCHMARK.json.
package bench

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type resultLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value *float64
		Unit  string
	}
}

// parallelRatios are the only metrics allowed to be null, and only on a
// one-CPU host.
var parallelRatios = map[string]bool{"harness.par_speedup": true, "machine.shards_over_seq": true}

func TestSmoke(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if got := names(spec.Workloads); strings.Join(got, " ") != "table1-cold sweep-warm trace-store serve-mix" {
		t.Fatalf("BENCHMARK.json workloads = %v", got)
	}
	nmbench := filepath.Join(t.TempDir(), "nmbench")
	if out, err := exec.Command("go", "build", "-o", nmbench, "./cmd/nmbench").CombinedOutput(); err != nil {
		t.Fatalf("building nmbench: %v\n%s", err, out)
	}

	run := func(workload, trace string, want map[string]string) {
		t.Helper()
		cmd := exec.Command(nmbench, "--workload", workload, "--seed", "7", "--seconds", "2", "--trace", trace,
			"-n", "8192", "-cores", "16", "-reps", "1")
		cmd.Dir = root
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s trace %s: %v\n%s", workload, trace, err, out)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s trace %s: last line is not the result object: %v", workload, trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s trace %s: %d metrics, BENCHMARK.json lists %d", workload, trace, len(res.Metrics), len(want))
		}
		for name, unit := range want {
			m, ok := res.Metrics[name]
			switch {
			case !ok:
				t.Errorf("%s trace %s: metric %s missing", workload, trace, name)
			case m.Unit != unit:
				t.Errorf("%s trace %s: %s has unit %q, want %q", workload, trace, name, m.Unit, unit)
			case m.Value == nil:
				if !parallelRatios[name] || runtime.NumCPU() > 1 {
					t.Errorf("%s trace %s: %s is null", workload, trace, name)
				}
			case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
				t.Errorf("%s trace %s: %s = %v", workload, trace, name, *m.Value)
			}
		}
	}

	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		run(w.Name, "0", endToEnd)
	}
	// The ledger is the same traced run whichever workload asks for it.
	run("table1-cold", "1", perLayer)

	files, err := filepath.Glob(filepath.Join(root, "bench", "out", "spans-*.json"))
	if err != nil || len(files) < len(spec.Workloads) {
		t.Fatalf("span files: %v %v", files, err)
	}
	for _, file := range files {
		var spans []struct {
			ID, Parent int
			Name       string
			Start      int64 `json:"start_ns"`
			End        int64 `json:"end_ns"`
		}
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if len(spans) == 0 {
			t.Errorf("%s: no spans", file)
		}
		for _, s := range spans {
			if s.End < s.Start {
				t.Errorf("%s: span %d %q ends before it starts", file, s.ID, s.Name)
			}
			if s.Parent < 0 {
				continue
			}
			if p := spans[s.Parent]; s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %d %q [%d,%d] is outside its parent %q [%d,%d]", file, s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
	}
}

func names(ws []struct{ Name string }) []string {
	var out []string
	for _, w := range ws {
		out = append(out, w.Name)
	}
	return out
}
