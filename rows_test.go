package repro_test

// The same-bytes invariant, in one place: every row of the experiment
// registry prints the bytes committed in testdata/rows.golden, whichever way
// it is run. The bytes are a pure function of the request — a -par value, a
// host width, a warm -trace-cache directory, a half-written manifest or the
// daemon in between may not move one of them.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/harness"
	"repro/internal/prof"
	"repro/internal/serve"
)

const rowsGolden = "testdata/rows.golden"

// rowRequest is `sweep -exp=<exp> -n 4096 -cores 16 -sp 1` as its flags parse
// (the fault and retry seeds are sweep's flag defaults), in format at par.
func rowRequest(exp, format string, par int) serve.SweepRequest {
	return serve.SweepRequest{Exp: exp, N: 4096, Seed: serve.DefaultSeed, Cores: 16, SPMiB: 1,
		Format: format, Par: par, FaultSeed: 1, RetrySeed: 1}
}

// goldenLine is one "<sha256>  <name>" entry of rows.golden.
type goldenLine struct{ sum, name string }

// readGolden parses rows.golden: comment lines, then entries in file order.
func readGolden(t *testing.T) (comments []string, entries []goldenLine) {
	t.Helper()
	raw, err := os.ReadFile(rowsGolden)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			comments = append(comments, line)
			continue
		}
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", rowsGolden, line)
		}
		entries = append(entries, goldenLine{sum, name})
	}
	return comments, entries
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// rowWalk is one row's pass over the axes: the sums its cold run printed,
// each later run held to the golden file.
type rowWalk struct {
	exp    string
	want   map[string]string // golden name → sum
	got    map[string]string // what the cold run (and the warm CSV run) printed
	traces string            // the row's -trace-cache directory, warm after the cold run
}

// check holds one run's bytes to the golden entry for name. A name the file
// lacks is reported once, by TestRows.
func (r *rowWalk) check(t *testing.T, name string, b []byte) {
	t.Helper()
	if want, ok := r.want[name]; ok && sha(b) != want {
		t.Errorf("%s moved: sha256 %s, golden %s", name, sha(b), want)
	}
}

// run renders the request under sup through the one front door; every cell
// must complete.
func (r *rowWalk) run(t *testing.T, req serve.SweepRequest, sup *harness.Supervisor) []byte {
	t.Helper()
	var b bytes.Buffer
	failed, err := serve.RunSweep(&b, req, sup)
	if err != nil || failed != 0 {
		t.Fatalf("%+v: failed=%d err=%v", req, failed, err)
	}
	return b.Bytes()
}

// warmSup is a supervisor over the row's trace cache, the way
// `sweep -trace-cache` builds one.
func (r *rowWalk) warmSup(t *testing.T) *harness.Supervisor {
	t.Helper()
	rc, err := harness.NewDiskRecordCache(r.traces)
	if err != nil {
		t.Fatal(err)
	}
	return &harness.Supervisor{Records: rc}
}

// halfManifest writes the first half of a manifest's cells to a new file,
// as a sweep killed halfway leaves it, and opens it as -resume would.
func halfManifest(t *testing.T, full []byte, path string) *harness.Manifest {
	t.Helper()
	var f struct {
		Cells []struct {
			Trace, Config string
			Cell          harness.CellOutcome
		}
	}
	if err := json.Unmarshal(full, &f); err != nil {
		t.Fatal(err)
	}
	half := harness.NewManifest(path)
	for _, c := range f.Cells[:len(f.Cells)/2] {
		tk, err1 := strconv.ParseUint(c.Trace, 16, 64)
		ck, err2 := strconv.ParseUint(c.Config, 16, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad cell key %s/%s", c.Trace, c.Config)
		}
		if err := half.Complete(harness.CellKey{Trace: tk, Config: ck}, c.Cell); err != nil {
			t.Fatal(err)
		}
	}
	m, err := harness.OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRows walks every registry row at `-n 4096 -cores 16 -sp 1` over the axes
// that must not move a byte, each a subtest:
//
//	cold         par 1, a fresh -trace-cache directory and -manifest: text and manifest
//	warm         that directory and -resume from that manifest, every recording
//	             and cell found there, nothing replayed: CSV
//	par2         par 2, replaying from that directory's mapped files: text
//	gomaxprocs   GOMAXPROCS 1 (2 on a one-CPU host), recorded afresh: text and manifest
//	resume       -resume from a manifest holding half the cold run's cells: text and manifest
//	served       POST /v1/sweeps to nmsimd's handler through Client.SweepTo: text
//
// Every result is held to testdata/rows.golden. On any difference the test
// names each row and axis that moved and writes what the cold and warm runs
// printed to testdata/rows.golden.new: a deliberate change is a mv that review
// reads as a diff. The large/ entries are scripts/schedule_smoke.sh's.
func TestRows(t *testing.T) {
	if testing.Short() {
		// The kmeans row alone records 2^18 points twice. Under -race -short,
		// internal/harness's TestScheduleMatchesSequentialDriver runs every
		// row's pool against its sequential oracle instead.
		t.Skip("every row six times; skipped in -short")
	}
	comments, entries := readGolden(t)
	want := map[string]string{}
	for _, e := range entries {
		want[e.name] = e.sum
	}
	hs := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer hs.Close()
	daemon := &serve.Client{BaseURL: hs.URL}

	// The new file: every row that ran as it printed, every row that did
	// not (filtered out by -run, or failed before printing) as committed.
	var b strings.Builder
	for _, c := range comments {
		fmt.Fprintln(&b, c)
	}
	for _, e := range harness.Experiments {
		r := &rowWalk{exp: e.Name, want: want, got: map[string]string{}}
		t.Run(e.Name, func(t *testing.T) { walkRow(t, r, daemon) })
		if len(r.got) == 0 {
			for _, g := range entries {
				if row, _, _ := strings.Cut(g.name, "."); row == e.Name {
					fmt.Fprintf(&b, "%s  %s\n", g.sum, g.name)
				}
			}
			continue
		}
		for _, kind := range []string{".txt", ".csv", ".manifest.json"} {
			name := e.Name + kind
			sum, printed := r.got[name]
			if _, committed := want[name]; printed != committed {
				t.Errorf("%s: printed %v, in %s %v", name, printed, rowsGolden, committed)
			}
			if printed {
				fmt.Fprintf(&b, "%s  %s\n", sum, name)
			}
		}
	}
	for _, g := range entries {
		row, _, _ := strings.Cut(g.name, ".")
		if _, ok := harness.FindExperiment(row); strings.HasPrefix(g.name, "large/") {
			fmt.Fprintf(&b, "%s  %s\n", g.sum, g.name)
		} else if !ok {
			t.Errorf("%s: in %s, names no registry row", g.name, rowsGolden)
		}
	}
	if !t.Failed() {
		return
	}
	if err := os.WriteFile(rowsGolden+".new", []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s.new; if the change is deliberate, mv it over %s", rowsGolden, rowsGolden)
}

// walkRow runs one row over every axis; the cold run goes first, since it
// fills the trace cache and writes the manifest the others read.
func walkRow(t *testing.T, r *rowWalk, daemon *serve.Client) {
	dir := t.TempDir()
	r.traces = filepath.Join(dir, "traces")
	var manifest []byte
	t.Run("cold", func(t *testing.T) {
		sup := r.warmSup(t)
		man := harness.NewManifest(filepath.Join(dir, "cold.json"))
		sup.Cache = man
		text := r.run(t, rowRequest(r.exp, "text", 1), sup)
		if err := man.Flush(); err != nil {
			t.Fatal(err)
		}
		r.got[r.exp+".txt"] = sha(text)
		r.check(t, r.exp+".txt", text)
		raw, err := os.ReadFile(filepath.Join(dir, "cold.json"))
		if err != nil {
			t.Fatal(err)
		}
		if manifestCells(t, raw) == 0 {
			return // a model-side row, or telemetry cells: nothing checkpointed
		}
		manifest = raw
		r.got[r.exp+".manifest.json"] = sha(manifest)
		r.check(t, r.exp+".manifest.json", manifest)
	})
	if _, ran := r.got[r.exp+".txt"]; !ran {
		return // the row did not run: no axis can
	}
	t.Run("warm", func(t *testing.T) {
		sup := r.warmSup(t)
		sup.Timings = prof.NewStages()
		if manifest != nil {
			m, err := harness.OpenManifest(filepath.Join(dir, "cold.json"))
			if err != nil {
				t.Fatal(err)
			}
			sup.Cache = m
		}
		csv := r.run(t, rowRequest(r.exp, "csv", 1), sup)
		r.got[r.exp+".csv"] = sha(csv)
		r.check(t, r.exp+".csv", csv)
		records := 0
		for _, st := range sup.Timings.Snapshot() {
			if st.Kind != "record" {
				continue
			}
			records++
			if !reflect.DeepEqual(st.Marks, []string{"cached"}) {
				t.Errorf("recording %s missed the trace cache the cold run filled", st.Name)
			}
		}
		if manifest != nil && records == 0 {
			t.Error("the row replays cells but recorded nothing through the trace cache")
		}
	})
	t.Run("par2", func(t *testing.T) {
		r.check(t, r.exp+".txt", r.run(t, rowRequest(r.exp, "text", 2), r.warmSup(t)))
	})
	t.Run("gomaxprocs", func(t *testing.T) {
		procs := 1
		if runtime.GOMAXPROCS(0) == 1 {
			procs = 2
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		// Recording is what forks goroutines; a replay is one. So the cells
		// come from a copy of the cold manifest, found only under the trace
		// digests the cold recordings had: a recording that moved misses,
		// replays and rewrites the file.
		sup := &harness.Supervisor{}
		path := filepath.Join(dir, "procs.json")
		if manifest != nil {
			if err := os.WriteFile(path, manifest, 0o644); err != nil {
				t.Fatal(err)
			}
			m, err := harness.OpenManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			sup.Cache = m
		}
		r.check(t, r.exp+".txt", r.run(t, rowRequest(r.exp, "text", 0), sup))
		if manifest != nil {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			r.check(t, r.exp+".manifest.json", raw)
		}
	})
	if manifest != nil {
		t.Run("resume", func(t *testing.T) {
			path := filepath.Join(dir, "half.json")
			sup := r.warmSup(t)
			sup.Cache = halfManifest(t, manifest, path)
			r.check(t, r.exp+".txt", r.run(t, rowRequest(r.exp, "text", 1), sup))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			r.check(t, r.exp+".manifest.json", raw)
		})
	}
	t.Run("served", func(t *testing.T) {
		var b bytes.Buffer
		failed, err := daemon.SweepTo(context.Background(), &b, rowRequest(r.exp, "text", 0))
		if err != nil || failed != 0 {
			t.Fatalf("failed=%d err=%v", failed, err)
		}
		r.check(t, r.exp+".txt", b.Bytes())
	})
}

// hitCounter is a cell cache that counts its hits.
type hitCounter struct {
	harness.CellCache
	hits atomic.Int64
}

func (c *hitCounter) Lookup(key harness.CellKey) (harness.CellOutcome, bool) {
	out, ok := c.CellCache.Lookup(key)
	if ok {
		c.hits.Add(1)
	}
	return out, ok
}

// manifestCells counts the cells a manifest file holds.
func manifestCells(t *testing.T, raw []byte) int {
	t.Helper()
	var f struct {
		Cells []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return len(f.Cells)
}

// TestResumeFromOldKeysReplaysEveryCell: testdata/dma.keyv1.manifest.json is
// `sweep -exp=dma -n 4096 -cores 16 -sp 1 -manifest` as written while cell
// keys hashed the %+v rendering of the config, before keyVersion 2. It still
// opens, and -resume from it finds none of its cells: each is replayed and
// checkpointed under its current key, and the report is the cold bytes.
func TestResumeFromOldKeysReplaysEveryCell(t *testing.T) {
	raw, err := os.ReadFile("testdata/dma.keyv1.manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "resume.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := harness.OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	old := manifestCells(t, raw)
	cache := &hitCounter{CellCache: m}
	var b bytes.Buffer
	if failed, err := serve.RunSweep(&b, rowRequest("dma", "text", 1), &harness.Supervisor{Cache: cache}); err != nil || failed != 0 {
		t.Fatalf("failed=%d err=%v", failed, err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, cells := cache.hits.Load(), manifestCells(t, after); n != 0 || cells != 2*old {
		t.Errorf("%d of %d old cells answered, %d cells after the run; want none answered and %d", n, old, cells, 2*old)
	}
	_, entries := readGolden(t)
	for _, e := range entries {
		if e.name == "dma.txt" && sha(b.Bytes()) != e.sum {
			t.Errorf("dma.txt: sha256 %s, golden %s", sha(b.Bytes()), e.sum)
		}
	}
}
