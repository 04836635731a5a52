package lint_test

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// wantRe matches a "// want" marker with an optional expected count:
// "// want" (one diagnostic) or "// want 2".
var wantRe = regexp.MustCompile(`// want(?: (\d+))?\s*$`)

// wantMarkers scans every .go file in dir for want markers and returns the
// expected diagnostic count per file:line.
func wantMarkers(t *testing.T, dir string) map[string]int {
	t.Helper()
	want := map[string]int{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			n := 1
			if m[1] != "" {
				n, _ = strconv.Atoi(m[1])
			}
			want[fmt.Sprintf("%s:%d", path, line)] = n
		}
		f.Close()
	}
	return want
}

// repo is this repository, opened once per test process: every fixture and
// both whole-module gates check the packages they need, and the standard
// library, on its one loader.
var repo = sync.OnceValues(func() (*lint.Module, error) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return lint.Open(root)
})

// loadFixture checks testdata/<name> as the package importPath.
func loadFixture(t *testing.T, name, importPath string) (u *lint.Unit, dir string) {
	t.Helper()
	mod, err := repo()
	if err != nil {
		t.Fatal(err)
	}
	dir = filepath.Join(mod.Root, "internal", "lint", "testdata", name)
	if u, err = mod.LoadDirAs(dir, importPath); err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return u, dir
}

// checkFixture loads testdata/<name> under importPath, runs the single
// analyzer, and compares diagnostics against the fixture's want markers.
func checkFixture(t *testing.T, a *lint.Analyzer, name, importPath string) {
	t.Helper()
	u, dir := loadFixture(t, name, importPath)
	diags := lint.RunUnit(u, []*lint.Analyzer{a})

	got := map[string]int{}
	for _, d := range diags {
		if d.Analyzer != a.Name {
			t.Errorf("diagnostic from wrong analyzer: %s", d)
		}
		got[fmt.Sprintf("%s:%d", d.File, d.Line)]++
	}
	want := wantMarkers(t, dir)
	for loc, n := range want {
		if got[loc] != n {
			t.Errorf("%s: want %d diagnostic(s), got %d", loc, n, got[loc])
		}
	}
	for loc, n := range got {
		if want[loc] == 0 {
			t.Errorf("%s: unexpected diagnostic(s) (%d): %v", loc, n, diags)
		}
	}
}

func TestNoWallClockFixture(t *testing.T) {
	// Loaded as a simulator package, every clock read fires.
	checkFixture(t, lint.NoWallClock, "wallclock", "repro/internal/engine")
}

func TestNoWallClockScopedToSimulatorPackages(t *testing.T) {
	u, _ := loadFixture(t, "wallclock", "repro/internal/report")
	if diags := lint.RunUnit(u, []*lint.Analyzer{lint.NoWallClock}); len(diags) != 0 {
		t.Errorf("non-simulator package should be exempt, got %v", diags)
	}
}

func TestNoGlobalRandFixture(t *testing.T) {
	// Applies everywhere outside internal/xrand.
	checkFixture(t, lint.NoGlobalRand, "globalrand", "repro/internal/workload")
}

func TestNoGlobalRandExemptsXrand(t *testing.T) {
	u, _ := loadFixture(t, "globalrand", "repro/internal/xrand")
	if diags := lint.RunUnit(u, []*lint.Analyzer{lint.NoGlobalRand}); len(diags) != 0 {
		t.Errorf("internal/xrand should be exempt, got %v", diags)
	}
}

func TestSortedMapRangeFixture(t *testing.T) {
	checkFixture(t, lint.SortedMapRange, "maprange", "repro/internal/machine")
}

func TestSortedMapRangeScopedToSimulatorPackages(t *testing.T) {
	u, _ := loadFixture(t, "maprange", "repro/internal/model")
	if diags := lint.RunUnit(u, []*lint.Analyzer{lint.SortedMapRange}); len(diags) != 0 {
		t.Errorf("non-simulator package should be exempt, got %v", diags)
	}
}

func TestParOnlyGoroutinesFixture(t *testing.T) {
	checkFixture(t, lint.ParOnlyGoroutines, "goroutine", "repro/internal/core")
}

func TestParOnlyGoroutinesExemptsPar(t *testing.T) {
	u, _ := loadFixture(t, "goroutine", "repro/internal/par")
	if diags := lint.RunUnit(u, []*lint.Analyzer{lint.ParOnlyGoroutines}); len(diags) != 0 {
		t.Errorf("internal/par should be exempt, got %v", diags)
	}
}

func TestUnitsLitFixture(t *testing.T) {
	checkFixture(t, lint.UnitsLit, "unitslit", "repro/internal/lintfixture")
}

func TestSimPureFixture(t *testing.T) {
	// Loaded as a simulator package so the fixture's own component types
	// count as simulator-owned.
	checkFixture(t, lint.SimPure, "simpure", "repro/internal/machine")
}

func TestSimPureExemptsEngine(t *testing.T) {
	// The event kernel is the trusted base: the same violating fixture
	// loaded under internal/engine must produce nothing.
	u, _ := loadFixture(t, "simpure", "repro/internal/engine")
	if diags := lint.RunUnit(u, []*lint.Analyzer{lint.SimPure}); len(diags) != 0 {
		t.Errorf("internal/engine should be exempt, got %v", diags)
	}
}

func TestWholeModuleClean(t *testing.T) {
	mod, _ := loadWholeModule(t)
	if len(mod.Units()) < 20 {
		t.Fatalf("suspiciously few units loaded: %d", len(mod.Units()))
	}
	for _, d := range lint.Run(mod) {
		t.Errorf("%s", d)
	}
}

// TestLoadExportTestBridge loads the export_test.go pattern: an external
// test package using a name that an in-package test file exports. The go
// tool builds the package with its in-package tests for its external
// tests, and so does Load.
func TestLoadExportTestBridge(t *testing.T) {
	root := writeModule(t, map[string]string{
		"p/p.go":               "package p\n\nfunc hidden() int { return 1 }\n",
		"p/export_test.go":     "package p\n\nvar Hidden = hidden\n",
		"p/p_external_test.go": "package p_test\n\nimport \"m/p\"\n\nvar _ = p.Hidden()\n",
	})
	mod, err := lint.Load(root)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, u := range mod.Units() {
		paths = append(paths, u.ImportPath)
	}
	if got := strings.Join(paths, " "); got != "m/p m/p_test" {
		t.Errorf("units = %s, want m/p m/p_test", got)
	}
}

// writeModule writes module m (go.mod plus files) under a fresh temporary
// directory and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module m\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestLoadMatchesGoVet holds the loader to the go tool: on each generated
// module, lint.Load succeeds exactly when go vet ./... does. A test-only
// import is an edge only between a test and what it imports, so two
// packages whose in-package tests import each other load; an in-package
// test importing a package that imports its own package back does not.
func TestLoadMatchesGoVet(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	cases := []struct {
		name  string
		files map[string]string
		ok    bool
	}{
		{"cycle through in-package tests", map[string]string{
			"a/a.go":      "package a\n\nconst A = 1\n",
			"a/a_test.go": "package a\n\nimport \"m/b\"\n\nvar _ = b.B\n",
			"b/b.go":      "package b\n\nconst B = 2\n",
			"b/b_test.go": "package b\n\nimport \"m/a\"\n\nvar _ = a.A\n",
		}, true},
		{"export_test bridge", map[string]string{
			"p/p.go":           "package p\n\nfunc hidden() int { return 1 }\n",
			"p/export_test.go": "package p\n\nvar Hidden = hidden\n",
			"p/x_test.go":      "package p_test\n\nimport \"m/p\"\n\nvar _ = p.Hidden()\n",
		}, true},
		{"external test imports a package that imports its own", map[string]string{
			"p/p.go":      "package p\n\nconst P = 1\n",
			"q/q.go":      "package q\n\nimport \"m/p\"\n\nconst Q = p.P + 1\n",
			"p/x_test.go": "package p_test\n\nimport \"m/q\"\n\nvar _ = q.Q\n",
		}, true},
		{"test-only import", map[string]string{
			"a/a.go":      "package a\n\nconst A = 1\n",
			"a/a_test.go": "package a\n\nimport \"m/c\"\n\nvar _ = c.C + A\n",
			"c/c.go":      "package c\n\nconst C = 3\n",
		}, true},
		{"in-package test imports a package that imports its own", map[string]string{
			"a/a.go":      "package a\n\nconst A = 1\n",
			"a/a_test.go": "package a\n\nimport \"m/b\"\n\nvar _ = b.B\n",
			"b/b.go":      "package b\n\nimport \"m/a\"\n\nconst B = a.A + 1\n",
		}, false},
		{"import cycle", map[string]string{
			"a/a.go": "package a\n\nimport \"m/b\"\n\nconst A = b.B\n",
			"b/b.go": "package b\n\nimport \"m/a\"\n\nconst B = a.A\n",
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			root := writeModule(t, tc.files)
			vet := exec.Command(goTool, "vet", "./...")
			vet.Dir = root
			vet.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOFLAGS=", "GOWORK=off")
			out, vetErr := vet.CombinedOutput()
			_, loadErr := lint.Load(root)
			if (vetErr == nil) != tc.ok {
				t.Fatalf("go vet: err = %v, want ok = %v\n%s", vetErr, tc.ok, out)
			}
			if (loadErr == nil) != tc.ok {
				t.Errorf("lint.Load: err = %v, want ok = %v (go vet agrees with want)", loadErr, tc.ok)
			}
		})
	}
}
