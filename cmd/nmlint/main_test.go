package main_test

// End-to-end tests for the nmlint command: exit codes and -json output,
// exercised against throwaway modules built in a temp dir. The binary is
// compiled once per test run with the ambient toolchain.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildNmlint compiles the command into dir and returns the binary path.
func buildNmlint(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "nmlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building nmlint: %v\n%s", err, out)
	}
	return bin
}

// writeModule materializes files (path → contents) as a Go module under a
// fresh temp dir and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const badSrc = `package scratch

import "math/rand"

func Pick(n int) int { return rand.Intn(n) }
`

const cleanSrc = `package scratch

func Pick(n int) int { return n / 2 }
`

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running nmlint: %v", err)
	}
	return ee.ExitCode()
}

func TestNmlintCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and type-checks scratch modules")
	}
	bin := buildNmlint(t, t.TempDir())

	t.Run("bad module exits 1 with a diagnostic", func(t *testing.T) {
		root := writeModule(t, map[string]string{
			"go.mod": "module scratch\n\ngo 1.24\n",
			"bad.go": badSrc,
			"ok.go":  "package scratch\n",
		})
		cmd := exec.Command(bin, root)
		out, err := cmd.CombinedOutput()
		if code := exitCode(t, err); code != 1 {
			t.Fatalf("exit code = %d, want 1; output:\n%s", code, out)
		}
		if !strings.Contains(string(out), "noglobalrand") || !strings.Contains(string(out), "bad.go:5") {
			t.Errorf("diagnostic output missing analyzer or position:\n%s", out)
		}
	})

	t.Run("in-package tests importing each other's package exit 0", func(t *testing.T) {
		root := writeModule(t, map[string]string{
			"go.mod":      "module cyc\n\ngo 1.24\n",
			"a/a.go":      "package a\n\nconst A = 1\n",
			"a/a_test.go": "package a\n\nimport \"cyc/b\"\n\nvar _ = b.B\n",
			"b/b.go":      "package b\n\nconst B = 2\n",
			"b/b_test.go": "package b\n\nimport \"cyc/a\"\n\nvar _ = a.A\n",
		})
		out, err := exec.Command(bin, root).CombinedOutput()
		if code := exitCode(t, err); code != 0 {
			t.Fatalf("exit code = %d, want 0; output:\n%s", code, out)
		}
	})

	t.Run("json output carries positions and analyzer names", func(t *testing.T) {
		root := writeModule(t, map[string]string{
			"go.mod": "module scratch\n\ngo 1.24\n",
			"bad.go": badSrc,
		})
		cmd := exec.Command(bin, "-json", root)
		out, err := cmd.Output()
		if code := exitCode(t, err); code != 1 {
			t.Fatalf("exit code = %d, want 1; output:\n%s", code, out)
		}
		var diags []struct {
			File     string `json:"File"`
			Line     int    `json:"Line"`
			Col      int    `json:"Col"`
			Analyzer string `json:"Analyzer"`
			Message  string `json:"Message"`
		}
		if err := json.Unmarshal(out, &diags); err != nil {
			t.Fatalf("output is not a JSON array: %v\n%s", err, out)
		}
		if len(diags) != 1 {
			t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
		}
		d := diags[0]
		if d.Analyzer != "noglobalrand" || d.Line != 5 || d.Col == 0 ||
			!strings.HasSuffix(d.File, "bad.go") || d.Message == "" {
			t.Errorf("unexpected diagnostic fields: %+v", d)
		}
	})

	t.Run("clean module exits 0 with empty json array", func(t *testing.T) {
		root := writeModule(t, map[string]string{
			"go.mod":   "module scratch\n\ngo 1.24\n",
			"clean.go": cleanSrc,
		})
		cmd := exec.Command(bin, "-json", root)
		out, err := cmd.Output()
		if code := exitCode(t, err); code != 0 {
			t.Fatalf("exit code = %d, want 0; output:\n%s", code, out)
		}
		var diags []json.RawMessage
		if err := json.Unmarshal(out, &diags); err != nil || len(diags) != 0 {
			t.Errorf("want empty JSON array, got %q (err %v)", out, err)
		}
	})

	t.Run("non-module dir exits 2", func(t *testing.T) {
		cmd := exec.Command(bin, t.TempDir())
		out, _ := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); code != 2 {
			t.Fatalf("exit code = %d, want 2; output:\n%s", code, out)
		}
	})
}
