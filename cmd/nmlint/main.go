// Command nmlint runs the repository's determinism & concurrency
// static-analysis suite (internal/lint) over the whole module.
//
// Usage:
//
//	nmlint [-json] [-escape-check] [dir | ./...]
//
// With no argument (or "./...") it analyzes the module containing the
// current directory. Diagnostics print as "file:line:col: [analyzer]
// message"; the exit code is 1 when any diagnostic survives, 2 on a load
// failure. Suppress a finding with a trailing or preceding comment:
//
//	//nmlint:ignore <analyzer> <reason>
//
// With -escape-check, nmlint additionally cross-checks the //nmlint:hotpath
// regions against the compiler's own escape analysis, on the same load: it
// rebuilds the packages containing hot regions with -gcflags=-m=2 and
// fails on any compiler-reported heap escape inside a region the AST
// analyzer did not already explain (cold lines and reasoned ignores are
// excused). The analyzers' findings come first, then the escapes. This catches allocations the conservative syntax pass cannot
// see — stdlib calls that leak an argument, variables the compiler moves
// to the heap.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	list := flag.Bool("analyzers", false, "list the analyzers and exit")
	escCheck := flag.Bool("escape-check", false,
		"also cross-check hot regions against go build -gcflags=-m=2 escape analysis")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nmlint [-json] [-analyzers] [-escape-check] [dir | ./...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	target := "."
	switch flag.NArg() {
	case 0:
	case 1:
		if arg := flag.Arg(0); arg != "./..." {
			target = arg
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	root, err := lint.FindModuleRoot(target)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nmlint:", err)
		os.Exit(2)
	}
	mod, err := lint.Load(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nmlint:", err)
		os.Exit(2)
	}

	diags := lint.Run(mod)
	if *escCheck {
		escapes, err := escapeCheck(mod)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nmlint:", err)
			os.Exit(2)
		}
		diags = append(diags, escapes...)
	}

	// Print paths relative to the working directory when possible, so
	// diagnostics are clickable from the invocation site.
	wd, _ := os.Getwd()
	for i := range diags {
		if wd == "" {
			break
		}
		if rel, err := filepath.Rel(wd, diags[i].File); err == nil && !filepath.IsAbs(rel) {
			diags[i].File = rel
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "nmlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: [%s] %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// escapeCheck rebuilds the packages containing hot regions with the
// compiler's escape diagnostics enabled and cross-checks the output
// against the regions.
func escapeCheck(mod *lint.Module) ([]lint.Diagnostic, error) {
	rs := lint.HotRegions(mod)
	pkgs := regionPackages(mod, rs)
	if len(pkgs) == 0 {
		return nil, nil // nothing annotated yet
	}
	out, err := buildWithEscapes(mod.Root, pkgs, false)
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(out) == "" {
		// The build cache satisfied every compile, so the compiler never
		// ran and printed nothing; force a rebuild to get the diagnostics.
		if out, err = buildWithEscapes(mod.Root, pkgs, true); err != nil {
			return nil, err
		}
	}
	return lint.CrossCheck(mod, rs, lint.ParseEscapes(out)), nil
}

// regionPackages maps the region files back to ./-relative package
// directories for the go build invocation.
func regionPackages(mod *lint.Module, rs *lint.RegionSet) []string {
	set := map[string]bool{}
	for _, f := range rs.Files() {
		rel, err := filepath.Rel(mod.Root, filepath.Dir(f))
		if err != nil || strings.HasPrefix(rel, "..") {
			continue
		}
		set["./"+filepath.ToSlash(rel)] = true
	}
	pkgs := make([]string, 0, len(set))
	for p := range set {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	return pkgs
}

// buildWithEscapes runs go build -gcflags=-m=2 over pkgs from the module
// root and returns the compiler's stderr. force adds -a to defeat the
// build cache (a cached compile prints no diagnostics).
func buildWithEscapes(root string, pkgs []string, force bool) (string, error) {
	args := []string{"build", "-gcflags=-m=2"}
	if force {
		args = append(args, "-a")
	}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var sb strings.Builder
	cmd.Stderr = &sb
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build -gcflags=-m=2 failed: %v\n%s", err, sb.String())
	}
	return sb.String(), nil
}
