// Command nmlint runs the repository's determinism & concurrency
// static-analysis suite (internal/lint) over the whole module.
//
// Usage:
//
//	nmlint [-json] [-analyzers] [dir | ./...]
//
// With no argument (or "./...") it analyzes the module containing the
// current directory. Diagnostics print as "file:line:col: [analyzer]
// message"; the exit code is 1 when any diagnostic survives, 2 on a load
// failure. Suppress a finding with a trailing or preceding comment:
//
//	//nmlint:ignore <analyzer> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	list := flag.Bool("analyzers", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nmlint [-json] [-analyzers] [dir | ./...]\n")
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
