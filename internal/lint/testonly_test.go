package lint_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// wholeModule is the one lint.Load of this repository that the two
// whole-module tests share: a load type-checks every package twice and is
// most of either test's time.
var wholeModule = sync.OnceValues(func() (*lint.Module, error) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return lint.Load(root)
})

func loadWholeModule(t *testing.T) *lint.Module {
	t.Helper()
	if testing.Short() {
		t.Skip("whole-module type check is the slow path; covered by scripts/check.sh")
	}
	mod, err := wholeModule()
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// testOnlyAllowed names the functions a test may be the only user of: a
// package path or a function key (see funcKey), covering every function and
// method under it.
var testOnlyAllowed = []struct {
	names []string
	why   string
}{
	{[]string{"repro/internal/cli/clitest"}, "a test-support package: the validation tables both commands' tests run"},
	{[]string{"repro/internal/lint.LoadDirAs", "repro/internal/lint.RunUnit"}, "the fixture loader: analyzer tests load testdata packages under chosen import paths"},
	{[]string{"repro/internal/addr.SPAllocator.CheckInvariants"}, "a reference check of the allocator's free list, run by its property tests"},
	{[]string{"repro/internal/trace.MappedBytes"}, "the mapping-leak check a long-running daemon's soak test reads"},
	{[]string{"repro/internal/model"}, "the paper's closed-form bounds, checked by tests until each becomes a claim a row prints"},
	{[]string{"repro/internal/serve.Client"}, "the daemon's client, for programs outside this module as well as -server"},
}

// TestNoTestOnlyFunctions fails on a function or method declared in
// non-test code of a non-main package that no non-test code references:
// code no experiment, command or benchmark runs reproduces nothing. Users
// are every non-test file Load sees (cmd/, examples/, bench/cmd,
// bench/internal) and the benchmark's layer probes in bench/_layers, which
// Load skips for its "_" prefix.
func TestNoTestOnlyFunctions(t *testing.T) {
	mod := loadWholeModule(t)
	layers, err := lint.LoadDirAs(mod.Root, filepath.Join(mod.Root, "bench", "_layers"), mod.Path+"/bench/_layers")
	if err != nil {
		t.Fatal(err)
	}
	units := append([]*lint.Unit{layers}, mod.Units()...)

	// A method is reached through an interface when its name is one an
	// interface of the module, error or fmt.Stringer declares.
	viaInterface := map[string]bool{"Error": true, "String": true, "Unwrap": true}
	declared := map[string]*ast.FuncDecl{}
	used := map[string]bool{}
	for _, u := range units {
		if strings.HasSuffix(u.ImportPath, "_test") {
			continue // an external test package
		}
		for _, f := range u.Files {
			if u.TestFiles[f] {
				continue
			}
			for _, d := range f.Decls {
				self := "" // a function's references to itself do not use it
				switch d := d.(type) {
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							if it, ok := u.Info.Defs[ts.Name].Type().Underlying().(*types.Interface); ok {
								for i := 0; i < it.NumMethods(); i++ {
									viaInterface[it.Method(i).Name()] = true
								}
							}
						}
					}
				case *ast.FuncDecl:
					self = funcKey(u.Info.Defs[d.Name].(*types.Func))
					if u.Pkg.Name() != "main" && d.Name.Name != "init" {
						declared[self] = d
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := u.Info.Uses[id].(*types.Func); ok && funcKey(fn) != self {
							used[funcKey(fn)] = true
						}
					}
					return true
				})
			}
		}
	}

	allowHits := make([]int, len(testOnlyAllowed))
	var report []string
	for key, d := range declared {
		if used[key] || (d.Recv != nil && viaInterface[d.Name.Name]) {
			continue
		}
		if i := allowed(key); i >= 0 {
			allowHits[i]++
			continue
		}
		pos := mod.Fset.Position(d.Pos())
		rel, _ := filepath.Rel(mod.Root, pos.Filename)
		report = append(report, fmt.Sprintf("%s:%d: %s is used only by tests", rel, pos.Line, strings.TrimPrefix(key, mod.Path+"/")))
	}
	sort.Strings(report)
	for _, r := range report {
		t.Error(r)
	}
	for i, n := range allowHits {
		if n == 0 {
			t.Errorf("allowlist entry %v excuses nothing; remove it", testOnlyAllowed[i].names)
		}
	}
}

// allowed returns the index of the testOnlyAllowed entry that covers key, or -1.
func allowed(key string) int {
	for i, a := range testOnlyAllowed {
		for _, name := range a.names {
			if key == name || strings.HasPrefix(key, name+".") {
				return i
			}
		}
	}
	return -1
}

// funcKey names a function or method by package path, receiver type and
// name. Load type-checks a package twice, once as an import and once with
// its in-package tests, so a use from another package resolves to a
// different object than the unit's own definition, under the same key.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	key := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := types.Unalias(recv.Type())
		if p, ok := rt.(*types.Pointer); ok {
			rt = types.Unalias(p.Elem())
		}
		if n, ok := rt.(*types.Named); ok {
			key = n.Origin().Obj().Name() + "." + key
		}
	}
	if fn.Pkg() != nil {
		key = fn.Pkg().Path() + "." + key
	}
	return key
}
