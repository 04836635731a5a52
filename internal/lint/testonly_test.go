package lint_test

import (
	"fmt"
	"go/ast"
	"go/token"
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
	{[]string{"repro/internal/lint.LoadDirAs", "repro/internal/lint.Module.LoadDirAs", "repro/internal/lint.RunUnit"}, "the fixture loader: analyzer tests load testdata packages under chosen import paths, and this gate the layer probes"},
	{[]string{"repro/internal/addr.SPAllocator.CheckInvariants"}, "a reference check of the allocator's free list, run by its property tests"},
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
	layers, err := mod.LoadDirAs(filepath.Join(mod.Root, "bench", "_layers"), mod.Path+"/bench/_layers")
	if err != nil {
		t.Fatal(err)
	}
	units := append([]*lint.Unit{layers}, mod.Units()...)

	// Load checks a package with its tests for analysis and once more, alone,
	// for its importers. Interfaces and receivers are compared as the
	// importers see them, so that a type satisfies an interface of another
	// package.
	imported := map[string]*types.Package{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if imported[p.Path()] == nil {
			imported[p.Path()] = p
			for _, q := range p.Imports() {
				walk(q)
			}
		}
	}
	for _, u := range units {
		for _, p := range u.Pkg.Imports() {
			walk(p)
		}
	}
	typeOf := func(u *lint.Unit, name string) types.Type {
		if p := imported[u.Pkg.Path()]; p != nil {
			return p.Scope().Lookup(name).Type()
		}
		return u.Pkg.Scope().Lookup(name).Type()
	}

	// A method is reached through an interface when its receiver, or a
	// pointer to it, implements one that declares it: an interface of the
	// module, error, fmt.Stringer, or the Unwrap errors.Is and errors.As call.
	method := func(name string, result types.Type) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", result)), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	errorType := types.Universe.Lookup("error").Type()
	interfaces := []*types.Interface{errorType.Underlying().(*types.Interface),
		method("String", types.Typ[types.String]), method("Unwrap", errorType)}
	type decl struct {
		d    *ast.FuncDecl
		recv types.Type // a method's receiver type, nil for a function
	}
	declared := map[string]decl{}
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
						if ts, ok := s.(*ast.TypeSpec); ok && ts.TypeParams == nil {
							if it, ok := typeOf(u, ts.Name.Name).Underlying().(*types.Interface); ok {
								interfaces = append(interfaces, it)
							}
						}
					}
				case *ast.FuncDecl:
					fn := u.Info.Defs[d.Name].(*types.Func)
					self = funcKey(fn)
					if u.Pkg.Name() != "main" && d.Name.Name != "init" {
						var recv types.Type
						if r := recvName(fn); r != "" {
							recv = typeOf(u, r)
						}
						declared[self] = decl{d, recv}
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

	implements := func(recv types.Type, name string) bool {
		for _, it := range interfaces {
			if m, _, _ := types.LookupFieldOrMethod(it, false, nil, name); m == nil {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}
	allowHits := make([]int, len(testOnlyAllowed))
	var report []string
	for key, dd := range declared {
		d := dd.d
		if used[key] || (dd.recv != nil && implements(dd.recv, d.Name.Name)) {
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
	if r := recvName(fn); r != "" {
		key = r + "." + key
	}
	if fn.Pkg() != nil {
		key = fn.Pkg().Path() + "." + key
	}
	return key
}

// recvName is the name of a method's receiver type, "" for a function.
func recvName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	rt := types.Unalias(recv.Type())
	if p, ok := rt.(*types.Pointer); ok {
		rt = types.Unalias(p.Elem())
	}
	if n, ok := rt.(*types.Named); ok {
		return n.Origin().Obj().Name()
	}
	return ""
}
