package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint/callgraph"
)

// Unit is one analyzable package: its syntax plus full type information.
// A package's unit holds its regular and in-package _test.go files,
// checked together once, as the go tool builds a package for its external
// tests; that one *types.Package is also what every importer gets, so each
// declaration has one object. External test packages (package foo_test)
// form their own unit.
type Unit struct {
	ModulePath string
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	TestFiles  map[*ast.File]bool // which Files came from _test.go
	Pkg        *types.Package
	Info       *types.Info

	// Mod links back to the whole loaded module when the unit came from
	// Load; module-wide analyses (the simpure and hotpath transitive call
	// walks) use it to resolve callees declared in sibling packages. Units
	// built by LoadDirAs stand alone and leave it nil.
	Mod *Module

	xtest []*ast.File       // the directory's external test files, a unit of their own
	src   *callgraph.Source // memoized callgraph view of this unit
	cg    *callgraph.Graph  // single-unit graph for LoadDirAs fixtures
}

// Module is a module tree and the loader that type-checks its packages on
// demand. Open checks nothing; Load checks every package; LoadDirAs checks
// a directory and what it imports.
type Module struct {
	Root  string // absolute module root directory
	Path  string // module path from go.mod
	units []*Unit
	cg    *callgraph.Graph // shared module-wide call graph, built on demand
	l     *loader          // checks each package once, for every unit and importer
}

// Units returns every analyzable unit after Load, sorted by import path
// (external test packages sort after their package).
func (m *Module) Units() []*Unit { return m.units }

// ignores unions the suppression directives of every unit, so transitive
// analyzers that report findings in sibling packages honor the ignore
// comment sitting next to the flagged construct.
func (m *Module) ignores() ignoreSet {
	set := ignoreSet{}
	for _, u := range m.units {
		for file, byLine := range collectIgnores(u) {
			dst := set[file]
			if dst == nil {
				set[file] = byLine
				continue
			}
			for line, names := range byLine {
				dst[line] = append(dst[line], names...)
			}
		}
	}
	return set
}

// asSource converts the unit to its callgraph view, memoized so object
// identity of the Source is stable across analyzers.
func (u *Unit) asSource() *callgraph.Source {
	if u.src == nil {
		u.src = &callgraph.Source{Fset: u.Fset, Files: u.Files, Info: u.Info, Pkg: u.Pkg}
	}
	return u.src
}

// graphFor returns the call graph covering the unit's resolution scope: the
// whole module for Load-built units (built once, cached on the Module, and
// shared by every analyzer), or the unit alone for LoadDirAs fixtures.
func graphFor(u *Unit) *callgraph.Graph {
	if u.Mod != nil {
		if u.Mod.cg == nil {
			srcs := make([]*callgraph.Source, 0, len(u.Mod.units))
			for _, uu := range u.Mod.units {
				srcs = append(srcs, uu.asSource())
			}
			u.Mod.cg = callgraph.New(srcs)
		}
		return u.Mod.cg
	}
	if u.cg == nil {
		u.cg = callgraph.New([]*callgraph.Source{u.asSource()})
	}
	return u.cg
}

// loader resolves imports for type checking: a module-internal path is the
// Pkg of that package's unit, checked from source under the module root the
// first time anything asks for it; everything else delegates to the
// standard library's source importer rooted at GOROOT.
type loader struct {
	root    string
	modPath string
	fset    *token.FileSet
	std     types.Importer
	units   map[string]*Unit // module packages checked so far, by import path
	loading map[string]bool
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.modPath && !strings.HasPrefix(path, l.modPath+"/") {
		return l.std.Import(path)
	}
	u, err := l.unit(path)
	if err != nil {
		return nil, err
	}
	if u.Pkg == nil {
		return nil, fmt.Errorf("lint: no Go files for %s", path)
	}
	return u.Pkg, nil
}

// unit parses and checks the package path once, with its in-package tests.
// A directory with no file of the package yields a unit with no Pkg, which
// carries any external test files for Load.
func (l *loader) unit(path string) (*Unit, error) {
	if u, ok := l.units[path]; ok {
		return u, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modPath)))
	own, xtest, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	u := &Unit{xtest: xtest}
	if len(own) > 0 {
		if u, err = l.check(path, own); err != nil {
			return nil, err
		}
		u.xtest = xtest
	}
	l.units[path] = u
	return u, nil
}

// parseDir parses every .go file in dir, split into the package's own files
// (regular and in-package test) and external (package foo_test) test files.
func (l *loader) parseDir(dir string) (own, xtest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		// Honor build constraints (//go:build lines and _GOOS.go name
		// suffixes) so the loader type-checks the same file set go build
		// compiles — otherwise platform-split files (trace's mmap_unix.go /
		// mmap_other.go pair) look like duplicate declarations.
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil || !ok {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			xtest = append(xtest, f)
		} else {
			own = append(own, f)
		}
	}
	return own, xtest, nil
}

// check type-checks one file set as the package path.
func (l *loader) check(path string, files []*ast.File) (*Unit, error) {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("lint: type errors in %s: %v", path, errs[0])
	}
	if err != nil {
		return nil, err
	}
	return &Unit{
		ModulePath: l.modPath,
		ImportPath: path,
		Fset:       l.fset,
		Files:      files,
		TestFiles:  markTests(l.fset, files),
		Pkg:        pkg,
		Info:       info,
	}, nil
}

// Open reads the module root's go.mod and returns the module with no
// package checked yet.
func Open(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Module{Root: root, Path: modPath, l: &loader{
		root:    root,
		modPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		units:   map[string]*Unit{},
		loading: map[string]bool{},
	}}, nil
}

// Load opens the module at root and checks every package under it.
func Load(root string) (*Module, error) {
	mod, err := Open(root)
	if err != nil {
		return nil, err
	}
	return mod, mod.Load()
}

// Load checks every package under the module root that is not checked yet,
// and each external test package, and makes them the module's units. A
// second call does nothing.
func (m *Module) Load() error {
	if m.units != nil {
		return nil
	}
	var dirs []string
	err := filepath.WalkDir(m.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != m.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return err
	}
	sort.Strings(dirs)

	units := []*Unit{}
	for _, dir := range dirs {
		rel, err := filepath.Rel(m.Root, dir)
		if err != nil {
			return err
		}
		importPath := m.Path
		if rel != "." {
			importPath = m.Path + "/" + filepath.ToSlash(rel)
		}
		u, err := m.l.unit(importPath)
		if err != nil {
			return err
		}
		if u.Pkg != nil {
			units = append(units, u)
		}
		if len(u.xtest) > 0 {
			xu, err := m.l.check(importPath+"_test", u.xtest)
			if err != nil {
				return err
			}
			units = append(units, xu)
		}
	}
	for _, u := range units {
		u.Mod = m
	}
	m.units = units
	return nil
}

// LoadDirAs parses and type-checks a single directory as a package with the
// given import path, its imports the packages m has checked or checks now.
// The analyzer tests load fixture packages under import paths that trigger
// path-scoped rules; the fixture itself is not one of m's packages.
func (m *Module) LoadDirAs(dir, importPath string) (*Unit, error) {
	own, xtest, err := m.l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	files := append(own, xtest...)
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return m.l.check(importPath, files)
}

// markTests records which files in the unit are _test.go files.
func markTests(fset *token.FileSet, files []*ast.File) map[*ast.File]bool {
	m := map[*ast.File]bool{}
	for _, f := range files {
		if strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			m[f] = true
		}
	}
	return m
}

// modulePath extracts the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %s is not a module root: %w", root, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// FindModuleRoot walks upward from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
