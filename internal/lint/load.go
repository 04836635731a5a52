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
// Directories with test files yield a unit whose Files include the
// in-package _test.go files (type-checked together, as the go tool does);
// external test packages (package foo_test) form their own unit.
type Unit struct {
	ModulePath string
	ImportPath string
	Dir        string
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

	src *callgraph.Source // memoized callgraph view of this unit
	cg  *callgraph.Graph  // single-unit graph for LoadDirAs fixtures
}

// Module is a loaded module tree.
type Module struct {
	Root  string // absolute module root directory
	Path  string // module path from go.mod
	Fset  *token.FileSet
	units []*Unit
	cg    *callgraph.Graph // shared module-wide call graph, built on demand
	l     *loader          // the loader that checked units, with its import cache
}

// Units returns every analyzable unit, sorted by import path (external test
// packages sort after their package).
func (m *Module) Units() []*Unit { return m.units }

// Ignores unions the suppression directives of every unit, so transitive
// analyzers that report findings in sibling packages honor the ignore
// comment sitting next to the flagged construct.
func (m *Module) Ignores() ignoreSet {
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
			u.Mod.cg = callgraph.New(u.Fset, srcs)
		}
		return u.Mod.cg
	}
	if u.cg == nil {
		u.cg = callgraph.New(u.Fset, []*callgraph.Source{u.asSource()})
	}
	return u.cg
}

// loader resolves imports for type checking: module-internal paths load
// from source under the module root (memoized), everything else delegates
// to the standard library's source importer rooted at GOROOT.
type loader struct {
	root    string
	modPath string
	fset    *token.FileSet
	std     types.Importer
	cache   map[string]*types.Package
	loading map[string]bool
}

func newLoader(root, modPath string, fset *token.FileSet) *loader {
	return &loader{
		root:    root,
		modPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   map[string]*types.Package{},
		loading: map[string]bool{},
	}
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		if pkg, ok := l.cache[path]; ok {
			return pkg, nil
		}
		if l.loading[path] {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		l.loading[path] = true
		defer delete(l.loading, path)
		dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modPath)))
		files, _, _, err := l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("lint: no Go files in %s", dir)
		}
		pkg, _, err := l.check(path, files)
		if err != nil {
			return nil, err
		}
		l.cache[path] = pkg
		return pkg, nil
	}
	return l.std.Import(path)
}

// parseDir parses every .go file in dir, split into regular files,
// in-package test files, and external (package foo_test) test files.
func (l *loader) parseDir(dir string) (regular, inTest, extTest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
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
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			extTest = append(extTest, f)
		case strings.HasSuffix(name, "_test.go"):
			inTest = append(inTest, f)
		default:
			regular = append(regular, f)
		}
	}
	return regular, inTest, extTest, nil
}

// check type-checks one file set as a package.
func (l *loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
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
		return pkg, info, fmt.Errorf("lint: type errors in %s: %v", path, errs[0])
	}
	if err != nil {
		return pkg, info, err
	}
	return pkg, info, nil
}

// Load parses and type-checks every package under the module root and
// returns the analyzable units.
func Load(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := newLoader(root, modPath, fset)
	mod := &Module{Root: root, Path: modPath, Fset: fset, l: l}

	var dirs []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	for _, dir := range dirs {
		regular, inTest, extTest, err := l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if len(regular)+len(inTest)+len(extTest) == 0 {
			continue
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}

		if len(regular) > 0 {
			// Warm the import cache with the regular-files-only package so
			// external test units (and other packages) import the canonical
			// API, then analyze regular + in-package test files together.
			if _, err := l.Import(importPath); err != nil {
				return nil, err
			}
			files := append(append([]*ast.File{}, regular...), inTest...)
			pkg, info, err := l.check(importPath, files)
			if err != nil {
				return nil, err
			}
			mod.units = append(mod.units, &Unit{
				ModulePath: modPath,
				ImportPath: importPath,
				Dir:        dir,
				Fset:       fset,
				Files:      files,
				TestFiles:  markTests(fset, files),
				Pkg:        pkg,
				Info:       info,
			})
		}
		if len(extTest) > 0 {
			pkg, info, err := l.check(importPath+"_test", extTest)
			if err != nil {
				return nil, err
			}
			mod.units = append(mod.units, &Unit{
				ModulePath: modPath,
				ImportPath: importPath + "_test",
				Dir:        dir,
				Fset:       fset,
				Files:      extTest,
				TestFiles:  markTests(fset, extTest),
				Pkg:        pkg,
				Info:       info,
			})
		}
	}
	for _, u := range mod.units {
		u.Mod = mod
	}
	return mod, nil
}

// LoadDirAs parses and type-checks a single directory as a package with the
// given import path, resolving module-internal imports against root. The
// analyzer tests use it to load fixture packages under import paths that
// trigger path-scoped rules.
func LoadDirAs(root, dir, importPath string) (*Unit, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	return newLoader(root, modPath, token.NewFileSet()).loadDirAs(dir, importPath)
}

// LoadDirAs is the package-level LoadDirAs against the packages m already
// holds: the directory's imports are the ones m's units import, and neither
// the standard library nor the module is type-checked again.
func (m *Module) LoadDirAs(dir, importPath string) (*Unit, error) {
	return m.l.loadDirAs(dir, importPath)
}

// loadDirAs type-checks dir as the package importPath through l.
func (l *loader) loadDirAs(dir, importPath string) (*Unit, error) {
	regular, inTest, extTest, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	files := append(append(regular, inTest...), extTest...)
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pkg, info, err := l.check(importPath, files)
	if err != nil {
		return nil, err
	}
	return &Unit{
		ModulePath: l.modPath,
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		TestFiles:  markTests(l.fset, files),
		Pkg:        pkg,
		Info:       info,
	}, nil
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
