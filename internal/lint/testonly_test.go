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

// wholeModule checks every package of the repository on repo's loader, and
// the benchmark's layer probes in bench/_layers, which Load skips for their
// "_" prefix but the gates count as users.
var wholeModule = sync.OnceValues(func() ([]*lint.Unit, error) {
	mod, err := repo()
	if err != nil {
		return nil, err
	}
	if err := mod.Load(); err != nil {
		return nil, err
	}
	layers, err := mod.LoadDirAs(filepath.Join(mod.Root, "bench", "_layers"), mod.Path+"/bench/_layers")
	if err != nil {
		return nil, err
	}
	return append([]*lint.Unit{layers}, mod.Units()...), nil
})

// loadWholeModule returns the loaded module and its users: every unit and
// the layer probes.
func loadWholeModule(t *testing.T) (*lint.Module, []*lint.Unit) {
	t.Helper()
	if testing.Short() {
		t.Skip("whole-module type check is the slow path; covered by scripts/check.sh")
	}
	units, err := wholeModule()
	if err != nil {
		t.Fatal(err)
	}
	mod, _ := repo()
	return mod, units
}

// TestOneObjectPerDeclaration holds Load to checking each package once: the
// package every unit imports from the module is that package's own unit.
func TestOneObjectPerDeclaration(t *testing.T) {
	mod, units := loadWholeModule(t)
	own := map[string]*types.Package{}
	for _, u := range mod.Units() {
		own[u.ImportPath] = u.Pkg
	}
	checked := 0
	for _, u := range units {
		for _, p := range u.Pkg.Imports() {
			if p.Path() != mod.Path && !strings.HasPrefix(p.Path(), mod.Path+"/") {
				continue
			}
			checked++
			if own[p.Path()] != p {
				t.Errorf("%s imports a %s that is not its unit's package", u.ImportPath, p.Path())
			}
		}
	}
	if checked < 100 {
		t.Errorf("only %d module imports checked", checked)
	}
}

// allowlist names what a gate may pass over: package paths, or names as
// name spells them, each covering what is declared under it.
type allowlist []struct {
	names []string
	why   string
}

// match returns the index of the entry that covers key, or -1.
func (a allowlist) match(key string) int {
	for i, e := range a {
		for _, name := range e.names {
			if key == name || strings.HasPrefix(key, name+".") {
				return i
			}
		}
	}
	return -1
}

// gate reports each finding the allowlist does not cover, and each entry
// that excuses nothing.
type gate struct {
	t     *testing.T
	mod   *lint.Module
	fset  *token.FileSet // every unit's
	allow allowlist
	hits  []int
	found []string
}

func newGate(t *testing.T, mod *lint.Module, allow allowlist) *gate {
	return &gate{t: t, mod: mod, fset: mod.Units()[0].Fset, allow: allow, hits: make([]int, len(allow))}
}

// check reports the finding msg about key at pos, unless an entry covers key.
func (g *gate) check(pos token.Pos, key, msg string) {
	if i := g.allow.match(key); i >= 0 {
		g.hits[i]++
		return
	}
	p := g.fset.Position(pos)
	rel, _ := filepath.Rel(g.mod.Root, p.Filename)
	g.found = append(g.found, fmt.Sprintf("%s:%d: %s", rel, p.Line, strings.ReplaceAll(msg, g.mod.Path+"/", "")))
}

func (g *gate) done() {
	sort.Strings(g.found)
	for _, f := range g.found {
		g.t.Error(f)
	}
	for i, n := range g.hits {
		if n == 0 {
			g.t.Errorf("allowlist entry %v excuses nothing; remove it", g.allow[i].names)
		}
	}
}

// productionFiles calls fn for each non-test file of a unit that is not an
// external test package.
func productionFiles(units []*lint.Unit, fn func(u *lint.Unit, f *ast.File)) {
	for _, u := range units {
		if strings.HasSuffix(u.ImportPath, "_test") {
			continue
		}
		for _, f := range u.Files {
			if !u.TestFiles[f] {
				fn(u, f)
			}
		}
	}
}

// name spells fn as the allowlist and the report do: path.Func, or
// path.Type.Method for a method.
func name(fn *types.Func) string {
	if r := recvNamed(fn); r != nil {
		return fn.Pkg().Path() + "." + r.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// recvNamed is a method's receiver type, nil for a function.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	rt := types.Unalias(recv.Type())
	if p, ok := rt.(*types.Pointer); ok {
		rt = types.Unalias(p.Elem())
	}
	n, _ := rt.(*types.Named)
	return n
}

// testOnlyAllowed names the functions a test may be the only user of.
var testOnlyAllowed = allowlist{
	{[]string{"repro/internal/cli/clitest"}, "a test-support package: the validation tables both commands' tests run"},
	{[]string{"repro/internal/lint.Module.LoadDirAs", "repro/internal/lint.RunUnit"}, "the fixture loader: analyzer tests load testdata packages under chosen import paths, and the gates the layer probes"},
	{[]string{"repro/internal/addr.SPAllocator.CheckInvariants"}, "a reference check of the allocator's free list, run by its property tests"},
	{[]string{"repro/internal/model"}, "the paper's closed-form bounds, checked by tests until each becomes a claim a row prints"},
	{[]string{"repro/internal/serve.Client"}, "the daemon's client, for programs outside this module as well as -server"},
}

// TestNoTestOnlyFunctions fails on a function or method declared in
// non-test code of a non-main package that no non-test code references:
// code no experiment, command or benchmark runs reproduces nothing. Users
// are every non-test file Load sees (cmd/, examples/, bench/cmd,
// bench/internal) and the benchmark's layer probes in bench/_layers.
func TestNoTestOnlyFunctions(t *testing.T) {
	mod, units := loadWholeModule(t)

	// A method is reached through an interface when its receiver, or a
	// pointer to it, implements one that declares it: an interface of the
	// module, error, fmt.Stringer, or the Unwrap errors.Is and errors.As
	// call. A value handed to any other interface (a types.Importer in a
	// types.Config, an io.Writer argument) uses the methods that one
	// declares.
	method := func(name string, result types.Type) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", result)), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	errorType := types.Universe.Lookup("error").Type()
	interfaces := []*types.Interface{errorType.Underlying().(*types.Interface),
		method("String", types.Typ[types.String]), method("Unwrap", errorType)}
	declared := map[*types.Func]*ast.FuncDecl{}
	used := map[*types.Func]bool{}
	productionFiles(units, func(u *lint.Unit, f *ast.File) {
		handed := func(val ast.Expr, to types.Type) {
			it, ok := to.Underlying().(*types.Interface)
			from := u.Info.Types[val].Type
			if !ok || from == nil || types.IsInterface(from) {
				return
			}
			for i := range it.NumMethods() {
				m := it.Method(i)
				if fn, ok := methodOf(from, m); ok {
					used[fn.Origin()] = true
				}
			}
		}
		for _, d := range f.Decls {
			var self *types.Func // a function's references to itself do not use it
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok && ts.TypeParams == nil {
						if it, ok := u.Info.Defs[ts.Name].Type().Underlying().(*types.Interface); ok {
							interfaces = append(interfaces, it)
						}
					}
				}
			case *ast.FuncDecl:
				self = u.Info.Defs[d.Name].(*types.Func)
				if u.Pkg.Name() != "main" && d.Name.Name != "init" {
					declared[self] = d
				}
			}
			var stack []ast.Node // the enclosing nodes, for a return's signature
			ast.Inspect(d, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := u.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
						used[fn.Origin()] = true
					}
				}
				forEachConversion(u.Info, stack, handed)
				return true
			})
		}
	})

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
	g := newGate(t, mod, testOnlyAllowed)
	for fn, d := range declared {
		if used[fn] {
			continue
		}
		if r := recvNamed(fn); r != nil && implements(r, fn.Name()) {
			continue
		}
		g.check(d.Pos(), name(fn), name(fn)+" is used only by tests")
	}
	g.done()
}

// methodOf finds the method of t, or of *t, that implements m.
func methodOf(t types.Type, m *types.Func) (*types.Func, bool) {
	obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
	fn, ok := obj.(*types.Func)
	return fn, ok
}

// forEachConversion calls handed for each value the innermost node of
// stack hands to a place of another type: a composite literal's elements,
// a call's or a conversion's arguments, an assignment's and a typed var's
// values, and a return's results.
func forEachConversion(info *types.Info, stack []ast.Node, handed func(val ast.Expr, to types.Type)) {
	typeOf := func(e ast.Expr) types.Type { return info.Types[e].Type }
	switch n := stack[len(stack)-1].(type) {
	case *ast.CompositeLit:
		t := typeOf(n)
		if t == nil {
			return
		}
		for i, el := range n.Elts {
			key, val := ast.Expr(nil), el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				key, val = kv.Key, kv.Value
			}
			switch u := t.Underlying().(type) {
			case *types.Struct:
				if id, ok := key.(*ast.Ident); ok {
					handed(val, info.Uses[id].Type())
				} else if key == nil && i < u.NumFields() {
					handed(val, u.Field(i).Type())
				}
			case *types.Slice:
				handed(val, u.Elem())
			case *types.Array:
				handed(val, u.Elem())
			case *types.Map:
				handed(val, u.Elem())
				if key != nil {
					handed(key, u.Key())
				}
			}
		}
	case *ast.CallExpr:
		tv := info.Types[n.Fun]
		if tv.IsType() {
			if len(n.Args) == 1 {
				handed(n.Args[0], tv.Type)
			}
			return
		}
		sig, ok := types.Unalias(tv.Type).(*types.Signature)
		if !ok {
			return
		}
		for i, arg := range n.Args {
			switch last := sig.Params().Len() - 1; {
			case sig.Variadic() && i >= last && !n.Ellipsis.IsValid():
				handed(arg, sig.Params().At(last).Type().(*types.Slice).Elem())
			case i <= last:
				handed(arg, sig.Params().At(i).Type())
			}
		}
	case *ast.AssignStmt:
		if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
			for i, lhs := range n.Lhs {
				if t := typeOf(lhs); t != nil {
					handed(n.Rhs[i], t)
				}
			}
		}
	case *ast.ValueSpec:
		if n.Type != nil {
			for _, v := range n.Values {
				handed(v, typeOf(n.Type))
			}
		}
	case *ast.ReturnStmt:
		for i := len(stack) - 2; i >= 0; i-- {
			var t types.Type
			switch fn := stack[i].(type) {
			case *ast.FuncLit:
				t = typeOf(fn)
			case *ast.FuncDecl:
				t = info.Defs[fn.Name].Type()
			default:
				continue
			}
			if res := t.(*types.Signature).Results(); res.Len() == len(n.Results) {
				for j, r := range n.Results {
					handed(r, res.At(j).Type())
				}
			}
			return
		}
	}
}

// testOnlyFieldsAllowed names the struct fields that non-test code may
// leave unread or unwritten: a path.Type.Field name, or a type or package
// covering its fields.
var testOnlyFieldsAllowed = allowlist{
	{[]string{"repro/internal/harness.Supervisor.Slice", "repro/internal/harness.DiskRecordCache.loaded"}, "fault seams: tests poll a replay more often, so a seeded interrupt lands mid-replay, and hear which lookups map a cache file"},
	{[]string{"repro/internal/harness.Sweep.Replays"}, "the cells a sweep replayed itself, unrendered so sharing moves no byte: the shared-replay tests assert it"},
	{[]string{"repro/internal/trace.Cursor.owner"}, "keeps the columns' mapping alive for the garbage collector while a cursor reads it"},
	{[]string{"repro/internal/kmeans.Result"}, "the clustering a run computes: the harness keeps its traffic, the tests check the clustering"},
	{[]string{"repro/internal/model"}, "the paper's closed-form bounds, checked by tests until each becomes a claim a row prints"},
}

// TestNoTestOnlyFields fails on a struct field declared in non-test code of
// a non-main package that no non-test code reads, or that no non-test code
// writes: a value stored for nobody, or a knob only tests turn. The users
// are those of TestNoTestOnlyFunctions.
//
// A field is written, and not read, by an assignment to it (=, op= or
// ++/--: a counter nobody reads is stored for nobody) and by a composite
// literal that sets it. A write through it (x.f.g = v, x.f[i] = v) reads
// f, and writes it too when f holds its value in place (a struct or an
// array). Taking its address, or calling a pointer method on it, reads and
// writes it. Every other use reads it.
//
// Reflection reads and writes every field of a type whose value is handed
// as an empty interface to a function of encoding/json, encoding/binary or
// reflect, or to a module function that hands that parameter on to one
// (keyDigest): the wire, manifest and key types, and the struct types they
// hold by value or in slices, arrays and maps. Comparing struct values with
// == or !=, or keying a map by one, reads every field.
func TestNoTestOnlyFields(t *testing.T) {
	mod, units := loadWholeModule(t)
	declared := map[*types.Var]*ast.Ident{}
	read, written := map[*types.Var]bool{}, map[*types.Var]bool{}

	// every marks in m the fields of t, or of what t points to, and of the
	// struct types those hold by value or in slices, arrays and maps.
	var every func(m map[*types.Var]bool, t types.Type, seen map[types.Type]bool)
	every = func(m map[*types.Var]bool, t types.Type, seen map[types.Type]bool) {
		if p, ok := t.Underlying().(*types.Pointer); ok && len(seen) == 0 {
			t = p.Elem()
		}
		if seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := range u.NumFields() {
				m[u.Field(i).Origin()] = true
				every(m, u.Field(i).Type(), seen)
			}
		case *types.Slice:
			every(m, u.Elem(), seen)
		case *types.Array:
			every(m, u.Elem(), seen)
		case *types.Map:
			every(m, u.Key(), seen)
			every(m, u.Elem(), seen)
		}
	}
	reflects := reflectingParams(units)

	productionFiles(units, func(u *lint.Unit, f *ast.File) {
		info := u.Info
		field := func(id *ast.Ident) *types.Var {
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
				return v.Origin()
			}
			return nil
		}
		// use records how the field selectors below a node are used, for
		// the visit of their identifiers that follows; unmarked is a read.
		type use struct{ read, write bool }
		uses := map[*ast.Ident]use{}
		// inPlace: a write through an expression of type t writes the
		// expression's own storage.
		inPlace := func(t types.Type) bool {
			if t == nil {
				return false // a package name
			}
			switch t.Underlying().(type) {
			case *types.Struct, *types.Array:
				return true
			}
			return false
		}
		var lvalue func(e ast.Expr, outer use)
		lvalue = func(e ast.Expr, outer use) {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				uses[x.Sel] = outer
				lvalue(x.X, use{true, inPlace(info.Types[x.X].Type)})
			case *ast.IndexExpr:
				lvalue(x.X, use{true, inPlace(info.Types[x.X].Type)})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				if u.Pkg.Name() == "main" {
					break
				}
				for _, fl := range n.Fields.List {
					for _, id := range fl.Names {
						if id.Name != "_" {
							declared[info.Defs[id].(*types.Var)] = id
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					lvalue(lhs, use{false, true})
				}
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if e != nil {
							lvalue(e, use{false, true})
						}
					}
				}
			case *ast.IncDecStmt:
				lvalue(n.X, use{false, true})
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					lvalue(n.X, use{true, true})
				}
			case *ast.SelectorExpr:
				// A pointer method called on a field value takes the
				// field's address.
				if m, ok := info.Uses[n.Sel].(*types.Func); ok {
					recv := m.Type().(*types.Signature).Recv()
					if x := info.Types[n.X].Type; recv != nil && x != nil {
						_, ptrRecv := recv.Type().(*types.Pointer)
						_, ptrVal := x.Underlying().(*types.Pointer)
						if ptrRecv && !ptrVal {
							lvalue(n.X, use{true, true})
						}
					}
				}
			case *ast.CompositeLit:
				st, ok := info.Types[n].Type.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						uses[kv.Key.(*ast.Ident)] = use{false, true}
					} else {
						written[st.Field(i).Origin()] = true
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					if _, ok := info.Types[n.X].Type.Underlying().(*types.Struct); ok {
						every(read, info.Types[n.X].Type, map[types.Type]bool{})
					}
				}
			case *ast.MapType:
				every(read, info.Types[n.Key].Type, map[types.Type]bool{})
			case *ast.CallExpr:
				fn := callee(info, n)
				for i, arg := range n.Args {
					if t := info.Types[arg].Type; t != nil && !types.IsInterface(t) && reflects(fn, i) {
						every(read, t, map[types.Type]bool{})
						every(written, t, map[types.Type]bool{})
					}
				}
			case *ast.Ident:
				if v := field(n); v != nil {
					us, ok := uses[n]
					if !ok {
						us = use{read: true}
					}
					read[v] = read[v] || us.read
					written[v] = written[v] || us.write
				}
			}
			return true
		})
	})

	g := newGate(t, mod, testOnlyFieldsAllowed)
	for v, id := range declared {
		if read[v] && written[v] {
			continue
		}
		what := "read"
		if read[v] {
			what = "set"
		}
		key := v.Name()
		if owner := ownerName(v); owner != "" {
			key = owner + "." + key
		}
		key = v.Pkg().Path() + "." + key
		g.check(id.Pos(), key, fmt.Sprintf("field %s is %s only by tests", key, what))
	}
	g.done()
}

// ownerName is the name of the named struct type declaring field v, "" for
// an anonymous struct.
func ownerName(v *types.Var) string {
	scope := v.Pkg().Scope()
	for _, n := range scope.Names() {
		tn, ok := scope.Lookup(n).(*types.TypeName)
		if !ok {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				if st.Field(i) == v {
					return n
				}
			}
		}
	}
	return ""
}

// callee is the function or method a call names, nil for a call through a
// value.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	case *ast.IndexExpr: // an explicit instantiation
		if sel, ok := f.X.(*ast.SelectorExpr); ok {
			id = sel.Sel
		} else if x, ok := f.X.(*ast.Ident); ok {
			id = x
		}
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

// reflectingParams reports whether a function reads or writes by
// reflection the fields of the value its parameter i is handed as an empty
// interface: a function of encoding/json, encoding/binary or reflect, or,
// to a fixed point, a module function that hands that parameter on to one.
func reflectingParams(units []*lint.Unit) func(fn *types.Func, i int) bool {
	param := func(fn *types.Func, i int) *types.Var {
		ps := fn.Type().(*types.Signature).Params()
		if i >= ps.Len() {
			i = ps.Len() - 1 // a variadic tail
		}
		if i < 0 {
			return nil
		}
		p := ps.At(i)
		t := p.Type()
		if s, ok := t.(*types.Slice); ok && fn.Type().(*types.Signature).Variadic() && i == ps.Len()-1 {
			t = s.Elem()
		}
		if it, ok := t.Underlying().(*types.Interface); !ok || it.NumMethods() > 0 {
			return nil
		}
		return p
	}
	reflects := map[*types.Var]bool{}
	reflecting := func(fn *types.Func, i int) bool {
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		p := param(fn, i)
		switch fn.Pkg().Path() {
		case "encoding/json", "encoding/binary", "reflect":
			return p != nil
		}
		return reflects[p]
	}
	for changed := true; changed; {
		changed = false
		productionFiles(units, func(u *lint.Unit, f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := callee(u.Info, call)
				for i, arg := range call.Args {
					id, ok := ast.Unparen(arg).(*ast.Ident)
					if !ok {
						continue
					}
					if p, ok := u.Info.Uses[id].(*types.Var); ok && !reflects[p] && reflecting(fn, i) {
						// Only a parameter is ever looked up in reflects.
						reflects[p], changed = true, true
					}
				}
				return true
			})
		})
	}
	return reflecting
}
