// Package callgraph is the shared call-resolution substrate of the lint
// suite. Two analyzers walk transitive callee closures over the module —
// simpure (event-callback purity) and hotpath (allocation freedom) — and
// both must answer the same questions identically: which declaration does
// this call resolve to, and which expressions were ever stored into this
// struct field (the pre-bound event/callback idiom the replay kernel uses
// on its hot path)? This package owns those indexes so the answers cannot
// drift between analyzers.
//
// The lint loader checks each package once, and its importers get that
// same package, so a declaration has one object wherever it is used: the
// indexes are keyed by the declared *types.Func and *types.Var.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Source is one type-checked package: the syntax plus the type info that
// resolves identifiers within its files. The lint loader's units convert
// to Sources; the graph never needs the loader itself.
type Source struct {
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Pkg   *types.Package
}

// Decl is a function declaration paired with the Source whose type info
// resolves its body.
type Decl struct {
	Src *Source
	Fn  *ast.FuncDecl
}

// FieldStore is one assignment to a struct field: the stored expression
// and the Source that resolves it. A nil Rhs marks a store whose value
// cannot be matched to the field (a multi-value assignment from a call).
type FieldStore struct {
	Src *Source
	Rhs ast.Expr
	Pos token.Pos
}

// Graph indexes every function declaration and struct-field store across a
// set of sources (the whole module for Load-built units, a single package
// for fixture units). Build one per resolution scope and share it between
// analyzers.
type Graph struct {
	sources []*Source
	decls   map[*types.Func]Decl
	fields  map[*types.Var][]FieldStore // built lazily by FieldStores
}

// New builds the declaration index over sources. The field-store index is
// deferred until the first FieldStores call: only analyses that chase
// stored callbacks pay for that walk.
func New(sources []*Source) *Graph {
	g := &Graph{sources: sources, decls: map[*types.Func]Decl{}}
	for _, src := range sources {
		for _, f := range src.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := src.Info.Defs[fd.Name].(*types.Func); ok {
						g.decls[fn] = Decl{Src: src, Fn: fd}
					}
				}
			}
		}
	}
	return g
}

// DeclOf resolves a function object, or an instance of a generic one, to
// its declaration in the loaded set. ok is false for functions outside the
// set (stdlib, module packages a fixture imports) and for interface methods.
func (g *Graph) DeclOf(fn *types.Func) (Decl, bool) {
	d, ok := g.decls[fn.Origin()]
	return d, ok
}

// FieldStores returns every assignment to the struct field declared by v
// (or by the generic field v instantiates), anywhere in the loaded set:
// plain and multi-value assignments through a selector, and keyed
// composite-literal elements.
func (g *Graph) FieldStores(v *types.Var) []FieldStore {
	g.buildFields()
	return g.fields[v.Origin()]
}

// buildFields walks every source once, recording stores by the field
// written.
func (g *Graph) buildFields() {
	if g.fields != nil {
		return
	}
	g.fields = map[*types.Var][]FieldStore{}
	record := func(src *Source, id *ast.Ident, st FieldStore) {
		v, ok := src.Info.Uses[id].(*types.Var)
		if !ok || !v.IsField() {
			return
		}
		g.fields[v.Origin()] = append(g.fields[v.Origin()], st)
	}
	for _, src := range g.sources {
		src := src
		for _, f := range src.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						sel, ok := Unparen(lhs).(*ast.SelectorExpr)
						if !ok {
							continue
						}
						st := FieldStore{Src: src, Pos: lhs.Pos()}
						if len(n.Rhs) == len(n.Lhs) {
							st.Rhs = n.Rhs[i]
						}
						record(src, sel.Sel, st)
					}
				case *ast.CompositeLit:
					for _, el := range n.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						id, ok := kv.Key.(*ast.Ident)
						if !ok {
							continue
						}
						record(src, id, FieldStore{Src: src, Rhs: kv.Value, Pos: kv.Pos()})
					}
				}
				return true
			})
		}
	}
}

// CalleeIdent returns the identifier naming a call's target: the Ident
// itself for f(x), the selector's Sel for a.b(x), nil for computed
// expressions (immediately-invoked literals, index expressions) whose
// handling is analyzer-specific.
func CalleeIdent(call *ast.CallExpr) *ast.Ident {
	switch f := Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	}
	return nil
}

// Unparen strips any number of enclosing parentheses.
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// RootIdent unwraps an assignment target or value path to its root
// identifier. direct is true when the expression IS the identifier rather
// than a selector/index/dereference/slice path through it.
func RootIdent(e ast.Expr) (id *ast.Ident, direct bool) {
	direct = true
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, direct
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e, direct = x.X, false
		case *ast.IndexExpr:
			e, direct = x.X, false
		case *ast.StarExpr:
			e, direct = x.X, false
		case *ast.SliceExpr:
			e, direct = x.X, false
		default:
			return nil, false
		}
	}
}
