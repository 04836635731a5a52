package lint

// The call-resolution substrate of simpure's walk over transitive callee
// closures: which declaration does this call resolve to, and which
// expressions were ever stored into this struct field (the pre-bound
// event/callback idiom the replay kernel schedules)? The loader checks each
// package once and its importers get that same package, so a declaration
// has one object wherever it is used: the indexes are keyed by the declared
// *types.Func and *types.Var.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// decl is a function declaration paired with the unit whose type info
// resolves its body.
type decl struct {
	src *Unit
	fn  *ast.FuncDecl
}

// fieldStore is one assignment to a struct field: the stored expression
// and the unit that resolves it. A nil rhs marks a store whose value cannot
// be matched to the field (a multi-value assignment from a call).
type fieldStore struct {
	src *Unit
	rhs ast.Expr
	pos token.Pos
}

// callGraph indexes every function declaration and struct-field store
// across a set of units (the whole module for Load-built units, a single
// package for fixture units).
type callGraph struct {
	units  []*Unit
	decls  map[*types.Func]decl
	fields map[*types.Var][]fieldStore // built lazily by fieldStores
}

// newCallGraph builds the declaration index over units. The field-store
// index is deferred until the first fieldStores call.
func newCallGraph(units []*Unit) *callGraph {
	g := &callGraph{units: units, decls: map[*types.Func]decl{}}
	for _, u := range units {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := u.Info.Defs[fd.Name].(*types.Func); ok {
						g.decls[fn] = decl{src: u, fn: fd}
					}
				}
			}
		}
	}
	return g
}

// declOf resolves a function object, or an instance of a generic one, to
// its declaration in the loaded set. ok is false for functions outside the
// set (stdlib, module packages a fixture imports) and for interface methods.
func (g *callGraph) declOf(fn *types.Func) (decl, bool) {
	d, ok := g.decls[fn.Origin()]
	return d, ok
}

// fieldStores returns every assignment to the struct field declared by v
// (or by the generic field v instantiates), anywhere in the loaded set:
// plain and multi-value assignments through a selector, and keyed
// composite-literal elements.
func (g *callGraph) fieldStores(v *types.Var) []fieldStore {
	g.buildFields()
	return g.fields[v.Origin()]
}

// buildFields walks every source once, recording stores by the field
// written.
func (g *callGraph) buildFields() {
	if g.fields != nil {
		return
	}
	g.fields = map[*types.Var][]fieldStore{}
	record := func(src *Unit, id *ast.Ident, st fieldStore) {
		v, ok := src.Info.Uses[id].(*types.Var)
		if !ok || !v.IsField() {
			return
		}
		g.fields[v.Origin()] = append(g.fields[v.Origin()], st)
	}
	for _, src := range g.units {
		for _, f := range src.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						sel, ok := unparen(lhs).(*ast.SelectorExpr)
						if !ok {
							continue
						}
						st := fieldStore{src: src, pos: lhs.Pos()}
						if len(n.Rhs) == len(n.Lhs) {
							st.rhs = n.Rhs[i]
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
						record(src, id, fieldStore{src: src, rhs: kv.Value, pos: kv.Pos()})
					}
				}
				return true
			})
		}
	}
}

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// rootIdent unwraps an assignment target or value path to its root
// identifier. direct is true when the expression IS the identifier (a bare
// captured write) rather than a selector/index/dereference/slice path
// through it.
func rootIdent(e ast.Expr) (id *ast.Ident, direct bool) {
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
