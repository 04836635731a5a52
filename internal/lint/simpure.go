package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/lint/callgraph"
)

// SimPure verifies that every callback scheduled on engine.Sim.At/After/AtTicket —
// and every module-internal helper such a callback calls, transitively —
// touches only simulator-owned state. Event callbacks execute inside the
// deterministic event loop: one fmt.Println, wall-clock read, channel
// operation, or write to a captured host variable makes the replay's
// behavior (or its observable output) depend on something outside the
// (trace, config) pair, which is exactly what the record/replay methodology
// forbids.
//
// "Simulator-owned" is approximated statically: a write inside a callback
// is allowed when its root is declared inside the callback, or when it
// goes through a selector/index/dereference whose root variable's type is
// (a pointer to) a named type declared in a simulator package or in the
// scheduling package itself — i.e. state reachable from the component
// graph. Bare assignments to captured variables, package-level variables,
// and writes through captured non-component values (raw pointers, maps,
// slices) are violations.
//
// Known soundness limits, by design: interface method calls and calls into
// packages outside the module are trusted (except the host-facing packages
// and wall-clock functions, which are rejected on sight), and callbacks
// passed as opaque function values cannot be traversed — those are flagged
// so the author either names the function or suppresses with a reason.
// internal/engine itself is exempt: it is the kernel being trusted.
var SimPure = &Analyzer{
	Name: "simpure",
	Doc:  "event callbacks scheduled on engine.Sim must touch only simulator-owned state",
	Run:  runSimPure,
}

// simpureHostPackages are packages whose use inside an event callback is an
// immediate violation: they reach host I/O, processes, or the network.
var simpureHostPackages = map[string]string{
	"os":        "host process and file-system state",
	"os/exec":   "spawns host processes",
	"os/signal": "host signal delivery",
	"net":       "network I/O",
	"net/http":  "network I/O",
	"net/rpc":   "network I/O",
	"syscall":   "raw system calls",
	"io/ioutil": "host file-system I/O",
	"log":       "writes to host stderr",
}

// simpureFmtPrinters are the fmt functions that write to host stdout.
// Sprintf and friends are pure and stay allowed.
var simpureFmtPrinters = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
}

// spFinding is one purity violation found while walking a callback body,
// positioned wherever the offending syntax lives (possibly another unit).
type spFinding struct {
	pos token.Pos
	msg string
}

type simpureChecker struct {
	u      *Unit
	report ReportFunc
	g      *callgraph.Graph // shared decl + field-store index (see callgraph)

	files  map[string]bool               // filenames belonging to the scheduling unit
	cache  map[*ast.FuncDecl][]spFinding // per-decl findings; an entry marks a decl entered
	seen   map[spFinding]bool            // emitted diagnostics (dedup across call sites)
	fields map[*types.Var][]spFinding    // per-field findings; an entry marks a field entered
}

func runSimPure(u *Unit, report ReportFunc) {
	// The event kernel itself manipulates heap and clock state that no other
	// package may touch; it is the trusted base, not a subject.
	if rel := u.relPath(); rel == "internal/engine" || rel == "internal/engine_test" {
		return
	}
	c := &simpureChecker{
		u:      u,
		report: report,
		g:      graphFor(u),
		cache:  map[*ast.FuncDecl][]spFinding{},
		seen:   map[spFinding]bool{},
		fields: map[*types.Var][]spFinding{},
	}
	c.files = map[string]bool{}
	for _, f := range u.Files {
		c.files[u.Fset.Position(f.Pos()).Filename] = true
	}
	inspect(u, true, func(f *ast.File, n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !c.isSchedule(call) {
			return true
		}
		// The callback is the last argument on every schedule method:
		// At(t, fn), After(d, fn), AtTicket(t, ticket, fn).
		c.checkCallback(call.Args[len(call.Args)-1])
		return true
	})
}

// isSchedule reports whether call invokes (*engine.Sim).At, .After or
// .AtTicket with its expected argument count.
func (c *simpureChecker) isSchedule(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := c.u.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	switch fn.Name() {
	case "At", "After":
		if len(call.Args) != 2 {
			return false
		}
	case "AtTicket":
		if len(call.Args) != 3 {
			return false
		}
	default:
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Sim" && obj.Pkg() != nil &&
		obj.Pkg().Path() == c.u.ModulePath+"/internal/engine"
}

// checkCallback dispatches on the shape of the scheduled callback argument.
func (c *simpureChecker) checkCallback(arg ast.Expr) {
	switch e := unparenExpr(arg).(type) {
	case *ast.FuncLit:
		c.emit(arg, c.checkBody(c.u.asSource(), e, e.Body))
	case *ast.Ident:
		c.checkNamedCallback(arg, e)
	case *ast.SelectorExpr:
		c.checkNamedCallback(arg, e.Sel)
	default:
		c.emitOne(arg.Pos(),
			"scheduled callback is a computed expression that cannot be statically verified; pass a function literal or method value")
	}
}

func (c *simpureChecker) checkNamedCallback(arg ast.Expr, id *ast.Ident) {
	switch obj := c.u.Info.Uses[id].(type) {
	case *types.Func:
		c.emit(arg, c.checkFunc(obj))
	case *types.Var:
		if obj.IsField() {
			// A pre-bound event field (the pooled-callback idiom): verified
			// through every assignment to the field instead of at this site.
			c.emit(arg, c.checkEventField(obj))
			return
		}
		c.emitOne(arg.Pos(),
			"scheduled callback %s is a function value that cannot be statically verified; pass a function literal or method value", id.Name)
	default:
		c.emitOne(arg.Pos(),
			"scheduled callback %s is a function value that cannot be statically verified; pass a function literal or method value", id.Name)
	}
}

// checkEventField verifies a callback scheduled through a struct field (a
// pre-bound event, the allocation-free idiom internal/machine uses on its
// hot path): the field is pure iff every assignment to it, anywhere in the
// loaded set, stores a verifiable callback — a function literal, a named
// function, or a method value.
func (c *simpureChecker) checkEventField(v *types.Var) []spFinding {
	v = v.Origin()
	if fs, ok := c.fields[v]; ok {
		return fs
	}
	c.fields[v] = nil
	stores := c.g.FieldStores(v)
	if len(stores) == 0 {
		return []spFinding{{v.Pos(), fmt.Sprintf(
			"event field %s is scheduled but never assigned a callback the analyzer can see; bind it to a function literal or method value", v.Name())}}
	}
	var fs []spFinding
	for _, st := range stores {
		fs = append(fs, c.checkStore(st, v)...)
	}
	c.fields[v] = fs
	return fs
}

// checkStore verifies one assignment to a scheduled event field.
func (c *simpureChecker) checkStore(st callgraph.FieldStore, self *types.Var) []spFinding {
	if st.Rhs == nil {
		return []spFinding{{st.Pos,
			"event field is bound through a multi-value assignment that cannot be statically verified; bind it from a single assignment"}}
	}
	switch e := unparenExpr(st.Rhs).(type) {
	case *ast.FuncLit:
		return c.checkBody(st.Src, e, e.Body)
	case *ast.Ident:
		return c.checkStoredNamed(st, e, self)
	case *ast.SelectorExpr:
		return c.checkStoredNamed(st, e.Sel, self)
	default:
		return []spFinding{{st.Rhs.Pos(),
			"event field is bound to a computed expression that cannot be statically verified; bind a function literal or method value"}}
	}
}

func (c *simpureChecker) checkStoredNamed(st callgraph.FieldStore, id *ast.Ident, self *types.Var) []spFinding {
	switch obj := st.Src.Info.Uses[id].(type) {
	case *types.Func:
		return c.checkFunc(obj)
	case *types.Var:
		if obj.IsField() {
			if obj.Origin() == self {
				return nil // copying the field onto itself
			}
			return c.checkEventField(obj)
		}
	}
	return []spFinding{{st.Rhs.Pos(), fmt.Sprintf(
		"event field is bound to function value %s, which cannot be statically verified; bind a function literal or method value", id.Name)}}
}

// checkFunc resolves a module-internal function object to its declaration
// and verifies the body. Callees outside the module (and bodiless decls)
// are trusted here; direct host-package uses inside analyzed bodies are
// still caught selector-by-selector.
func (c *simpureChecker) checkFunc(fn *types.Func) []spFinding {
	pkg := fn.Pkg()
	if pkg == nil {
		return nil
	}
	path := pkg.Path()
	if path != c.u.ModulePath && !strings.HasPrefix(path, c.u.ModulePath+"/") {
		return nil
	}
	if path == c.u.ModulePath+"/internal/engine" {
		return nil
	}
	d, ok := c.g.DeclOf(fn)
	if !ok {
		return nil // outside the loaded set (fixture mode); trusted
	}
	return c.checkDecl(d)
}

// checkDecl verifies one declaration, memoized. Recursive call chains
// terminate because a decl already being checked returns its (so far
// empty) cache entry.
func (c *simpureChecker) checkDecl(d callgraph.Decl) []spFinding {
	if fs, ok := c.cache[d.Fn]; ok {
		return fs
	}
	c.cache[d.Fn] = nil
	if d.Fn.Body == nil {
		return nil
	}
	fs := c.checkBody(d.Src, d.Fn, d.Fn.Body)
	c.cache[d.Fn] = fs
	return fs
}

// checkBody walks one function body looking for purity violations. owner is
// the unit whose type info resolves the body's identifiers; root delimits
// "inside the callback" for the capture analysis (the FuncLit or FuncDecl
// whose body this is — anything declared within it is local, anything
// outside is captured).
func (c *simpureChecker) checkBody(owner *callgraph.Source, root ast.Node, body *ast.BlockStmt) []spFinding {
	var fs []spFinding
	add := func(pos token.Pos, format string, args ...any) {
		fs = append(fs, spFinding{pos, fmt.Sprintf(format, args...)})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			add(n.Pos(), "event callback spawns a goroutine; callbacks run to completion on the event loop's single logical thread")
		case *ast.SendStmt:
			add(n.Pos(), "channel send inside an event callback; callbacks must not synchronize with host goroutines")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				add(n.Pos(), "channel receive inside an event callback; callbacks must not synchronize with host goroutines")
			}
		case *ast.SelectStmt:
			add(n.Pos(), "select inside an event callback; callbacks must not synchronize with host goroutines")
		case *ast.RangeStmt:
			if t := owner.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					add(n.X.Pos(), "range over a channel inside an event callback; callbacks must not synchronize with host goroutines")
				}
			}
			if n.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if e != nil {
						c.checkWrite(owner, root, e, add)
					}
				}
			}
		case *ast.SelectorExpr:
			c.checkSelector(owner, n, add)
		case *ast.CallExpr:
			c.checkCall(owner, n, add)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if n.Tok == token.DEFINE {
					if id, ok := lhs.(*ast.Ident); ok && owner.Info.Defs[id] != nil {
						continue // a genuinely new variable, not a write
					}
				}
				c.checkWrite(owner, root, lhs, add)
			}
		case *ast.IncDecStmt:
			c.checkWrite(owner, root, n.X, add)
		}
		return true
	})
	return fs
}

// checkSelector rejects package-qualified uses of host-facing packages,
// wall-clock reads, stdout printers, and sync/atomic primitives.
func (c *simpureChecker) checkSelector(owner *callgraph.Source, sel *ast.SelectorExpr, add func(token.Pos, string, ...any)) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	path := pkgPathOf(owner.Info, id)
	if path == "" {
		return
	}
	obj := owner.Info.Uses[sel.Sel]
	if obj == nil {
		return
	}
	if _, isType := obj.(*types.TypeName); isType {
		return // naming a type (time.Duration, os.FileMode) is harmless
	}
	switch {
	case simpureHostPackages[path] != "":
		add(sel.Pos(), "%s.%s inside an event callback (%s); callbacks may touch only simulator state",
			pkgBase(path), sel.Sel.Name, simpureHostPackages[path])
	case path == "time" && wallClockFuncs[sel.Sel.Name]:
		add(sel.Pos(), "time.%s reads the host clock inside an event callback; simulated time comes from engine.Sim", sel.Sel.Name)
	case path == "fmt" && simpureFmtPrinters[sel.Sel.Name]:
		add(sel.Pos(), "fmt.%s writes to host stdout inside an event callback; record results on the component instead", sel.Sel.Name)
	case path == "sync" || path == "sync/atomic":
		add(sel.Pos(), "%s.%s inside an event callback; the event loop is single-threaded — locks and atomics hide cross-thread state",
			pkgBase(path), sel.Sel.Name)
	}
}

// checkCall handles the call-shaped rules: the close builtin, sync methods
// reached through values, opaque function values, and — the transitive
// step — module-internal helpers, whose findings are folded into the
// caller's.
func (c *simpureChecker) checkCall(owner *callgraph.Source, call *ast.CallExpr, add func(token.Pos, string, ...any)) {
	if tv, ok := owner.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	var id *ast.Ident
	switch f := unparenExpr(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	case *ast.FuncLit:
		return // immediately-invoked literal: its body is in this walk
	default:
		add(call.Pos(), "call through a computed function expression inside an event callback cannot be verified")
		return
	}
	switch obj := owner.Info.Uses[id].(type) {
	case *types.Builtin:
		if obj.Name() == "close" {
			add(call.Pos(), "close of a channel inside an event callback; callbacks must not synchronize with host goroutines")
		}
	case *types.Var:
		add(call.Pos(), "call through function value %s inside an event callback cannot be verified; call a named function or method", id.Name)
	case *types.Func:
		pkg := obj.Pkg()
		if pkg == nil {
			return
		}
		path := pkg.Path()
		if path == "sync" || path == "sync/atomic" {
			// Methods like (*sync.Mutex).Lock arrive through a value
			// selector, which the package-qualified rule cannot see.
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				add(call.Pos(), "%s.%s inside an event callback; the event loop is single-threaded — locks and atomics hide cross-thread state",
					pkgBase(path), obj.Name())
			}
			return
		}
		if path != c.u.ModulePath && !strings.HasPrefix(path, c.u.ModulePath+"/") {
			return // stdlib and friends: trusted unless host-facing (selector rule)
		}
		if path == c.u.ModulePath+"/internal/engine" {
			return // the kernel's own API (At/After/Now/…) is the trusted base
		}
		if d, ok := c.g.DeclOf(obj); ok {
			// Fold the callee's findings into ours; the emitter re-anchors
			// positions that fall outside the scheduling unit.
			for _, f := range c.checkDecl(d) {
				add(f.pos, "%s", f.msg)
			}
		}
	}
}

// checkWrite vets one assignment target inside a callback.
func (c *simpureChecker) checkWrite(owner *callgraph.Source, root ast.Node, lhs ast.Expr, add func(token.Pos, string, ...any)) {
	id, direct := rootIdentOf(lhs)
	if id == nil || id.Name == "_" {
		return
	}
	if owner.Info.Defs[id] != nil {
		return // defined at this site, inside the callback by construction
	}
	obj := owner.Info.Uses[id]
	if pn, ok := obj.(*types.PkgName); ok {
		add(lhs.Pos(), "write to a package-level variable of %s inside an event callback; replay state must live in the component graph",
			pn.Imported().Path())
		return
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		add(lhs.Pos(), "write to package-level variable %s inside an event callback; replay state must live in the component graph", v.Name())
		return
	}
	if v.Pos() >= root.Pos() && v.Pos() <= root.End() {
		return // declared inside the callback: locals, params, receiver
	}
	if direct {
		add(lhs.Pos(), "assignment to captured variable %s inside an event callback; state a callback mutates must hang off a simulator component", v.Name())
		return
	}
	if !c.simOwned(owner, v.Type()) {
		add(lhs.Pos(), "write through captured %s mutates state of type %s, which is not simulator-owned; reach it via a component field", v.Name(), v.Type())
	}
}

// simOwned reports whether t is (a pointer to) a named type declared in a
// simulator package or in the scheduling unit's own package — the static
// approximation of "reachable from the component graph".
func (c *simpureChecker) simOwned(owner *callgraph.Source, t types.Type) bool {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			pkg := tt.Obj().Pkg()
			if pkg == nil {
				return false
			}
			if pkg == owner.Pkg {
				return true
			}
			return simulatorPackages[strings.TrimPrefix(pkg.Path(), c.u.ModulePath+"/")]
		default:
			return false
		}
	}
}

// emit reports a batch of findings for one scheduling site. Findings inside
// the scheduling unit keep their own positions (so suppression comments sit
// next to the offending line); findings reached transitively in another
// unit are re-anchored to the call site, naming the remote location.
func (c *simpureChecker) emit(at ast.Expr, fs []spFinding) {
	for _, f := range fs {
		p := c.u.Fset.Position(f.pos)
		if c.files[p.Filename] {
			c.emitOne(f.pos, "%s", f.msg)
		} else {
			c.emitOne(at.Pos(), "callback reaches impure code at %s:%d: %s",
				filepath.Base(p.Filename), p.Line, f.msg)
		}
	}
}

// emitOne reports once per (position, message): the same helper reached
// from several scheduling sites yields one diagnostic.
func (c *simpureChecker) emitOne(pos token.Pos, format string, args ...any) {
	f := spFinding{pos, fmt.Sprintf(format, args...)}
	if c.seen[f] {
		return
	}
	c.seen[f] = true
	c.report(pos, "%s", f.msg)
}

// rootIdentOf unwraps an assignment target to its root identifier. direct
// is true when the target IS the identifier (a bare captured write) rather
// than a selector/index/dereference path through it.
func rootIdentOf(e ast.Expr) (id *ast.Ident, direct bool) { return callgraph.RootIdent(e) }

// unparenExpr strips any number of enclosing parentheses.
func unparenExpr(e ast.Expr) ast.Expr { return callgraph.Unparen(e) }

// pkgBase returns the final element of an import path.
func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
