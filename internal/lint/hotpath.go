package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/callgraph"
)

// HotPath verifies that every function annotated //nmlint:hotpath — and
// every module-internal function, method, or bound callback field it
// reaches, transitively — is free of allocation-inducing constructs. The
// replay kernel's throughput rests on a ~0 allocs/event steady state
// (replay_alloc_test.go enforces it at runtime); this analyzer enforces it
// at review time, pointing at the exact expression that would allocate.
//
// Flagged constructs: new and &composite literals, slice/map literals,
// make of slice/map/chan, append (growth is an allocation unless the
// buffer was pre-sized — justify amortized growth with an ignore reason),
// capturing func literals, method values (they bind a receiver into a
// fresh closure), interface boxing at call arguments, assignments, and
// conversions, map iteration, string concatenation and string<->[]byte
// conversions, defer inside a loop, channel operations, go statements,
// and known allocating stdlib helpers (fmt, errors.New, strconv/strings
// formatting).
//
// Cold paths are excluded: the arguments of a panic call and any return
// whose final result is a non-nil error expression are failure exits, not
// steady state, so allocations there (fmt.Errorf and friends) are fine.
//
// Soundness limits, by design: calls into packages outside the module and
// through interface methods are trusted, and &composite/append findings
// are conservative (the construct may stay on the stack or never grow).
// The -escape-check mode closes the first gap with the compiler's own
// escape analysis; ignore comments with reasons document the second.
//
// Suppression is stricter than for other analyzers: //nmlint:ignore
// hotpath must carry a reason, and a bare one suppresses nothing and is
// itself reported.
var HotPath = &Analyzer{
	Name: hotpathName,
	Doc:  "functions annotated //nmlint:hotpath must not reach allocating constructs",
	Run:  runHotPath,
}

// hotpathName is the analyzer's name as a constant, so the suppression
// machinery can refer to it without an initialization cycle through the
// Analyzer value.
const hotpathName = "hotpath"

// hotpathMarker is the root annotation, written in a function's doc
// comment.
const hotpathMarker = "//nmlint:hotpath"

// hpFinding is one allocation finding, positioned at the allocating
// expression (possibly in another unit than the annotated root).
type hpFinding struct {
	pos token.Pos
	msg string
}

type hotpathChecker struct {
	u      *Unit
	report ReportFunc
	g      *callgraph.Graph // shared decl + field-store index (see callgraph)

	cache    map[*ast.FuncDecl][]hpFinding // per-decl findings; an entry marks a decl entered
	seen     map[hpFinding]bool            // emitted diagnostics (dedup across roots)
	callFuns map[ast.Expr]bool             // selector exprs that are a call's Fun
	fields   map[*types.Var][]hpFinding    // per-callback-field findings; an entry marks a field entered

	// regions, when non-nil, collects every hot code span the walk visits
	// (and the cold lines excluded from it) for the -escape-check
	// cross-check against the compiler's escape analysis.
	regions *RegionSet
}

func newHotpathChecker(u *Unit, report ReportFunc, regions *RegionSet) *hotpathChecker {
	return &hotpathChecker{
		u:        u,
		report:   report,
		g:        graphFor(u),
		cache:    map[*ast.FuncDecl][]hpFinding{},
		seen:     map[hpFinding]bool{},
		callFuns: map[ast.Expr]bool{},
		fields:   map[*types.Var][]hpFinding{},
		regions:  regions,
	}
}

func runHotPath(u *Unit, report ReportFunc) {
	newHotpathChecker(u, report, nil).run()
}

func (c *hotpathChecker) run() {
	src := c.u.asSource()
	for _, f := range c.u.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !isHotAnnotated(fd) {
				continue
			}
			c.emit(c.checkDecl(callgraph.Decl{Src: src, Fn: fd}))
		}
	}
	c.reportBareIgnores()
}

// isHotAnnotated reports whether the declaration's doc comment carries the
// //nmlint:hotpath marker.
func isHotAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, cm := range fd.Doc.List {
		if cm.Text == hotpathMarker || strings.HasPrefix(cm.Text, hotpathMarker+" ") {
			return true
		}
	}
	return false
}

// emit reports findings at their true positions, once per (position,
// message) — several roots reaching one helper yield one diagnostic, and
// Run's module-wide pass dedups across units.
func (c *hotpathChecker) emit(fs []hpFinding) {
	for _, f := range fs {
		if c.seen[f] {
			continue
		}
		c.seen[f] = true
		c.report(f.pos, "%s", f.msg)
	}
}

// reportBareIgnores flags //nmlint:ignore hotpath comments with no reason.
// collectIgnores refuses to register them, so the report is not
// self-suppressed: an unexplained suppression on a hot path is itself a
// violation of the annotation contract.
func (c *hotpathChecker) reportBareIgnores() {
	for _, f := range c.u.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if !strings.HasPrefix(cm.Text, ignorePrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(cm.Text, ignorePrefix))
				if len(fields) != 1 {
					continue
				}
				for _, name := range strings.Split(fields[0], ",") {
					if name == hotpathName {
						c.report(cm.Pos(), "suppressing hotpath requires a reason: //nmlint:ignore hotpath <why this allocation is acceptable>")
					}
				}
			}
		}
	}
}

// checkDecl verifies one declaration, memoized. Recursive call chains
// terminate because a decl already being checked returns its (so far
// empty) cache entry.
func (c *hotpathChecker) checkDecl(d callgraph.Decl) []hpFinding {
	if fs, ok := c.cache[d.Fn]; ok {
		return fs
	}
	c.cache[d.Fn] = nil
	if d.Fn.Body == nil {
		return nil
	}
	c.noteRegion(d.Src, d.Fn.Name.Name, d.Fn)
	fs := c.checkBody(d.Src, d.Fn.Body)
	c.cache[d.Fn] = fs
	return fs
}

// posSpan is a half-open-ish source span used for defer-in-loop detection.
type posSpan struct{ lo, hi token.Pos }

func (s posSpan) contains(p token.Pos) bool { return p >= s.lo && p <= s.hi }

// checkBody walks one function (or stored func literal) body, flagging
// every allocation-inducing construct and folding in the findings of
// module-internal callees. Cold subtrees — panic arguments and error
// returns — are skipped and recorded as excluded lines for -escape-check.
func (c *hotpathChecker) checkBody(owner *callgraph.Source, body *ast.BlockStmt) []hpFinding {
	var fs []hpFinding
	add := func(pos token.Pos, format string, args ...any) {
		fs = append(fs, hpFinding{pos, fmt.Sprintf(format, args...)})
	}

	// Pre-pass for defer-in-loop: a defer allocates per iteration only
	// when its innermost function boundary contains the loop too.
	var loops, lits []posSpan
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, posSpan{n.Body.Pos(), n.Body.End()})
		case *ast.RangeStmt:
			loops = append(loops, posSpan{n.Body.Pos(), n.Body.End()})
		case *ast.FuncLit:
			lits = append(lits, posSpan{n.Pos(), n.End()})
		}
		return true
	})
	inLoop := func(p token.Pos) bool {
		for _, l := range loops {
			if !l.contains(p) {
				continue
			}
			blocked := false
			for _, f := range lits {
				if f.contains(p) && !(l.lo >= f.lo && l.hi <= f.hi) {
					blocked = true // the defer's closure sits inside the loop
					break
				}
			}
			if !blocked {
				return true
			}
		}
		return false
	}

	info := owner.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.callFuns[callgraph.Unparen(n.Fun)] = true
			if isPanicCall(info, n) {
				c.noteCold(owner, n)
				return false // failure exit: formatting the message is fine
			}
			c.checkCall(owner, n, add)
		case *ast.ReturnStmt:
			if isColdReturn(info, n) {
				c.noteCold(owner, n)
				return false // error exit: fmt.Errorf and friends are fine
			}
		case *ast.FuncLit:
			c.checkCaptures(owner, n, add)
		case *ast.UnaryExpr:
			switch n.Op {
			case token.AND:
				if _, ok := callgraph.Unparen(n.X).(*ast.CompositeLit); ok {
					add(n.Pos(), "&composite literal on the hot path; the value escapes (or forces escape analysis) — allocate it at setup and reuse")
				}
			case token.ARROW:
				add(n.Pos(), "channel receive on the hot path; channels allocate and synchronize — hot code must stay on the event loop")
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					add(n.Pos(), "slice literal allocates its backing array on the hot path; hoist it to setup")
				case *types.Map:
					add(n.Pos(), "map literal allocates on the hot path; hoist it to setup")
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if isStringType(info.TypeOf(n.Lhs[0])) {
					add(n.Pos(), "string concatenation allocates on the hot path; use a pre-sized byte buffer")
				}
			}
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if t := info.TypeOf(lhs); t != nil {
						c.checkBox(owner, t, n.Rhs[i], "assignment", add)
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) {
				if tv := info.Types[n]; tv.Value == nil { // constant folds at compile time
					add(n.Pos(), "string concatenation allocates on the hot path; use a pre-sized byte buffer")
				}
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					add(n.X.Pos(), "map iteration on the hot path; maps cost hashing and (elsewhere) break determinism — use a slice")
				case *types.Chan:
					add(n.X.Pos(), "range over a channel on the hot path; channels allocate and synchronize")
				}
			}
		case *ast.SendStmt:
			add(n.Pos(), "channel send on the hot path; channels allocate and synchronize — hot code must stay on the event loop")
		case *ast.SelectStmt:
			add(n.Pos(), "select on the hot path; channels allocate and synchronize")
		case *ast.GoStmt:
			add(n.Pos(), "go statement on the hot path allocates a goroutine stack; parallelism belongs in internal/par at setup")
		case *ast.DeferStmt:
			if inLoop(n.Pos()) {
				add(n.Pos(), "defer inside a loop allocates a deferred frame per iteration; hoist it or close over the loop body")
			}
		case *ast.SelectorExpr:
			c.checkMethodValue(owner, n, add)
		}
		return true
	})
	return fs
}

// isPanicCall reports whether call invokes the panic builtin.
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := callgraph.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isColdReturn reports whether ret is an error exit: its final result is a
// non-nil expression of a type implementing error. Such returns are the
// failure path of a decode/validate step, not steady state.
func isColdReturn(info *types.Info, ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return false
	}
	last := ret.Results[len(ret.Results)-1]
	if tv, ok := info.Types[last]; ok && tv.IsNil() {
		return false
	}
	t := info.TypeOf(last)
	return t != nil && types.Implements(t, errorIface)
}

// isStringType reports whether t's underlying type is a string.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// pointerShaped reports whether values of t fit in one word and can be
// stored in an interface without allocating: pointers, channels, maps,
// funcs, unsafe.Pointer.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// checkBox flags src when storing it into dst (an interface type) would
// box: concrete, non-pointer-shaped, non-constant values heap-allocate the
// interface payload. Constants convert to static read-only data and
// pointer-shaped values are stored directly, so neither allocates.
func (c *hotpathChecker) checkBox(owner *callgraph.Source, dst types.Type, src ast.Expr, what string, add func(token.Pos, string, ...any)) {
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return
	}
	if tv, ok := owner.Info.Types[src]; ok && (tv.Value != nil || tv.IsNil()) {
		return
	}
	if id, ok := callgraph.Unparen(src).(*ast.Ident); ok {
		switch owner.Info.Uses[id].(type) {
		case *types.Const, *types.Nil:
			return
		}
	}
	t := owner.Info.TypeOf(src)
	if t == nil {
		return
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	if _, ok := t.Underlying().(*types.Interface); ok {
		return // interface-to-interface copies the existing word pair
	}
	if pointerShaped(t) {
		return
	}
	add(src.Pos(), "%s boxes a %s into an interface, which allocates on the hot path; avoid the interface or pre-box at setup", what, t)
}

// checkCall dispatches one call: conversions, builtins, known stdlib
// allocators, module-internal callees (recursed), callback fields (chased
// through every store), and unverifiable function values.
func (c *hotpathChecker) checkCall(owner *callgraph.Source, call *ast.CallExpr, add func(token.Pos, string, ...any)) {
	info := owner.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		c.checkConversion(owner, call, add)
		return
	}
	if _, ok := callgraph.Unparen(call.Fun).(*ast.FuncLit); ok {
		return // immediately-invoked literal: body and captures are in this walk
	}
	id := callgraph.CalleeIdent(call)
	if id == nil {
		add(call.Pos(), "call through a computed function expression on the hot path cannot be verified for allocation; call a named function")
		return
	}
	switch obj := info.Uses[id].(type) {
	case *types.Builtin:
		c.checkBuiltin(info, obj.Name(), call, add)
	case *types.Var:
		if obj.IsField() {
			// The pre-bound callback idiom: the call allocates nothing here,
			// but every value ever bound to the field must be hot-clean.
			for _, f := range c.checkFieldCall(obj) {
				add(f.pos, "%s", f.msg)
			}
			c.checkArgs(owner, call, add)
			return
		}
		add(call.Pos(), "call through function value %s on the hot path cannot be verified for allocation; call a named function or a bound field", id.Name)
	case *types.Func:
		if !c.checkNamedCall(owner, call, obj, add) {
			c.checkArgs(owner, call, add)
		}
	}
}

// checkNamedCall handles a call to a named function or method. It returns
// true when the call was flagged as a known allocator, in which case the
// per-argument boxing check is skipped (fmt's ...any boxing is implied by
// the allocator diagnostic).
func (c *hotpathChecker) checkNamedCall(owner *callgraph.Source, call *ast.CallExpr, fn *types.Func, add func(token.Pos, string, ...any)) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
		if msg := allocatorMsg(path, fn.Name()); msg != "" {
			add(call.Pos(), "%s on the hot path; move formatting off the steady state", msg)
			return true
		}
	}
	mod := c.u.ModulePath
	if path != mod && !strings.HasPrefix(path, mod+"/") {
		return false // stdlib and friends: trusted (escape-check backstops)
	}
	if d, ok := c.g.DeclOf(fn); ok {
		for _, f := range c.checkDecl(d) {
			add(f.pos, "%s", f.msg)
		}
	}
	// Unresolvable module-internal functions are interface methods or, for
	// a fixture, the module packages it imports; both are trusted,
	// documented soundness limits that -escape-check narrows.
	return false
}

// allocatorMsg names stdlib helpers that always allocate their result.
func allocatorMsg(path, name string) string {
	switch path {
	case "fmt":
		return "fmt." + name + " formats into fresh allocations"
	case "errors":
		if name == "New" || name == "Join" {
			return "errors." + name + " allocates"
		}
	case "strconv":
		switch name {
		case "Itoa", "Quote", "QuoteRune", "Unquote",
			"FormatInt", "FormatUint", "FormatFloat", "FormatBool", "FormatComplex":
			return "strconv." + name + " allocates its result string"
		}
	case "strings":
		switch name {
		case "Join", "Repeat", "Split", "SplitN", "Fields",
			"ToUpper", "ToLower", "Map", "Replace", "ReplaceAll":
			return "strings." + name + " allocates"
		}
	}
	return ""
}

// checkBuiltin flags the allocating builtins.
func (c *hotpathChecker) checkBuiltin(info *types.Info, name string, call *ast.CallExpr, add func(token.Pos, string, ...any)) {
	switch name {
	case "new":
		add(call.Pos(), "new(T) allocates on the hot path; allocate at setup and reuse")
	case "append":
		add(call.Pos(), "append may grow the backing array on the hot path; pre-size the buffer at setup or justify the amortization with an ignore reason")
	case "make":
		switch info.TypeOf(call).Underlying().(type) {
		case *types.Slice:
			add(call.Pos(), "make of a slice allocates its backing array on the hot path; hoist the buffer to setup")
		case *types.Map:
			add(call.Pos(), "make of a map allocates on the hot path; hoist it to setup")
		case *types.Chan:
			add(call.Pos(), "make of a channel on the hot path; channels allocate and synchronize")
		}
	case "close":
		add(call.Pos(), "close of a channel on the hot path; channels allocate and synchronize")
	}
}

// checkConversion flags conversions that copy or box: string <-> byte/rune
// slices and concrete values into interface types.
func (c *hotpathChecker) checkConversion(owner *callgraph.Source, call *ast.CallExpr, add func(token.Pos, string, ...any)) {
	if len(call.Args) != 1 {
		return
	}
	dst := owner.Info.TypeOf(call)
	src := owner.Info.TypeOf(call.Args[0])
	if dst == nil || src == nil {
		return
	}
	switch dst.Underlying().(type) {
	case *types.Interface:
		c.checkBox(owner, dst, call.Args[0], "conversion", add)
	case *types.Basic:
		if isStringType(dst) {
			if _, ok := src.Underlying().(*types.Slice); ok {
				add(call.Pos(), "string(...) conversion copies and allocates on the hot path")
			}
		}
	case *types.Slice:
		if isStringType(src) {
			add(call.Pos(), "byte/rune-slice conversion of a string copies and allocates on the hot path")
		}
	}
}

// checkArgs flags interface boxing at each argument position, including
// interface-typed variadics (a concrete ...T pack usually stays on the
// stack and is left to -escape-check).
func (c *hotpathChecker) checkArgs(owner *callgraph.Source, call *ast.CallExpr, add func(token.Pos, string, ...any)) {
	sig, ok := owner.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	n := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(n - 1).Type() // slice passed through as-is
			} else if sl, ok := params.At(n - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < n:
			pt = params.At(i).Type()
		}
		if pt != nil {
			c.checkBox(owner, pt, arg, "argument", add)
		}
	}
}

// checkMethodValue flags x.M used as a value (not called): a method value
// allocates a closure binding its receiver every time it is evaluated.
// Method expressions (T.M) are static and fine.
func (c *hotpathChecker) checkMethodValue(owner *callgraph.Source, sel *ast.SelectorExpr, add func(token.Pos, string, ...any)) {
	if c.callFuns[sel] {
		return
	}
	fn, ok := owner.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	if tv, ok := owner.Info.Types[sel.X]; ok && tv.IsType() {
		return
	}
	add(sel.Pos(), "method value %s allocates a closure binding its receiver on the hot path; bind it once at setup", fn.Name())
}

// checkCaptures flags every variable a func literal captures: a capturing
// closure allocates when created, a non-capturing one is a static value.
func (c *hotpathChecker) checkCaptures(owner *callgraph.Source, lit *ast.FuncLit, add func(token.Pos, string, ...any)) {
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := owner.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level access, not a capture
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside the literal: locals, params
		}
		seen[v] = true
		add(id.Pos(), "func literal captures %s and so allocates a closure on the hot path; pass state through a component field instead", v.Name())
		return true
	})
}

// checkFieldCall verifies a call through a func-typed struct field (the
// pre-bound event idiom): the field is hot-clean iff everything ever
// stored into it, anywhere in the loaded set, is. Memoized per field.
func (c *hotpathChecker) checkFieldCall(v *types.Var) []hpFinding {
	v = v.Origin()
	if fs, ok := c.fields[v]; ok {
		return fs
	}
	c.fields[v] = nil
	stores := c.g.FieldStores(v)
	if len(stores) == 0 {
		return []hpFinding{{v.Pos(), fmt.Sprintf(
			"hot-path call through field %s, which is never bound to a callback the analyzer can see; bind a function literal or named function", v.Name())}}
	}
	var fs []hpFinding
	for _, st := range stores {
		fs = append(fs, c.checkFieldStore(st, v)...)
	}
	c.fields[v] = fs
	return fs
}

// checkFieldStore verifies one binding of a hot callback field.
func (c *hotpathChecker) checkFieldStore(st callgraph.FieldStore, self *types.Var) []hpFinding {
	if st.Rhs == nil {
		return []hpFinding{{st.Pos,
			"hot-path callback field is bound through a multi-value assignment that cannot be verified for allocation; bind it from a single assignment"}}
	}
	switch e := callgraph.Unparen(st.Rhs).(type) {
	case *ast.FuncLit:
		// The binding happens at setup (cold); only the body runs hot.
		c.noteRegionLit(st.Src, e)
		return c.checkBody(st.Src, e.Body)
	case *ast.Ident:
		return c.checkStoredFuncIdent(st, e, self)
	case *ast.SelectorExpr:
		return c.checkStoredFuncIdent(st, e.Sel, self)
	default:
		return []hpFinding{{st.Rhs.Pos(),
			"hot-path callback field is bound to a computed expression that cannot be verified for allocation; bind a function literal or named function"}}
	}
}

func (c *hotpathChecker) checkStoredFuncIdent(st callgraph.FieldStore, id *ast.Ident, self *types.Var) []hpFinding {
	switch obj := st.Src.Info.Uses[id].(type) {
	case *types.Func:
		return c.checkFunc(obj)
	case *types.Nil:
		return nil // unbinding; the call site would crash before allocating
	case *types.Var:
		if obj.IsField() {
			if obj.Origin() == self {
				return nil // copying the field onto itself
			}
			return c.checkFieldCall(obj)
		}
	}
	return []hpFinding{{st.Rhs.Pos(), fmt.Sprintf(
		"hot-path callback field is bound to function value %s, which cannot be verified for allocation; bind a function literal or named function", id.Name)}}
}

// checkFunc resolves a module-internal function object and verifies its
// body; external and unresolvable functions are trusted (escape-check
// narrows that gap).
func (c *hotpathChecker) checkFunc(fn *types.Func) []hpFinding {
	pkg := fn.Pkg()
	if pkg == nil {
		return nil
	}
	path := pkg.Path()
	mod := c.u.ModulePath
	if path != mod && !strings.HasPrefix(path, mod+"/") {
		return nil
	}
	d, ok := c.g.DeclOf(fn)
	if !ok {
		return nil
	}
	return c.checkDecl(d)
}

// noteRegion records a walked declaration's span for -escape-check.
func (c *hotpathChecker) noteRegion(src *callgraph.Source, name string, n ast.Node) {
	if c.regions == nil {
		return
	}
	p0, p1 := src.Fset.Position(n.Pos()), src.Fset.Position(n.End())
	c.regions.add(Region{File: p0.Filename, Func: name, StartLine: p0.Line, EndLine: p1.Line})
}

// noteRegionLit records a walked stored-literal span for -escape-check.
func (c *hotpathChecker) noteRegionLit(src *callgraph.Source, lit *ast.FuncLit) {
	c.noteRegion(src, "(bound func literal)", lit)
}

// noteCold records a skipped cold subtree's lines so -escape-check excuses
// compiler-reported escapes there too.
func (c *hotpathChecker) noteCold(owner *callgraph.Source, n ast.Node) {
	if c.regions == nil {
		return
	}
	p0, p1 := owner.Fset.Position(n.Pos()), owner.Fset.Position(n.End())
	c.regions.addCold(p0.Filename, p0.Line, p1.Line)
}
