package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// inspect walks every file of the unit, optionally skipping _test.go files.
func inspect(u *Unit, skipTests bool, visit func(f *ast.File, n ast.Node) bool) {
	for _, f := range u.Files {
		if skipTests && u.TestFiles[f] {
			continue
		}
		f := f
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			return visit(f, n)
		})
	}
}

// wallClockFuncs are the time-package functions that read or wait on the
// host's clock. Pure constructors and formatters (time.Duration arithmetic,
// time.Unix, Parse) are allowed; anything observing real time is not.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// NoWallClock forbids wall-clock reads in simulator packages. Simulated
// components must take time from engine.Sim / units.Time only: one
// time.Now() in a component makes replay results depend on host speed.
var NoWallClock = &Analyzer{
	Name: "nowallclock",
	Doc:  "forbid time.Now/Since/Sleep and timers in simulator packages; all time must be units.Time",
	Run: func(u *Unit, report ReportFunc) {
		if !u.isSimulatorPackage() {
			return
		}
		inspect(u, false, func(f *ast.File, n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || pkgNameOf(u, id) != "time" || !wallClockFuncs[sel.Sel.Name] {
				return true
			}
			report(sel.Pos(), "time.%s reads the host clock; simulator code must use units.Time via engine.Sim", sel.Sel.Name)
			return true
		})
	},
}

// NoGlobalRand forbids math/rand's package-level functions everywhere
// outside internal/xrand. The global source is shared mutable state seeded
// once per process; replay requires every random stream to come from an
// explicitly seeded generator (internal/xrand).
var NoGlobalRand = &Analyzer{
	Name: "noglobalrand",
	Doc:  "forbid math/rand top-level functions outside internal/xrand; use a seeded *xrand.RNG",
	Run: func(u *Unit, report ReportFunc) {
		if rel := u.relPath(); rel == "internal/xrand" || rel == "internal/xrand_test" {
			return
		}
		inspect(u, false, func(f *ast.File, n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			path := pkgNameOf(u, id)
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			fn, ok := u.Info.Uses[sel.Sel].(*types.Func)
			if !ok || strings.HasPrefix(fn.Name(), "New") {
				return true // types and explicit-source constructors are tolerated
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // method on an explicit *rand.Rand
			}
			report(sel.Pos(), "rand.%s draws from the unseeded global source; use a seeded *xrand.RNG", sel.Sel.Name)
			return true
		})
	},
}

// SortedMapRange forbids ranging over maps in simulator packages. Go map
// iteration order is deliberately randomized; a map range feeding
// engine.Sim scheduling (or any recorded stream) breaks the FIFO tie-break
// guarantee and with it bit-identical replay. Extract and sort the keys,
// then range over the slice. The key-collection loop of that idiom —
// `for k := range m { keys = append(keys, k) }` — is recognized and
// allowed; anything else must be restructured or suppressed with
// //nmlint:ignore sortedmaprange when the body is provably
// order-insensitive.
var SortedMapRange = &Analyzer{
	Name: "sortedmaprange",
	Doc:  "forbid ranging over maps in simulator packages; iterate sorted keys instead",
	Run: func(u *Unit, report ReportFunc) {
		if !u.isSimulatorPackage() {
			return
		}
		inspect(u, false, func(f *ast.File, n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := u.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if isKeyCollectionLoop(rs) {
				return true
			}
			report(rs.Pos(), "range over map has randomized order; collect and sort the keys, then range the slice (determinism)")
			return true
		})
	},
}

// isKeyCollectionLoop recognizes the sanctioned first half of the
// sort-the-keys idiom: a map range whose entire body appends the key (and
// nothing derived from map values) to a slice, i.e.
//
//	for k := range m { keys = append(keys, k) }
//
// Iteration order cannot leak: the slice's contents are order-dependent
// only until the mandatory sort that follows.
func isKeyCollectionLoop(rs *ast.RangeStmt) bool {
	if rs.Value != nil || rs.Key == nil {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok || len(rs.Body.List) != 1 {
		return false
	}
	asg, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 || asg.Tok != token.ASSIGN {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	dst, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return false
	}
	lhs, ok := asg.Lhs[0].(*ast.Ident)
	if !ok || lhs.Name != dst.Name {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name
}

// ParOnlyGoroutines forbids raw go statements in non-test code outside
// internal/par. All parallelism must flow through par.Run's fork-join
// p-thread abstraction, which pins the thread↔probe mapping and joins with
// panic propagation; a stray goroutine racing on simulator or recorder
// state silently corrupts traces.
var ParOnlyGoroutines = &Analyzer{
	Name: "paronlygoroutines",
	Doc:  "forbid raw go statements outside internal/par; use par.Run / par.RunPoison",
	Run: func(u *Unit, report ReportFunc) {
		if rel := u.relPath(); rel == "internal/par" || rel == "internal/par_test" {
			return
		}
		inspect(u, true, func(f *ast.File, n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				report(g.Pos(), "raw go statement; route parallelism through par.Run so threads stay deterministic and joined")
			}
			return true
		})
	},
}

// UnitsLit flags bare untyped integer literals passed where a units.Time or
// units.Bytes parameter is expected. A bare 4096 at such a call site is a
// latent unit-confusion bug (picoseconds? bytes? lines?); write
// 4096*units.Picosecond, 4*units.KiB, or a named constant. Literal 0 is
// unit-safe and allowed.
var UnitsLit = &Analyzer{
	Name: "unitslit",
	Doc:  "flag untyped integer literals passed as units.Time/units.Bytes arguments",
	Run: func(u *Unit, report ReportFunc) {
		unitsPath := u.ModulePath + "/internal/units"
		isUnitsParam := func(t types.Type) (string, bool) {
			named, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			obj := named.Obj()
			if obj.Pkg() == nil || obj.Pkg().Path() != unitsPath {
				return "", false
			}
			switch obj.Name() {
			case "Time", "Bytes":
				return obj.Name(), true
			}
			return "", false
		}
		inspect(u, true, func(f *ast.File, n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if tv, ok := u.Info.Types[call.Fun]; ok && tv.IsType() {
				return true // conversion like units.Time(x), not a call
			}
			sig, ok := u.Info.TypeOf(call.Fun).(*types.Signature)
			if !ok {
				return true // builtin or type error
			}
			for i, arg := range call.Args {
				lit := bareIntLiteral(arg)
				if lit == nil || lit.Value == "0" {
					continue
				}
				pt := paramType(sig, i, call.Ellipsis.IsValid())
				if pt == nil {
					continue
				}
				if name, ok := isUnitsParam(pt); ok {
					report(arg.Pos(), "bare literal %s passed as units.%s; spell the unit (e.g. %s) or use a named constant",
						lit.Value, name, exampleFor(name, lit.Value))
				}
			}
			return true
		})
	},
}

// bareIntLiteral unwraps parentheses and unary +/- and returns the integer
// BasicLit underneath, or nil.
func bareIntLiteral(e ast.Expr) *ast.BasicLit {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.ADD && x.Op != token.SUB {
				return nil
			}
			e = x.X
		case *ast.BasicLit:
			if x.Kind == token.INT {
				return x
			}
			return nil
		default:
			return nil
		}
	}
}

// paramType returns the type of parameter i of sig, accounting for
// variadics. A nil return means "not a checkable positional parameter"
// (e.g. a slice passed with ... spread).
func paramType(sig *types.Signature, i int, hasEllipsis bool) types.Type {
	params := sig.Params()
	n := params.Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		if hasEllipsis {
			return nil // arg is the whole slice, not an element
		}
		slice, ok := params.At(n - 1).Type().(*types.Slice)
		if !ok {
			return nil
		}
		return slice.Elem()
	}
	if i >= n {
		return nil
	}
	return params.At(i).Type()
}

// exampleFor renders a fix suggestion for the diagnostic.
func exampleFor(unit, lit string) string {
	if unit == "Time" {
		return lit + "*units.Nanosecond"
	}
	return lit + "*units.KiB"
}
