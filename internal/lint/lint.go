// Package lint is nmlint's engine: a repo-specific static-analysis suite
// that enforces the determinism and concurrency invariants the simulator's
// replay methodology depends on. The discrete-event kernel promises that a
// given component graph and input trace always produce bit-identical
// results; these analyzers make the promise checkable. Everything here uses
// only the standard library (go/ast, go/parser, go/token, go/types) — the
// module is dependency-free and must stay so.
//
// The six analyzers:
//
//   - nowallclock: no time.Now/Since/Sleep (or timers) in simulator
//     packages, where all time must be units.Time.
//   - noglobalrand: no math/rand global-source functions anywhere outside
//     internal/xrand, so every random stream is seeded and replayable.
//   - sortedmaprange: no ranging over maps in simulator packages — map
//     iteration order feeding the event queue destroys FIFO tie-breaking.
//   - paronlygoroutines: no raw go statements in non-test code outside
//     internal/par; all parallelism goes through the p-thread abstraction.
//   - unitslit: no bare untyped integer literals passed where units.Time or
//     units.Bytes parameters are expected (literal 0 is unit-safe).
//   - simpure: every callback scheduled on engine.Sim.At/After/AtTicket — and every
//     module-internal helper it calls, transitively — touches only
//     simulator-owned state: no host I/O, wall clock, channel/sync
//     operations, or writes to captured variables outside the component
//     graph. It resolves callees, struct-field callbacks, and method values
//     through one call graph of the module (callgraph.go).
//
// The replay kernel's allocation discipline is not a lint rule: the exact
// per-replay malloc pins of the root package's TestReplayAllocs hold it,
// and the allocation mutants under testdata/mutants/alloc show what they
// catch (DESIGN §9).
//
// A finding can be suppressed with a comment on the same line or the line
// above: //nmlint:ignore <analyzer> [reason].
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

// String renders the diagnostic in the canonical file:line: [analyzer] form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// ReportFunc is the callback analyzers emit diagnostics through.
type ReportFunc func(pos token.Pos, format string, args ...any)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string // short name used in diagnostics and ignore comments
	Doc  string // one-line description
	Run  func(u *Unit, report ReportFunc)
}

// Analyzers returns the full suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoWallClock,
		NoGlobalRand,
		SortedMapRange,
		ParOnlyGoroutines,
		UnitsLit,
		SimPure,
	}
}

// simulatorPackages are the import-path suffixes (under the module path)
// whose code runs inside, or records input for, the discrete-event
// simulation. Rules that guard replay determinism apply only here.
var simulatorPackages = map[string]bool{
	"internal/engine":    true,
	"internal/machine":   true,
	"internal/dram":      true,
	"internal/noc":       true,
	"internal/trace":     true,
	"internal/cachesim":  true,
	"internal/spmem":     true,
	"internal/fault":     true,
	"internal/telemetry": true,
	// serve answers jobs from the replay kernel; wall-clock reads or map
	// iteration there would leak nondeterminism into cached responses.
	"internal/serve": true,
}

// isSimulatorPackage reports whether the import path (relative to the
// module) is one of the simulator packages.
func (u *Unit) isSimulatorPackage() bool {
	return simulatorPackages[u.relPath()]
}

// relPath returns the unit's import path relative to the module path
// ("internal/engine" for "repro/internal/engine").
func (u *Unit) relPath() string {
	if u.ImportPath == u.ModulePath {
		return "."
	}
	return strings.TrimPrefix(u.ImportPath, u.ModulePath+"/")
}

// Run executes every analyzer over every unit of the module and returns the
// surviving (non-suppressed) diagnostics sorted by position. Suppression
// directives are collected module-wide before any analyzer runs: the
// transitive simpure walk reports findings at the offending expression even
// when it lives in a different package than the scheduling site, and the
// ignore comment must work where the construct is, not where the walk
// started. Identical findings reached from several units (two scheduling
// sites walking into one shared helper) collapse to one.
func Run(mod *Module) []Diagnostic {
	ignores := mod.ignores()
	var diags []Diagnostic
	for _, u := range mod.Units() {
		diags = append(diags, runUnit(u, Analyzers(), ignores)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	dedup := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		dedup = append(dedup, d)
	}
	return dedup
}

// RunUnit executes the given analyzers over one unit, applying the unit's
// own suppression comments. Fixture self-tests use it; whole-module runs go
// through Run, which unions suppressions across units first.
func RunUnit(u *Unit, analyzers []*Analyzer) []Diagnostic {
	return runUnit(u, analyzers, collectIgnores(u))
}

func runUnit(u *Unit, analyzers []*Analyzer, ignores ignoreSet) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(u, func(pos token.Pos, format string, args ...any) {
			p := u.Fset.Position(pos)
			if ignores.suppressed(p, a.Name) {
				return
			}
			diags = append(diags, Diagnostic{
				Pos:      p,
				File:     p.Filename,
				Line:     p.Line,
				Col:      p.Column,
				Analyzer: a.Name,
				Message:  fmt.Sprintf(format, args...),
			})
		})
	}
	return diags
}

// ignoreSet maps file → line → set of suppressed analyzer names. The special
// name "all" suppresses every analyzer.
type ignoreSet map[string]map[int][]string

const ignorePrefix = "//nmlint:ignore"

// collectIgnores scans every comment in the unit for suppression directives.
// A directive suppresses findings on its own line and on the line directly
// below (so it can sit above the flagged statement).
func collectIgnores(u *Unit) ignoreSet {
	set := ignoreSet{}
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				p := u.Fset.Position(c.Pos())
				byLine := set[p.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					set[p.Filename] = byLine
				}
				byLine[p.Line] = append(byLine[p.Line], strings.Split(fields[0], ",")...)
			}
		}
	}
	return set
}

func (s ignoreSet) suppressed(p token.Position, analyzer string) bool {
	byLine := s[p.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, name := range byLine[line] {
			if name == analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}

// pkgNameOf resolves an identifier to the import path of the package it
// names, or "" when it is not a package name.
func pkgNameOf(u *Unit, id *ast.Ident) string { return pkgPathOf(u.Info, id) }

// pkgPathOf is pkgNameOf over bare type info, for walks that cross units.
func pkgPathOf(info *types.Info, id *ast.Ident) string {
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}
