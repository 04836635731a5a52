package lint

// The -escape-check cross-check: the hotpath analyzer is a conservative
// AST pass, so constructs it cannot see (a stdlib call that leaks an
// argument, a variable the compiler moves to the heap for reasons no
// syntax rule names) can still allocate inside an annotated region. This
// file closes that gap with the compiler's own escape analysis: HotRegions
// re-runs the hotpath walk to collect every hot code span, ParseEscapes
// reads `go build -gcflags=-m=2` diagnostics, and CrossCheck reports every
// compiler-confirmed heap escape inside a hot region that is neither on a
// cold (panic / error-return) line nor excused by a reasoned ignore. The
// two passes guard each other: the AST pass explains *why* a construct
// allocates and works without building; the compiler pass is ground truth.

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Region is one hot code span the hotpath walk visited: an annotated
// function, a transitively reached module-internal callee, or a func
// literal bound to a hot callback field.
type Region struct {
	File      string // absolute path
	Func      string // name of the walked declaration
	StartLine int
	EndLine   int
}

// RegionSet collects hot regions and the cold lines excluded from them.
type RegionSet struct {
	Regions []Region
	cold    map[string][][2]int // file → (startLine, endLine) cold ranges
	seen    map[Region]bool
}

// newRegionSet returns an empty set.
func newRegionSet() *RegionSet {
	return &RegionSet{cold: map[string][][2]int{}, seen: map[Region]bool{}}
}

func (rs *RegionSet) add(r Region) {
	if rs.seen[r] {
		return
	}
	rs.seen[r] = true
	rs.Regions = append(rs.Regions, r)
}

func (rs *RegionSet) addCold(file string, start, end int) {
	rs.cold[file] = append(rs.cold[file], [2]int{start, end})
}

// covers returns the hot region containing file:line, if any; cold lines
// are not covered.
func (rs *RegionSet) covers(file string, line int) (Region, bool) {
	for _, cr := range rs.cold[file] {
		if line >= cr[0] && line <= cr[1] {
			return Region{}, false
		}
	}
	for _, r := range rs.Regions {
		if r.File == file && line >= r.StartLine && line <= r.EndLine {
			return r, true
		}
	}
	return Region{}, false
}

// Files returns the sorted unique files containing hot regions; the
// escape-check driver derives the package list to rebuild from them.
func (rs *RegionSet) Files() []string {
	set := map[string]bool{}
	for _, r := range rs.Regions {
		set[r.File] = true
	}
	files := make([]string, 0, len(set))
	for f := range set {
		files = append(files, f)
	}
	sort.Strings(files)
	return files
}

// HotRegions re-runs the hotpath walk over every unit, discarding findings
// and keeping only the visited spans.
func HotRegions(mod *Module) *RegionSet {
	rs := newRegionSet()
	discard := func(token.Pos, string, ...any) {}
	for _, u := range mod.Units() {
		newHotpathChecker(u, discard, rs).run()
	}
	return rs
}

// Escape is one compiler escape diagnostic.
type Escape struct {
	File string // as printed by the compiler (usually module-relative)
	Line int
	Col  int
	Msg  string
}

// escapeLineRE matches compiler diagnostic lines: file.go:line:col: msg.
var escapeLineRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+)$`)

// ParseEscapes extracts heap-escape diagnostics from `go build
// -gcflags=-m=2` output. Only actual escapes survive: "escapes to heap"
// and "moved to heap" lines, not the "does not escape" confirmations or
// the indented flow-explanation lines -m=2 adds.
func ParseEscapes(output string) []Escape {
	var escs []Escape
	for _, line := range strings.Split(output, "\n") {
		m := escapeLineRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if strings.HasPrefix(msg, " ") || strings.Contains(msg, "does not escape") {
			continue
		}
		if !strings.Contains(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap") {
			continue
		}
		// -m=2 prints each escape twice: once bare and once as the header
		// of an indented flow explanation, with a trailing colon. Normalize
		// so the pair dedups to one diagnostic downstream.
		msg = strings.TrimSuffix(msg, ":")
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		escs = append(escs, Escape{File: m[1], Line: ln, Col: col, Msg: msg})
	}
	return escs
}

// CrossCheck returns one diagnostic per compiler escape that lands inside
// a hot region without an excuse: not on a cold line, not suppressed by a
// reasoned hotpath ignore or an escape-check ignore at that position.
func CrossCheck(mod *Module, rs *RegionSet, escs []Escape) []Diagnostic {
	ignores := mod.ignores()
	var diags []Diagnostic
	seen := map[string]bool{}
	for _, e := range escs {
		file := e.File
		if !filepath.IsAbs(file) {
			file = filepath.Join(mod.Root, filepath.FromSlash(strings.TrimPrefix(file, "./")))
		}
		reg, ok := rs.covers(file, e.Line)
		if !ok {
			continue
		}
		p := token.Position{Filename: file, Line: e.Line, Column: e.Col}
		if ignores.suppressed(p, hotpathName) || ignores.suppressed(p, "escape-check") {
			continue
		}
		d := Diagnostic{
			Pos: p, File: file, Line: e.Line, Col: e.Col,
			Analyzer: "escape-check",
			Message:  fmt.Sprintf("compiler escape analysis reports %q inside hot region %s", e.Msg, reg.Func),
		}
		key := d.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		diags = append(diags, d)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return diags
}
