// Package lint is a small, stdlib-only static-analysis framework plus
// the analyzers that machine-check this repository's concurrency
// invariants (run by cmd/rnblint, wired into `make ci`).
//
// The framework loads packages with go/parser, type-checks them with
// go/types against compiler export data (load.go), runs each Analyzer
// over every loaded compilation unit, and filters the diagnostics
// through //rnblint:ignore suppression directives.
//
// Both analyzers, lockorder and frozen, are interprocedural and each
// exists because it catches a bug this repo shipped (regress_test.go):
// callgraph.go builds a static call graph over every loaded unit and
// facts.go runs per-function summary computations bottom-up over its
// strongly connected components, the way go/analysis facts flow
// between packages — so a lock acquired three calls deep, or a
// frozen-type mutation hidden in a helper, is visible at the outermost
// call site. Both are flow-sensitive and share one statement walker
// (walk.go). They are best-effort by design: they encode the specific
// invariants this codebase relies on, not general-purpose soundness.
package lint

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker. Run receives a Pass holding every
// loaded compilation unit at once (the analyzers judge whole-program
// call chains through the Pass's shared call graph) and reports
// findings through pass.Report.
type Analyzer struct {
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	Run func(pass *Pass)
}

// Pass is the per-analyzer view of one Run: the loaded units, the
// reporting sink, and lazily built whole-program structures shared by
// every analyzer of the run (the call graph is built once, not once
// per interprocedural analyzer).
type Pass struct {
	Pkgs   []*Package
	Report ReportFunc

	shared *sharedState
}

// sharedState caches whole-program structures across the analyzers of
// one Run call.
type sharedState struct {
	graphOnce sync.Once
	graph     *CallGraph
}

// CallGraph returns the run-wide static call graph, built on first use
// and shared by every analyzer of the run.
func (p *Pass) CallGraph() *CallGraph {
	p.shared.graphOnce.Do(func() {
		p.shared.graph = BuildCallGraph(p.Pkgs)
	})
	return p.shared.graph
}

// ReportFunc records one diagnostic for the named analyzer.
type ReportFunc func(pkg *Package, pos token.Pos, format string, args ...any)

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Frozen,
		LockOrder,
	}
}

// ByName returns the named analyzers, or an error naming the first
// unknown one.
func ByName(names []string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run executes the analyzers over pkgs and returns the surviving
// diagnostics sorted by position: suppressed findings are dropped,
// malformed suppression directives are themselves diagnostics (from
// the pseudo-analyzer "rnblint"), and so are dead ones — a directive
// that suppresses nothing is stale documentation and must be deleted
// (the dead check only judges a directive when every analyzer it names
// actually ran, so -only subsets cannot produce false staleness).
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	shared := &sharedState{}
	var diags []Diagnostic
	for _, a := range analyzers {
		a := a
		report := func(pkg *Package, pos token.Pos, format string, args ...any) {
			diags = append(diags, Diagnostic{
				Pos:      pkg.Fset.Position(pos),
				Analyzer: a.Name,
				Message:  fmt.Sprintf(format, args...),
			})
		}
		a.Run(&Pass{Pkgs: pkgs, Report: report, shared: shared})
	}

	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}

	sup, supDiags := collectSuppressions(pkgs)
	kept := supDiags
	for _, d := range diags {
		if !sup.matches(d) {
			kept = append(kept, d)
		}
	}
	for i := range sup {
		s := &sup[i]
		if s.hits > 0 {
			continue
		}
		all := true
		for name := range s.analyzers {
			if !ran[name] {
				all = false
				break
			}
		}
		if all {
			kept = append(kept, Diagnostic{
				Pos:      s.pos,
				Analyzer: "rnblint",
				Message:  fmt.Sprintf("ignore directive for %s suppresses nothing; delete it", s.names),
			})
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// Suppression directives.
//
//	//rnblint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The directive suppresses the named analyzers' diagnostics on its own
// line and on the line below it (so it works both as a trailing
// comment and on a line of its own above the flagged statement). The
// reason is mandatory: an ignore that does not say why is itself a
// diagnostic — reviewers should never have to archaeology a bare
// suppression. A directive must also still earn its keep: one that
// matches no current finding is reported as dead by Run.
var ignoreRE = regexp.MustCompile(`^//rnblint:ignore(?:\s+(\S+))?(?:\s+(.*))?$`)

type suppression struct {
	file      string
	line      int
	pos       token.Position
	names     string // the directive's analyzer list, verbatim
	analyzers map[string]bool
	hits      int
}

type suppressions []suppression

func (s suppressions) matches(d Diagnostic) bool {
	matched := false
	for i := range s {
		sup := &s[i]
		if sup.file != d.Pos.Filename {
			continue
		}
		if d.Pos.Line != sup.line && d.Pos.Line != sup.line+1 {
			continue
		}
		if sup.analyzers[d.Analyzer] {
			sup.hits++
			matched = true
		}
	}
	return matched
}

func collectSuppressions(pkgs []*Package) (suppressions, []Diagnostic) {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var sups suppressions
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := ignoreRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					bad := func(format string, args ...any) {
						diags = append(diags, Diagnostic{
							Pos:      pos,
							Analyzer: "rnblint",
							Message:  fmt.Sprintf(format, args...),
						})
					}
					if m[1] == "" {
						bad("ignore directive names no analyzer (want //rnblint:ignore <analyzer> <reason>)")
						continue
					}
					names := strings.Split(m[1], ",")
					set := make(map[string]bool, len(names))
					ok := true
					for _, n := range names {
						if !known[n] {
							bad("ignore directive names unknown analyzer %q", n)
							ok = false
							break
						}
						set[n] = true
					}
					if !ok {
						continue
					}
					if strings.TrimSpace(m[2]) == "" {
						bad("ignore directive for %s is missing a reason", m[1])
						continue
					}
					sups = append(sups, suppression{file: pos.Filename, line: pos.Line, pos: pos, names: m[1], analyzers: set})
				}
			}
		}
	}
	return sups, diags
}
