package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file is the interprocedural half of the framework: a static
// call graph over every loaded compilation unit, with its strongly
// connected components in bottom-up (callees-first) order. Analyzers
// combine it with per-function summaries (facts.go) to see through
// call boundaries — the way go/analysis facts flow between packages —
// while staying stdlib-only.

// FuncKey canonically names a function or method across compilation
// units. It is types.Func.FullName() ("rnb/internal/memcache.dial",
// "(*rnb/internal/memcache.Client).route"): the same function reached
// through source type-checking in its own unit and through compiler
// export data in a dependent unit produces the same key, which is what
// lets facts computed in one unit be consumed in another.
type FuncKey string

// KeyOf returns the canonical key for a function object.
func KeyOf(f *types.Func) FuncKey { return FuncKey(f.FullName()) }

// CallSite is one statically resolved call inside a function body.
type CallSite struct {
	Callee FuncKey
	Call   *ast.CallExpr
	// InLit marks calls written inside a func literal of the enclosing
	// function. They execute when the literal runs — possibly on
	// another goroutine, possibly never — so summary-based analyses
	// must not attribute them to the enclosing function's own
	// execution.
	InLit bool
	// Deferred marks `defer f(...)`: the call runs at function exit,
	// where the analyses' mid-body state (held locks, publish status)
	// no longer applies.
	Deferred bool
	// Go marks `go f(...)`: the call runs concurrently, so it does not
	// block the caller and inherits none of its lock state.
	Go bool
}

// FuncNode is one declared function or method with a body.
type FuncNode struct {
	Key  FuncKey
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists the resolved call sites in source order.
	Calls []CallSite
}

// CallGraph is the static call graph over the loaded units.
type CallGraph struct {
	// Nodes maps every declared function with a body.
	Nodes map[FuncKey]*FuncNode
	keys  []FuncKey // sorted, for deterministic iteration
	sccs  [][]*FuncNode
}

// Keys returns every node key in sorted order.
func (g *CallGraph) Keys() []FuncKey { return g.keys }

// BuildCallGraph constructs the graph. Prefer Pass.CallGraph, which
// builds it once per run and shares it across analyzers.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: make(map[FuncKey]*FuncNode)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := KeyOf(fn)
				if _, dup := g.Nodes[key]; dup {
					// Two units declaring the same key (should not
					// happen with one unit per package); keep the first
					// deterministically — pkgs are sorted by path.
					continue
				}
				g.Nodes[key] = &FuncNode{
					Key:   key,
					Fn:    fn,
					Decl:  fd,
					Pkg:   pkg,
					Calls: collectCalls(pkg, fd),
				}
			}
		}
	}
	g.keys = make([]FuncKey, 0, len(g.Nodes))
	for k := range g.Nodes {
		g.keys = append(g.keys, k)
	}
	sort.Slice(g.keys, func(i, j int) bool { return g.keys[i] < g.keys[j] })
	g.sccs = g.computeSCCs()
	return g
}

// collectCalls resolves every call expression in the body, flagging
// calls under func literals, defer, and go.
func collectCalls(pkg *Package, fd *ast.FuncDecl) []CallSite {
	var lits []*ast.FuncLit
	deferred := make(map[*ast.CallExpr]bool)
	gone := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, n)
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.GoStmt:
			gone[n.Call] = true
		}
		return true
	})
	inLit := func(n ast.Node) bool {
		for _, l := range lits {
			if l.Body.Pos() <= n.Pos() && n.End() <= l.Body.End() {
				return true
			}
		}
		return false
	}
	var sites []CallSite
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pkg.Info, call)
		if callee == nil {
			return true
		}
		sites = append(sites, CallSite{
			Callee:   KeyOf(callee),
			Call:     call,
			InLit:    inLit(call),
			Deferred: deferred[call],
			Go:       gone[call],
		})
		return true
	})
	return sites
}

// BottomUp returns the strongly connected components in callees-first
// order: when SCC i is handed out, every function any of its members
// calls outside the component has already appeared in an earlier SCC.
// Mutually recursive functions share a component; summary computations
// iterate such a component to a fixpoint (see Converge in facts.go).
func (g *CallGraph) BottomUp() [][]*FuncNode { return g.sccs }

// computeSCCs runs Tarjan's algorithm iteratively (function bodies can
// nest calls arbitrarily deep, but the call DAG itself can also be
// deep — no recursion on it). Tarjan emits components in reverse
// topological order of the condensation, which is exactly the
// callees-first order BottomUp promises.
func (g *CallGraph) computeSCCs() [][]*FuncNode {
	index := make(map[FuncKey]int, len(g.Nodes))
	low := make(map[FuncKey]int, len(g.Nodes))
	onStack := make(map[FuncKey]bool, len(g.Nodes))
	var stack []FuncKey
	var sccs [][]*FuncNode
	next := 0

	// succ returns the callee keys that are themselves nodes, in
	// deterministic (source) order, deduplicated.
	succ := func(k FuncKey) []FuncKey {
		n := g.Nodes[k]
		seen := make(map[FuncKey]bool)
		var out []FuncKey
		for _, cs := range n.Calls {
			if _, ok := g.Nodes[cs.Callee]; !ok {
				continue
			}
			if !seen[cs.Callee] {
				seen[cs.Callee] = true
				out = append(out, cs.Callee)
			}
		}
		return out
	}

	type frame struct {
		key   FuncKey
		succs []FuncKey
		next  int
	}
	for _, root := range g.keys {
		if _, visited := index[root]; visited {
			continue
		}
		frames := []frame{{key: root, succs: succ(root)}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.next < len(f.succs) {
				w := f.succs[f.next]
				f.next++
				if _, visited := index[w]; !visited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{key: w, succs: succ(w)})
				} else if onStack[w] && index[w] < low[f.key] {
					low[f.key] = index[w]
				}
				continue
			}
			// f exhausted: pop, propagate lowlink, maybe emit SCC.
			done := *f
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if low[done.key] < low[frames[len(frames)-1].key] {
					low[frames[len(frames)-1].key] = low[done.key]
				}
			}
			if low[done.key] == index[done.key] {
				var comp []*FuncNode
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, g.Nodes[w])
					if w == done.key {
						break
					}
				}
				sort.Slice(comp, func(i, j int) bool { return comp[i].Key < comp[j].Key })
				sccs = append(sccs, comp)
			}
		}
	}
	return sccs
}
