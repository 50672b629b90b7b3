package lint

import (
	"cmp"
	"go/ast"
	"go/types"
	"slices"
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
	slices.Sort(g.keys)
	// Successors are the callees that are themselves nodes, in source
	// order, deduplicated. Tarjan's reverse topological order is exactly
	// the callees-first order BottomUp promises.
	succ := func(k FuncKey) []FuncKey {
		var out []FuncKey
		for _, cs := range g.Nodes[k].Calls {
			if _, ok := g.Nodes[cs.Callee]; ok && !slices.Contains(out, cs.Callee) {
				out = append(out, cs.Callee)
			}
		}
		return out
	}
	for _, comp := range stronglyConnected(g.keys, succ) {
		nodes := make([]*FuncNode, len(comp))
		for i, k := range comp {
			nodes[i] = g.Nodes[k]
		}
		g.sccs = append(g.sccs, nodes)
	}
	return g
}

// collectCalls resolves every call expression in the body, flagging
// calls under func literals, defer, and go.
func collectCalls(pkg *Package, fd *ast.FuncDecl) []CallSite {
	deferred := make(map[*ast.CallExpr]bool)
	gone := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.GoStmt:
			gone[n.Call] = true
		}
		return true
	})
	inLit := inLitOf(fd.Body)
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

// inLitOf returns a predicate reporting whether a node lies inside one
// of the function literals written in body.
func inLitOf(body ast.Node) func(ast.Node) bool {
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if l, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, l)
		}
		return true
	})
	return func(n ast.Node) bool {
		for _, l := range lits {
			if l.Body.Pos() <= n.Pos() && n.End() <= l.Body.End() {
				return true
			}
		}
		return false
	}
}

// BottomUp returns the strongly connected components in callees-first
// order: when SCC i is handed out, every function any of its members
// calls outside the component has already appeared in an earlier SCC.
// Mutually recursive functions share a component; summary computations
// iterate such a component to a fixpoint (see Converge in facts.go).
func (g *CallGraph) BottomUp() [][]*FuncNode { return g.sccs }

// stronglyConnected runs Tarjan's algorithm over the nodes reachable
// from roots, iteratively (call chains and lock graphs can both be
// deep). succ must return successors in a deterministic order.
// Components come out in reverse topological order of the
// condensation — every component a node reaches outside its own comes
// first — and each component is sorted.
func stronglyConnected[K cmp.Ordered](roots []K, succ func(K) []K) [][]K {
	index := make(map[K]int)
	low := make(map[K]int)
	onStack := make(map[K]bool)
	var stack []K
	var sccs [][]K
	type frame struct {
		key   K
		succs []K
		next  int
	}
	var frames []frame
	push := func(k K) {
		index[k], low[k] = len(index), len(index)
		stack = append(stack, k)
		onStack[k] = true
		frames = append(frames, frame{key: k, succs: succ(k)})
	}
	for _, root := range roots {
		if _, visited := index[root]; visited {
			continue
		}
		push(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.next < len(f.succs) {
				w := f.succs[f.next]
				f.next++
				if _, visited := index[w]; !visited {
					push(w)
				} else if onStack[w] && index[w] < low[f.key] {
					low[f.key] = index[w]
				}
				continue
			}
			// f exhausted: pop, propagate lowlink, maybe emit an SCC.
			k := f.key
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].key
				low[parent] = min(low[parent], low[k])
			}
			if low[k] == index[k] {
				var comp []K
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == k {
						break
					}
				}
				slices.Sort(comp)
				sccs = append(sccs, comp)
			}
		}
	}
	return sccs
}
