package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder is the interprocedural deadlock analyzer. It abstracts
// every sync.Mutex/RWMutex to a lock identity — struct field
// ("memcache.Client.mu", collapsing instances) or package-level var —
// computes per-function summaries of the identities each function may
// acquire (transitively, bottom-up over the call-graph SCCs), and
// threads lockFlow's held set through every body: each "lock B
// acquired (directly or through any call chain) while A is held"
// becomes an edge A→B in a global acquisition graph. A cycle in that
// graph is an ordering deadlock waiting for the right interleaving,
// and is reported once per cycle with the witnessing acquisition
// sites.
//
// The same pass enforces the repo's sync.Cond discipline — the exact
// shape of the pooled transport's dial-slot deadlock: Wait must sit in
// a rechecked-condition loop and hold the Cond's lock, and
// Signal/Broadcast must hold the guarding lock, because an unlocked
// wake can land between a waiter's decisive re-check and its Wait and
// be lost forever.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "no cycles in the cross-function lock-acquisition order; sync.Cond waits re-check in a loop and notifies under the guarding lock",
	Run:  runLockOrder,
}

// mutexAcquireKeys are the call-graph callee keys that acquire a
// mutex; mutexReleaseKeys release one.
var mutexAcquireKeys = map[FuncKey]bool{
	"(*sync.Mutex).Lock": true, "(*sync.RWMutex).Lock": true, "(*sync.RWMutex).RLock": true,
}

// lockEdge is one witnessed "to acquired while from held".
type lockEdge struct {
	pkg *Package
	pos token.Pos
}

type lockOrder struct {
	pass *Pass
	// acquires summarizes, per function, the global lock identities the
	// function may acquire transitively.
	acquires *Facts[map[string]token.Pos]
	// edges: from -> to -> earliest witness.
	edges map[string]map[string]lockEdge
	// condGuards maps a sync.Cond identity to its guarding lock
	// identity ("" when the sync.NewCond argument was not recognized as
	// &<mutex>; conds with conflicting guards are dropped).
	condGuards map[string]string
}

func runLockOrder(pass *Pass) {
	lo := &lockOrder{
		pass:       pass,
		acquires:   NewFacts(func() map[string]token.Pos { return make(map[string]token.Pos) }),
		edges:      make(map[string]map[string]lockEdge),
		condGuards: make(map[string]string),
	}
	g := pass.CallGraph()

	// Phase 0: map every sync.Cond to its guarding lock.
	lo.collectCondGuards()

	// Phase 1: bottom-up acquisition summaries.
	Converge(g, func(n *FuncNode) bool {
		sum := lo.acquires.Get(n.Key)
		changed := false
		for _, cs := range n.Calls {
			if cs.InLit || cs.Deferred || cs.Go {
				continue
			}
			if mutexAcquireKeys[cs.Callee] {
				if id, owner := lockIdent(n.Pkg, mutexRecv(cs.Call)); owner != nil {
					if _, ok := sum[id]; !ok {
						sum[id] = cs.Call.Pos()
						changed = true
					}
				}
				continue
			}
			callee, ok := lo.acquires.Peek(cs.Callee)
			if !ok {
				continue
			}
			for id := range callee {
				if _, ok := sum[id]; !ok {
					sum[id] = cs.Call.Pos()
					changed = true
				}
			}
		}
		return changed
	})

	// Phase 2: walk every body with lock state, recording edges and
	// checking Cond discipline.
	for _, key := range g.Keys() {
		n := g.Nodes[key]
		h := &orderHooks{lo: lo, pkg: n.Pkg}
		w := &lockFlow{pkg: n.Pkg, hooks: h}
		walkBlock(w, n.Decl.Body.List, heldSet{})
	}
	lo.reportCycles()
}

// orderHooks implements lockHooks for the edge/Cond pass.
type orderHooks struct {
	lo  *lockOrder
	pkg *Package
}

func (h *orderHooks) blocking(pos token.Pos, label string, held heldSet) {}

func (h *orderHooks) acquire(recv ast.Expr, op string, call *ast.CallExpr, held heldSet) {
	id, owner := lockIdent(h.pkg, recv)
	if id == "" {
		return
	}
	// Re-acquiring the exact expression already held is a guaranteed
	// self-deadlock when the new acquisition is a write lock (RLock
	// after RLock merely risks writer starvation; stay quiet there).
	if hl, ok := held[types.ExprString(recv)]; ok && op == "Lock" {
		h.lo.pass.Report(h.pkg, call.Pos(), "Lock of %s while it is already held (locked at %s): guaranteed self-deadlock", shortLockID(id), shortPosIn(h.pkg, hl.pos))
		return
	}
	if owner == nil {
		return
	}
	h.addHeldEdges(held, id, call.Pos())
}

func (h *orderHooks) call(call *ast.CallExpr, held heldSet, inLoop bool) {
	h.checkCond(call, held, inLoop)
	if len(held) == 0 {
		return
	}
	callee := calleeFunc(h.pkg.Info, call)
	if callee == nil {
		return
	}
	sum, ok := h.lo.acquires.Peek(KeyOf(callee))
	if !ok {
		return
	}
	ids := make([]string, 0, len(sum))
	for id := range sum {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		h.addHeldEdges(held, id, call.Pos())
	}
}

// addHeldEdges records held→acquired edges for every globally
// identified held lock.
func (h *orderHooks) addHeldEdges(held heldSet, to string, pos token.Pos) {
	for _, hl := range held {
		if from, owner := lockIdent(h.pkg, hl.expr); owner != nil {
			h.lo.addEdge(from, to, h.pkg, pos)
		}
	}
}

// checkCond enforces the Cond discipline at Wait/Signal/Broadcast
// sites.
func (h *orderHooks) checkCond(call *ast.CallExpr, held heldSet, inLoop bool) {
	recv, name, ok := callReceiver(h.pkg.Info, call)
	if !ok || !isNamedType(recv, "sync", "Cond") {
		return
	}
	switch name {
	case "Wait", "Signal", "Broadcast":
	default:
		return
	}
	condID, _ := lockIdent(h.pkg, mutexRecv(call))
	guard := ""
	if condID != "" {
		guard = h.lo.condGuards[condID]
	}
	holdsGuard := false
	if guard != "" {
		for _, hl := range held {
			if id, _ := lockIdent(h.pkg, hl.expr); id == guard {
				holdsGuard = true
				break
			}
		}
	}
	switch name {
	case "Wait":
		if !inLoop {
			h.lo.pass.Report(h.pkg, call.Pos(), "sync.Cond.Wait outside a rechecked-condition loop: a wakeup is a hint, not a guarantee — re-check the predicate in a for loop")
		}
		if guard != "" && !holdsGuard {
			h.lo.pass.Report(h.pkg, call.Pos(), "sync.Cond.Wait without holding its lock %s", shortLockID(guard))
		}
	case "Signal", "Broadcast":
		if guard != "" && !holdsGuard {
			h.lo.pass.Report(h.pkg, call.Pos(), "sync.Cond.%s without the guarding lock %s held: the wake can land between a waiter's re-check and its Wait and be lost", name, shortLockID(guard))
		}
	}
}

func (lo *lockOrder) addEdge(from, to string, pkg *Package, pos token.Pos) {
	m := lo.edges[from]
	if m == nil {
		m = make(map[string]lockEdge)
		lo.edges[from] = m
	}
	if old, ok := m[to]; !ok || pos < old.pos {
		m[to] = lockEdge{pkg: pkg, pos: pos}
	}
}

// collectCondGuards scans every file for sync.NewCond calls and maps
// the cond destination to the lock named by a &<mutex> argument.
func (lo *lockOrder) collectCondGuards() {
	conflicted := make(map[string]bool)
	// record maps the cond dst (or the struct field condID, when dst is
	// nil) to the lock its sync.NewCond call names.
	record := func(pkg *Package, dst ast.Expr, condID string, call *ast.CallExpr) {
		if dst != nil {
			condID, _ = lockIdent(pkg, dst)
		}
		if condID == "" || !isPkgFunc(pkg.Info, call, "sync", "NewCond") || len(call.Args) != 1 {
			return
		}
		guard := ""
		if u, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && u.Op == token.AND {
			guard, _ = lockIdent(pkg, u.X)
		}
		if prev, ok := lo.condGuards[condID]; ok && prev != guard {
			conflicted[condID] = true
		}
		lo.condGuards[condID] = guard
	}
	for _, pkg := range lo.pass.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, rhs := range n.Rhs {
						if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && i < len(n.Lhs) {
							record(pkg, n.Lhs[i], "", call)
						}
					}
				case *ast.ValueSpec:
					for i, v := range n.Values {
						if call, ok := ast.Unparen(v).(*ast.CallExpr); ok && i < len(n.Names) {
							record(pkg, n.Names[i], "", call)
						}
					}
				case *ast.CompositeLit:
					tv, ok := pkg.Info.Types[n]
					if !ok {
						return true
					}
					named := namedOf(tv.Type)
					if named == nil || named.Obj().Pkg() == nil {
						return true
					}
					for _, el := range n.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, ok := kv.Key.(*ast.Ident)
						if !ok {
							continue
						}
						if call, ok := ast.Unparen(kv.Value).(*ast.CallExpr); ok {
							record(pkg, nil, named.Obj().Pkg().Path()+"."+named.Obj().Name()+"."+key.Name, call)
						}
					}
				}
				return true
			})
		}
	}
	for id := range conflicted {
		lo.condGuards[id] = ""
	}
}

// reportCycles finds strongly connected components of the acquisition
// graph and reports one diagnostic per cycle, anchored at its earliest
// witnessing acquisition.
func (lo *lockOrder) reportCycles() {
	nodes := make([]string, 0, len(lo.edges))
	seen := make(map[string]bool)
	for from, tos := range lo.edges {
		if !seen[from] {
			seen[from] = true
			nodes = append(nodes, from)
		}
		for to := range tos {
			if !seen[to] {
				seen[to] = true
				nodes = append(nodes, to)
			}
		}
	}
	sort.Strings(nodes)
	succ := func(id string) []string {
		tos := make([]string, 0, len(lo.edges[id]))
		for to := range lo.edges[id] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		return tos
	}
	for _, comp := range stronglyConnected(nodes, succ) {
		if len(comp) == 1 {
			id := comp[0]
			if _, self := lo.edges[id][id]; !self {
				continue
			}
		}
		lo.reportCycle(comp)
	}
}

// reportCycle reconstructs one concrete cycle through the component
// and reports it.
func (lo *lockOrder) reportCycle(comp []string) {
	inComp := make(map[string]bool, len(comp))
	for _, id := range comp {
		inComp[id] = true
	}
	start := comp[0] // comp is sorted; deterministic anchor
	// DFS for a path start -> ... -> start inside the component.
	var path []string
	var dfs func(id string) bool
	visited := make(map[string]bool)
	dfs = func(id string) bool {
		tos := make([]string, 0, len(lo.edges[id]))
		for to := range lo.edges[id] {
			if inComp[to] {
				tos = append(tos, to)
			}
		}
		sort.Strings(tos)
		for _, to := range tos {
			if to == start {
				path = append(path, to)
				return true
			}
			if visited[to] {
				continue
			}
			visited[to] = true
			path = append(path, to)
			if dfs(to) {
				return true
			}
			path = path[:len(path)-1]
		}
		return false
	}
	if !dfs(start) {
		return // unreachable for a real SCC; stay silent rather than lie
	}

	var b strings.Builder
	fmt.Fprintf(&b, "lock ordering cycle: %s", shortLockID(start))
	prev := start
	var anchor lockEdge
	for _, to := range path {
		e := lo.edges[prev][to]
		if anchor.pkg == nil || e.pos < anchor.pos {
			anchor = e
		}
		fmt.Fprintf(&b, " -> %s (%s)", shortLockID(to), shortPosIn(e.pkg, e.pos))
		prev = to
	}
	b.WriteString("; consistent acquisition order required")
	lo.pass.Report(anchor.pkg, anchor.pos, "%s", b.String())
}

// lockIdent computes a stable identity for a mutex (or cond) holder
// expression. Struct fields collapse to "pkgpath.Type.field" — the
// granularity lock-order analysis wants: ordering is a property of the
// code paths touching a field, not of one instance. Package-level vars
// are "pkgpath.name". Locals get a function-scoped identity usable for
// guard matching but excluded (global=false) from the acquisition
// graph, where cross-function identity would be meaningless. owner is
// the package a global identity belongs to, nil for locals. sync.Cond
// and channel identities (blockleak) follow the same rules.
func lockIdent(pkg *Package, e ast.Expr) (id string, owner *types.Package) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if n := namedOf(sel.Recv()); n != nil && n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + e.Sel.Name, n.Obj().Pkg()
			}
			return "", nil
		}
		if v, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok && pkgLevel(v) {
			return v.Pkg().Path() + "." + v.Name(), v.Pkg()
		}
	case *ast.Ident:
		if v, ok := pkg.Info.ObjectOf(e).(*types.Var); ok {
			if pkgLevel(v) {
				return v.Pkg().Path() + "." + v.Name(), v.Pkg()
			}
			return fmt.Sprintf("local@%d.%s", v.Pos(), v.Name()), nil
		}
	}
	return "", nil
}

// shortLockID trims the module prefix for readable diagnostics:
// "rnb/internal/memcache.Client.mu" -> "memcache.Client.mu".
func shortLockID(id string) string {
	if i := strings.LastIndexByte(id, '/'); i >= 0 {
		return id[i+1:]
	}
	return id
}
