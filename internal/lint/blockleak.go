package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// BlockLeak hunts goroutines that can block forever. Every `go`
// statement is a root; the analyzer walks the static call graph from
// each root and inspects every blocking operation the goroutine can
// reach — channel sends and receives, ranges over channels, blocking
// selects, Cond.Wait, WaitGroup.Wait, mutex locks. Each one needs an
// escape edge somewhere in the program: a receive (or buffer) for a
// send, a send or close for a receive, a close for a range, a
// Signal/Broadcast for a Wait, a Done for a WaitGroup, an Unlock for a
// Lock, or — for a select — any arm whose channel the analyzer cannot
// track (ctx.Done(), timers), which is exactly the shutdown arm the
// repo's goroutines are expected to carry. An operation with no escape
// edge is a goroutine leak: it parks at shutdown and holds its stack,
// its captures, and possibly a connection, forever.
//
// Identities are tracked like lockorder's: struct fields collapse per
// type, package vars are global, locals are per-declaration (closure
// capture preserves identity). Operations on untrackable expressions
// (call results, fields of packages outside the load) are skipped —
// the analyzer under-approximates rather than cry wolf.
var BlockLeak = &Analyzer{
	Name: "blockleak",
	Doc:  "every blocking operation reachable from a go statement needs an escape edge (close, counterpart op, notify, or an untrackable/shutdown select arm)",
	Run:  runBlockLeak,
}

// blockKind classifies a blocking operation.
type blockKind int

const (
	blockSend blockKind = iota
	blockRecv
	blockRange
	blockSelect
	blockCondWait
	blockWGWait
	blockLock
)

// blockSite is one blocking operation found directly in a function
// body (nested literals excluded — they run on their own schedule).
type blockSite struct {
	kind blockKind
	pos  token.Pos
	pkg  *Package
	// ids lists the operand identities; for selects, one per arm
	// ("" = untrackable arm, which counts as an escape).
	ids []string
	// kinds gives each select arm's direction (blockSend/blockRecv),
	// parallel to ids; nil for non-select sites.
	kinds []blockKind
}

// escapeIndex is the whole-program index of escape edges.
type escapeIndex struct {
	closes   map[string]bool
	sends    map[string]bool
	recvs    map[string]bool
	buffered map[string]bool
	notifies map[string]bool // Cond Signal/Broadcast
	dones    map[string]bool // WaitGroup Done
	unlocks  map[string]bool
	// leaked holds identities handed to other code — passed as a call
	// argument, stored into a structure, sent over a channel, or
	// returned. Once a channel leaves the scope the analyzer can see,
	// anyone may unblock it; leaked identities always count as escaped.
	leaked map[string]bool
}

func runBlockLeak(pass *Pass) {
	g := pass.CallGraph()
	ctx := newBlCtx(pass)
	idx := buildEscapeIndex(pass, ctx)

	// Per-function direct block sites.
	sites := make(map[FuncKey][]blockSite, len(g.Nodes))
	for _, key := range g.Keys() {
		n := g.Nodes[key]
		sites[key] = collectBlockSites(ctx, n.Pkg, n.Decl.Body)
	}

	// Goroutine roots: named functions launched with `go`, and `go
	// func(){...}` literal bodies (scanned in place).
	reported := make(map[token.Pos]bool)
	check := func(s blockSite) {
		if escaped(s, idx) || reported[s.pos] {
			return
		}
		reported[s.pos] = true
		pass.Report(s.pkg, s.pos, "%s", leakMessage(s, idx))
	}
	// Reachability closure over functions launched by any go statement.
	var visit func(key FuncKey, seen map[FuncKey]bool)
	visit = func(key FuncKey, seen map[FuncKey]bool) {
		if seen[key] {
			return
		}
		seen[key] = true
		n, ok := g.Nodes[key]
		if !ok {
			return
		}
		for _, s := range sites[key] {
			check(s)
		}
		for _, cs := range n.Calls {
			if cs.InLit || cs.Go {
				continue // separate schedule; go targets are their own roots
			}
			visit(cs.Callee, seen)
		}
	}
	seen := make(map[FuncKey]bool)
	for _, key := range g.Keys() {
		n := g.Nodes[key]
		for _, cs := range n.Calls {
			if cs.Go {
				visit(cs.Callee, seen)
			}
		}
		// Literal goroutine bodies, wherever they appear.
		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			gs, ok := nd.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := gs.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			for _, s := range collectBlockSites(ctx, n.Pkg, lit.Body) {
				check(s)
			}
			// Calls made by the literal run on the goroutine too.
			litSeen := seen
			ast.Inspect(lit.Body, func(inner ast.Node) bool {
				if _, isLit := inner.(*ast.FuncLit); isLit && inner != ast.Node(lit) {
					return false
				}
				call, ok := inner.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := calleeFunc(n.Pkg.Info, call); callee != nil {
					visit(KeyOf(callee), litSeen)
				}
				return true
			})
			return true
		})
	}
}

// escaped reports whether the site has an escape edge in the index.
func escaped(s blockSite, idx *escapeIndex) bool {
	one := func(kind blockKind, id string) bool {
		if id == "" || idx.leaked[id] {
			return true // untrackable or handed to other code
		}
		switch kind {
		case blockSend:
			return idx.buffered[id] || idx.recvs[id]
		case blockRecv:
			return idx.sends[id] || idx.closes[id]
		case blockRange:
			return idx.closes[id]
		case blockCondWait:
			return idx.notifies[id]
		case blockWGWait:
			return idx.dones[id]
		case blockLock:
			return idx.unlocks[id]
		}
		return true
	}
	if s.kind == blockSelect {
		// Escaped if any arm can proceed: untrackable arms (shutdown,
		// timers) always can; trackable arms need their counterpart.
		for i, arm := range s.ids {
			if one(s.kinds[i], arm) {
				return true
			}
		}
		return false
	}
	for _, id := range s.ids {
		if !one(s.kind, id) {
			return false
		}
	}
	return true
}

// leakMessage renders the diagnostic for an unescaped site.
func leakMessage(s blockSite, idx *escapeIndex) string {
	id := ""
	if len(s.ids) > 0 {
		id = shortLockID(s.ids[0])
	}
	switch s.kind {
	case blockSend:
		return "goroutine can block forever: send on " + id + " has no receiver or buffer anywhere in the program"
	case blockRecv:
		return "goroutine can block forever: receive on " + id + " has no send or close anywhere in the program"
	case blockRange:
		return "goroutine can block forever: range over " + id + " but the channel is never closed — the loop cannot end"
	case blockSelect:
		return "goroutine can block forever: no select arm can ever proceed and there is no shutdown arm"
	case blockCondWait:
		return "goroutine can block forever: Cond.Wait on " + id + " but no Signal or Broadcast exists anywhere in the program"
	case blockWGWait:
		return "goroutine can block forever: WaitGroup.Wait on " + id + " but Done is never called"
	case blockLock:
		return "goroutine can block forever: Lock of " + id + " but no Unlock exists anywhere in the program"
	}
	return "goroutine can block forever"
}

// blCtx carries the whole-program context identity resolution needs:
// which packages were loaded from source (fields and globals of
// foreign packages are untrackable — nobody in the load closes a
// time.Ticker's C), and which variables are function parameters (the
// caller wired those channels up; their escape edges live under the
// caller's identities, so the callee's view is untrackable).
type blCtx struct {
	loaded map[string]bool
	params map[types.Object]bool
}

func newBlCtx(pass *Pass) *blCtx {
	ctx := &blCtx{loaded: make(map[string]bool), params: make(map[types.Object]bool)}
	addFields := func(pkg *Package, fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				ctx.params[pkg.Info.Defs[name]] = true
			}
		}
	}
	for _, pkg := range pass.Pkgs {
		if pkg.Types != nil {
			ctx.loaded[pkg.Types.Path()] = true
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					addFields(pkg, n.Recv)
					addFields(pkg, n.Type.Params)
				case *ast.FuncLit:
					addFields(pkg, n.Type.Params)
				}
				return true
			})
		}
	}
	return ctx
}

// ident resolves an operand (or &operand) to its lockIdent identity;
// "" means untrackable (skip the check — under-approximate, never cry
// wolf).
func (ctx *blCtx) ident(pkg *Package, e ast.Expr) string {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	if id, ok := e.(*ast.Ident); ok && ctx.params[pkg.Info.ObjectOf(id)] {
		return ""
	}
	id, owner := lockIdent(pkg, e)
	if owner != nil && !ctx.loaded[owner.Path()] {
		return ""
	}
	return id
}

// buildEscapeIndex scans every loaded file — all declarations, all
// literals — for the operations that unblock someone else.
func buildEscapeIndex(pass *Pass, ctx *blCtx) *escapeIndex {
	idx := &escapeIndex{
		closes: make(map[string]bool), sends: make(map[string]bool),
		recvs: make(map[string]bool), buffered: make(map[string]bool),
		notifies: make(map[string]bool), dones: make(map[string]bool),
		unlocks: make(map[string]bool), leaked: make(map[string]bool),
	}
	add := func(m map[string]bool, id string) {
		if id != "" {
			m[id] = true
		}
	}
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SendStmt:
					add(idx.sends, ctx.ident(pkg, n.Chan))
					// Sending a channel over a channel hands it away.
					if isChanExpr(pkg, n.Value) {
						add(idx.leaked, ctx.ident(pkg, n.Value))
					}
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						add(idx.recvs, ctx.ident(pkg, n.X))
					}
				case *ast.RangeStmt:
					if isChanExpr(pkg, n.X) {
						add(idx.recvs, ctx.ident(pkg, n.X))
					}
				case *ast.ReturnStmt:
					for _, r := range n.Results {
						if isChanExpr(pkg, r) {
							add(idx.leaked, ctx.ident(pkg, r))
						}
					}
				case *ast.AssignStmt:
					for i, rhs := range n.Rhs {
						if i < len(n.Lhs) && isBufferedMake(pkg, rhs) {
							add(idx.buffered, ctx.ident(pkg, n.Lhs[i]))
						}
						// Channel aliasing splits one channel across two
						// identities; give up on both sides rather than
						// miss the escape edges recorded under the other.
						if isChanExpr(pkg, rhs) {
							if id := ctx.ident(pkg, rhs); id != "" {
								add(idx.leaked, id)
								if i < len(n.Lhs) {
									add(idx.leaked, ctx.ident(pkg, n.Lhs[i]))
								}
							}
						}
					}
				case *ast.ValueSpec:
					for i, v := range n.Values {
						if i < len(n.Names) && isBufferedMake(pkg, v) {
							add(idx.buffered, ctx.ident(pkg, n.Names[i]))
						}
					}
				case *ast.CompositeLit:
					// A channel stored into any literal is handed away.
					for _, el := range n.Elts {
						v := el
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							v = kv.Value
						}
						if isChanExpr(pkg, v) {
							add(idx.leaked, ctx.ident(pkg, v))
						}
					}
					// make(chan T, n) in a struct literal field.
					named := namedOf(typeOf(pkg, n))
					if named == nil || named.Obj().Pkg() == nil {
						return true
					}
					prefix := named.Obj().Pkg().Path() + "." + named.Obj().Name() + "."
					for _, el := range n.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, ok := kv.Key.(*ast.Ident)
						if !ok {
							continue
						}
						if isBufferedMake(pkg, kv.Value) {
							idx.buffered[prefix+key.Name] = true
						}
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
						if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) == 1 {
							add(idx.closes, ctx.ident(pkg, n.Args[0]))
						}
						return true
					}
					// A channel (or &sync primitive) passed as an argument
					// is in someone else's hands — signal.Notify sends on
					// it, a helper may close it. Leaked.
					for _, arg := range n.Args {
						if id := ctx.ident(pkg, arg); id != "" {
							add(idx.leaked, id)
						}
					}
					recv, name, ok := callReceiver(pkg.Info, n)
					if !ok {
						return true
					}
					recvExpr := mutexRecv(n)
					switch {
					case isNamedType(recv, "sync", "Cond") && (name == "Signal" || name == "Broadcast"):
						add(idx.notifies, ctx.ident(pkg, recvExpr))
					case isNamedType(recv, "sync", "WaitGroup") && name == "Done":
						add(idx.dones, ctx.ident(pkg, recvExpr))
					case (isNamedType(recv, "sync", "Mutex") || isNamedType(recv, "sync", "RWMutex")) && (name == "Unlock" || name == "RUnlock"):
						add(idx.unlocks, ctx.ident(pkg, recvExpr))
					}
				}
				return true
			})
		}
	}
	return idx
}

func typeOf(pkg *Package, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func isChanExpr(pkg *Package, e ast.Expr) bool {
	t := typeOf(pkg, e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isBufferedMake reports whether e is make(chan T, n): two-argument
// channel makes are treated as buffered regardless of n's value (a
// make(chan T, 0) spelled that way is vanishingly rare here).
func isBufferedMake(pkg *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	return isChanExpr(pkg, call.Args[0]) || isChanType(pkg, call.Args[0])
}

func isChanType(pkg *Package, e ast.Expr) bool {
	if tv, ok := pkg.Info.Types[e]; ok && tv.IsType() {
		_, isChan := tv.Type.Underlying().(*types.Chan)
		return isChan
	}
	return false
}

// collectBlockSites finds the blocking operations written directly in
// body (literals excluded).
func collectBlockSites(ctx *blCtx, pkg *Package, body *ast.BlockStmt) []blockSite {
	inLit := inLitOf(body)
	// Comm statements of selects are part of the select site, not
	// standalone ops.
	inComm := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				ast.Inspect(cc.Comm, func(m ast.Node) bool {
					inComm[m] = true
					return true
				})
			}
		}
		return true
	})

	var sites []blockSite
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || inLit(n) {
			return true
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			if !inComm[n] {
				sites = append(sites, blockSite{kind: blockSend, pos: n.Pos(), pkg: pkg, ids: []string{ctx.ident(pkg, n.Chan)}})
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inComm[n] {
				sites = append(sites, blockSite{kind: blockRecv, pos: n.Pos(), pkg: pkg, ids: []string{ctx.ident(pkg, n.X)}})
			}
		case *ast.RangeStmt:
			if isChanExpr(pkg, n.X) {
				sites = append(sites, blockSite{kind: blockRange, pos: n.Pos(), pkg: pkg, ids: []string{ctx.ident(pkg, n.X)}})
			}
		case *ast.SelectStmt:
			var ids []string
			var kinds []blockKind
			hasDefault := false
			arm := func(kind blockKind, id string) {
				ids = append(ids, id)
				kinds = append(kinds, kind)
			}
			for _, c := range n.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				if cc.Comm == nil {
					hasDefault = true
					continue
				}
				switch comm := cc.Comm.(type) {
				case *ast.SendStmt:
					arm(blockSend, ctx.ident(pkg, comm.Chan))
				case *ast.ExprStmt:
					if u, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						arm(blockRecv, ctx.ident(pkg, u.X))
					} else {
						arm(blockRecv, "")
					}
				case *ast.AssignStmt:
					got := false
					for _, rhs := range comm.Rhs {
						if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
							arm(blockRecv, ctx.ident(pkg, u.X))
							got = true
						}
					}
					if !got {
						arm(blockRecv, "")
					}
				default:
					arm(blockRecv, "")
				}
			}
			if !hasDefault {
				sites = append(sites, blockSite{kind: blockSelect, pos: n.Pos(), pkg: pkg, ids: ids, kinds: kinds})
			}
		case *ast.CallExpr:
			recv, name, ok := callReceiver(pkg.Info, n)
			if !ok {
				return true
			}
			recvExpr := mutexRecv(n)
			switch {
			case isNamedType(recv, "sync", "Cond") && name == "Wait":
				sites = append(sites, blockSite{kind: blockCondWait, pos: n.Pos(), pkg: pkg, ids: []string{ctx.ident(pkg, recvExpr)}})
			case isNamedType(recv, "sync", "WaitGroup") && name == "Wait":
				sites = append(sites, blockSite{kind: blockWGWait, pos: n.Pos(), pkg: pkg, ids: []string{ctx.ident(pkg, recvExpr)}})
			case (isNamedType(recv, "sync", "Mutex") || isNamedType(recv, "sync", "RWMutex")) && (name == "Lock" || name == "RLock"):
				sites = append(sites, blockSite{kind: blockLock, pos: n.Pos(), pkg: pkg, ids: []string{ctx.ident(pkg, recvExpr)}})
			}
		}
		return true
	})
	sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
	return sites
}
