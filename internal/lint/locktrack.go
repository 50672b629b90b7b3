package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// lockFlow is the flow (walk.go) shared by lockheld and lockorder: it
// threads a held-mutex set through a function body — a path that
// unlocks and returns does not poison the code after its branch — and
// fires hooks at mutex acquisitions, blocking operations, and call
// sites. Function literals start with a clean slate: they run at some
// other time, under some other goroutine's locks.
type lockFlow struct {
	pkg   *Package
	hooks lockHooks
	depth int // current for/range nesting depth, literals reset it
}

// lockHooks receives the walker's events. Every hook gets the held set
// at the event point; hooks decide what held-state means.
type lockHooks interface {
	// acquire fires just before a sync.Mutex/RWMutex Lock or RLock
	// takes effect; held is the set already held at that point.
	acquire(recv ast.Expr, op string, call *ast.CallExpr, held heldSet)
	// blocking fires at channel sends and receives, blocking selects,
	// and ranges over channels.
	blocking(pos token.Pos, label string, held heldSet)
	// call fires at every synchronous call expression (mutex ops, `go`
	// calls, and deferred calls excluded). inLoop reports whether the
	// call sits inside a for/range body of the same function — the
	// lexical signal lockorder's Cond.Wait recheck rule keys on.
	call(call *ast.CallExpr, held heldSet, inLoop bool)
}

// heldLock records one held mutex: where it was locked and the
// receiver expression it was locked through.
type heldLock struct {
	pos  token.Pos
	expr ast.Expr
}

// heldSet maps the printed form of a mutex expression ("c.mu") to its
// acquisition record.
type heldSet map[string]heldLock

// intersect keeps only mutexes held in both sets.
func (h heldSet) intersect(o heldSet) heldSet {
	c := make(heldSet)
	for k, v := range h {
		if _, ok := o[k]; ok {
			c[k] = v
		}
	}
	return c
}

func (l *lockFlow) fork(h heldSet) heldSet { return maps.Clone(h) }

// join intersects the arms that reach the code after the branch — the
// merge rule chosen to under-approximate "held", so a branch that
// unlocks cannot cause false positives downstream. When every arm
// leaves, the state before the branch stands.
func (l *lockFlow) join(before heldSet, arms []heldSet, exits []bool) heldSet {
	var out heldSet
	for i, arm := range arms {
		switch {
		case exits[i]:
		case out == nil:
			out = arm
		default:
			out = out.intersect(arm)
		}
	}
	if out == nil {
		return before
	}
	return out
}

// loop walks the body once, from a fork: the locks held after the loop
// are those held both before it and after one pass.
func (l *lockFlow) loop(body []ast.Stmt, post ast.Stmt, held heldSet) heldSet {
	l.depth++
	out := walkBlock(l, body, l.fork(held))
	l.depth--
	return held.intersect(walkOpt(l, post, out))
}

// comm skips a select arm's communication: the select itself is the
// blocking operation.
func (l *lockFlow) comm(s ast.Stmt, held heldSet) heldSet { return held }

func (l *lockFlow) stmt(s ast.Stmt, held heldSet) heldSet {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if name, ok := l.mutexOp(call); ok {
				switch name {
				case "Lock", "RLock":
					l.hooks.acquire(mutexRecv(call), name, call, held)
					held[types.ExprString(mutexRecv(call))] = heldLock{pos: call.Pos(), expr: mutexRecv(call)}
				case "Unlock", "RUnlock":
					delete(held, types.ExprString(mutexRecv(call)))
				}
				return held
			}
		}
		l.expr(s.X, held)
	case *ast.DeferStmt:
		// A deferred unlock keeps the mutex held to the end of the
		// function (correct: later statements still run locked). The
		// deferred call's own body, if a literal, starts lock-free.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			l.walkLit(lit)
		}
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			l.walkLit(lit)
		}
		for _, a := range s.Call.Args {
			l.expr(a, held)
		}
	case *ast.SendStmt:
		l.hooks.blocking(s.Pos(), "channel send", held)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				return held
			}
		}
		l.hooks.blocking(s.Pos(), "blocking select", held)
	case *ast.RangeStmt:
		if tv, ok := l.pkg.Info.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				l.hooks.blocking(s.Pos(), "range over channel", held)
			}
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			l.expr(e, held)
		}
		for _, e := range s.Lhs {
			l.expr(e, held)
		}
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				l.expr(e, held)
				return false
			}
			return true
		})
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			l.expr(e, held)
		}
	}
	return held
}

// walkLit analyzes a function literal's body with a clean slate: no
// held locks and a loop depth of zero (the literal may run far from
// the loop it is written in).
func (l *lockFlow) walkLit(lit *ast.FuncLit) {
	outer := l.depth
	l.depth = 0
	walkBlock(l, lit.Body.List, heldSet{})
	l.depth = outer
}

// mutexOp reports whether call is Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex receiver.
func (l *lockFlow) mutexOp(call *ast.CallExpr) (string, bool) {
	recv, name, ok := callReceiver(l.pkg.Info, call)
	if !ok {
		return "", false
	}
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", false
	}
	if isNamedType(recv, "sync", "Mutex") || isNamedType(recv, "sync", "RWMutex") {
		return name, true
	}
	return "", false
}

// mutexRecv returns the receiver expression of a method call
// ("c.mu" in "c.mu.Lock()").
func mutexRecv(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return call.Fun
}

// expr walks an expression firing receive/call hooks. Function
// literals start with a clean slate.
func (l *lockFlow) expr(e ast.Expr, held heldSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			l.walkLit(n)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				l.hooks.blocking(n.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			l.hooks.call(n, held, l.depth > 0)
		}
		return true
	})
}
