package lint

import "go/ast"

// flow is one flow-sensitive analyzer's half of a function walk: the
// state it threads through the body and what happens to that state at
// simple statements and expressions. The walker owns the other half,
// the shape of the code: sequencing, the arms of if/switch/select, and
// handing each loop to the flow. lockheld and lockorder thread a
// held-mutex set that joins by intersection (lockFlow, locktrack.go);
// frozen threads variable statuses that join by union (frozen.go).
type flow[S any] interface {
	// fork copies a state for one arm of a branch.
	fork(S) S
	// join merges the arms' end states after a branch; exits[i] reports
	// that arm i ends by leaving the enclosing flow (see terminates).
	join(before S, arms []S, exits []bool) S
	// loop walks a loop body and its post statement (nil for range)
	// from st, returning the state after the loop.
	loop(body []ast.Stmt, post ast.Stmt, st S) S
	// stmt handles a simple statement. It also sees every compound
	// statement just before the walker descends into it.
	stmt(s ast.Stmt, st S) S
	// expr evaluates an expression in a statement header: a condition,
	// a switch tag, a case list, a range operand.
	expr(e ast.Expr, st S)
	// comm handles a select arm's send or receive, ahead of its body.
	comm(s ast.Stmt, st S) S
}

// arm is one way through a branch: a select arm's communication (or
// nil) followed by a statement list.
type arm struct {
	comm ast.Stmt
	body []ast.Stmt
}

// walkBlock threads st through a statement list.
func walkBlock[S any](f flow[S], list []ast.Stmt, st S) S {
	for _, s := range list {
		st = walkStmt(f, s, st)
	}
	return st
}

// walkOpt walks an optional statement (an init or a post).
func walkOpt[S any](f flow[S], s ast.Stmt, st S) S {
	if s == nil {
		return st
	}
	return walkStmt(f, s, st)
}

func walkStmt[S any](f flow[S], s ast.Stmt, st S) S {
	st = f.stmt(s, st)
	switch s := s.(type) {
	case *ast.BlockStmt:
		return walkBlock(f, s.List, st)
	case *ast.LabeledStmt:
		return walkStmt(f, s.Stmt, st)
	case *ast.IfStmt:
		st = walkOpt(f, s.Init, st)
		f.expr(s.Cond, st)
		arms := []arm{{body: s.Body.List}, {}}
		if e, ok := s.Else.(*ast.BlockStmt); ok {
			arms[1].body = e.List
		} else if s.Else != nil {
			arms[1].body = []ast.Stmt{s.Else}
		}
		return walkBranch(f, st, arms)
	case *ast.ForStmt:
		st = walkOpt(f, s.Init, st)
		f.expr(s.Cond, st)
		return f.loop(s.Body.List, s.Post, st)
	case *ast.RangeStmt:
		f.expr(s.X, st)
		return f.loop(s.Body.List, nil, st)
	case *ast.SwitchStmt:
		st = walkOpt(f, s.Init, st)
		f.expr(s.Tag, st)
		return walkClauses(f, s.Body.List, st, []arm{{}}) // no case matches
	case *ast.TypeSwitchStmt:
		return walkClauses(f, s.Body.List, walkOpt(f, s.Init, st), []arm{{}})
	case *ast.SelectStmt:
		return walkClauses(f, s.Body.List, st, nil)
	}
	return st
}

// walkClauses walks a switch or select body as the arms of one branch,
// appended to arms. Every case list is evaluated first, against the
// state before the branch.
func walkClauses[S any](f flow[S], clauses []ast.Stmt, st S, arms []arm) S {
	for _, c := range clauses {
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				f.expr(e, st)
			}
			arms = append(arms, arm{body: c.Body})
		case *ast.CommClause:
			arms = append(arms, arm{comm: c.Comm, body: c.Body})
		}
	}
	return walkBranch(f, st, arms)
}

// walkBranch walks each arm from its own fork of st and joins them.
func walkBranch[S any](f flow[S], st S, arms []arm) S {
	outs := make([]S, len(arms))
	exits := make([]bool, len(arms))
	for i, a := range arms {
		out := f.fork(st)
		if a.comm != nil {
			out = f.comm(a.comm, out)
		}
		outs[i], exits[i] = walkBlock(f, a.body, out), terminates(a.body)
	}
	return f.join(st, outs, exits)
}

// terminates reports whether a statement list ends by leaving the
// enclosing flow (return, branch, panic), so its state cannot reach
// the code after the construct it belongs to.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch s := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
