package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"sort"
	"strings"
)

// Frozen enforces the //rnb:frozen-after-publish annotation: a type so
// marked follows the copy-on-write discipline every lock-free snapshot
// in this repo depends on (tier views, topology views, hash rings, CBC
// placements). A value may be mutated freely while it is fresh — just
// built, or cloned — but the moment it is published (stored into an
// atomic.Pointer, sent on a channel, returned, or parked in a
// longer-lived structure), every field write through every alias is a
// data race against readers that were promised an immutable snapshot.
//
// The analysis is a per-function status dataflow (fresh / published /
// parameter) over local variables, made interprocedural by bottom-up
// mutation summaries: a function that writes a frozen field through a
// parameter or receiver carries that as a fact, so passing a published
// value into it is flagged at the call site — which keeps the repo's
// build-then-mutate constructors (hashring.New(0).AddServer(...)) legal
// and flags Load-then-mutate, the exact shape of the historical
// adaptive-placement snapshot leak.
var Frozen = &Analyzer{
	Name: "frozen",
	Doc:  "no field writes to a //rnb:frozen-after-publish value after it escapes (atomic store, channel send, return, or container write)",
	Run:  runFrozen,
}

// frozenMarker is the annotation, written in the doc comment of a type
// declaration.
const frozenMarker = "rnb:frozen-after-publish"

// mutEvidence is one witnessed frozen-field write inside a function.
type mutEvidence struct {
	pkg   *Package
	pos   token.Pos
	field string
}

// mutSummary maps a parameter slot (-1 = receiver, 0.. = parameters)
// to the evidence that the function writes a frozen field through it.
type mutSummary map[int]mutEvidence

type frozen struct {
	pass *Pass
	// set holds the frozen type keys ("rnb/internal/hashring.Ring").
	set  map[string]bool
	muts *Facts[mutSummary]
}

func runFrozen(pass *Pass) {
	fz := &frozen{pass: pass, set: make(map[string]bool), muts: NewFacts(func() mutSummary { return make(mutSummary) })}
	fz.collectAnnotations()
	if len(fz.set) == 0 {
		return
	}
	g := pass.CallGraph()
	Converge(g, func(n *FuncNode) bool {
		s := fz.newScan(n, false)
		s.run()
		return s.changed
	})
	for _, key := range g.Keys() {
		s := fz.newScan(g.Nodes[key], true)
		s.run()
	}
}

// collectAnnotations finds //rnb:frozen-after-publish markers on type
// declarations across every loaded unit.
func (fz *frozen) collectAnnotations() {
	marked := func(doc *ast.CommentGroup) bool {
		if doc == nil {
			return false
		}
		for _, c := range doc.List {
			if strings.Contains(c.Text, frozenMarker) {
				return true
			}
		}
		return false
	}
	for _, pkg := range fz.pass.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if !marked(gd.Doc) && !marked(ts.Doc) && !marked(ts.Comment) {
						continue
					}
					tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
					if !ok || tn.Pkg() == nil {
						continue
					}
					fz.set[tn.Pkg().Path()+"."+tn.Name()] = true
				}
			}
		}
	}
}

// isFrozen reports whether t (behind pointers/aliases) is annotated.
func (fz *frozen) isFrozen(t types.Type) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return fz.set[n.Obj().Pkg().Path()+"."+n.Obj().Name()]
}

func (fz *frozen) typeKey(t types.Type) string {
	n := namedOf(t)
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// Variable statuses.
const (
	vUnknown   = iota
	vFresh     // just built or cloned: mutation is the point
	vPublished // escaped to readers: mutation is a race
	vParam     // caller's value: writes become facts, judged per call site
)

type vstatus struct {
	kind   int
	slot   int       // for vParam
	pubPos token.Pos // for vPublished: where it escaped
}

// statuses is frozen's flow state: the status of each tracked local.
type statuses map[*types.Var]vstatus

// frozenScan is the per-function dataflow, a flow (walk.go) over
// statuses. The same scan runs twice: once during Converge with
// report=false to grow mutation facts, once after with report=true to
// emit diagnostics against the converged facts.
type frozenScan struct {
	fz       *frozen
	n        *FuncNode
	statuses statuses // the state at the statement being judged
	report   bool
	changed  bool
	reported map[token.Pos]bool
}

func (fz *frozen) newScan(n *FuncNode, report bool) *frozenScan {
	return &frozenScan{fz: fz, n: n, statuses: make(statuses), report: report, reported: make(map[token.Pos]bool)}
}

func (s *frozenScan) run() {
	// Seed receiver and parameters of frozen type with their slots.
	seed := func(field *ast.Field, slot int) {
		for _, name := range field.Names {
			v, ok := s.n.Pkg.Info.Defs[name].(*types.Var)
			if ok && s.fz.isFrozen(v.Type()) {
				s.statuses[v] = vstatus{kind: vParam, slot: slot}
			}
		}
	}
	if recv := s.n.Decl.Recv; recv != nil && len(recv.List) == 1 {
		seed(recv.List[0], -1)
	}
	if params := s.n.Decl.Type.Params; params != nil {
		slot := 0
		for _, f := range params.List {
			if len(f.Names) == 0 {
				slot++
				continue
			}
			seed(f, slot)
			slot += len(f.Names)
		}
	}
	walkBlock(s, s.n.Decl.Body.List, s.statuses)
}

func (s *frozenScan) fork(cur statuses) statuses { return maps.Clone(cur) }

// join keeps any publish observed in any arm (conservative for code
// after the branch) without letting one arm's publish contaminate a
// sibling: each arm ran from its own fork.
func (s *frozenScan) join(before statuses, arms []statuses, _ []bool) statuses {
	merged := maps.Clone(before)
	for _, arm := range arms {
		for v, st := range arm {
			if st.kind == vPublished {
				merged[v] = st
			}
		}
	}
	return merged
}

// loop scans the body twice: a publish at the bottom of the body
// reaches a write at the top on the next iteration.
func (s *frozenScan) loop(body []ast.Stmt, post ast.Stmt, cur statuses) statuses {
	return walkOpt(s, post, walkBlock(s, body, walkBlock(s, body, cur)))
}

func (s *frozenScan) expr(e ast.Expr, cur statuses) {
	s.statuses = cur
	s.exprEffects(e)
}

// comm is a select arm's send or receive, judged like any statement.
func (s *frozenScan) comm(st ast.Stmt, cur statuses) statuses { return s.stmt(st, cur) }

func (s *frozenScan) stmt(st ast.Stmt, cur statuses) statuses {
	s.statuses = cur
	switch st := st.(type) {
	case *ast.AssignStmt:
		// Violations and facts first, then status updates: the write is
		// judged against the state before this statement.
		for _, lhs := range st.Lhs {
			s.checkFieldWrite(lhs, st.Pos())
		}
		for _, rhs := range st.Rhs {
			s.exprEffects(rhs)
		}
		// Escape: a tracked value assigned into a field, element, or
		// package-level var is published.
		for _, lhs := range st.Lhs {
			if s.escapingLHS(lhs) {
				for _, rhs := range st.Rhs {
					s.publishIdents(rhs, st.Pos())
				}
				break
			}
		}
		// Alias/status propagation for 1:1 assignments to locals.
		if len(st.Lhs) == len(st.Rhs) {
			for i, lhs := range st.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				v := s.localVar(id)
				if v == nil || !s.fz.isFrozen(v.Type()) {
					continue
				}
				s.statuses[v] = s.classify(st.Rhs[i])
			}
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					s.exprEffects(v)
				}
				if len(vs.Names) == len(vs.Values) {
					for i, name := range vs.Names {
						v, ok := s.n.Pkg.Info.Defs[name].(*types.Var)
						if ok && s.fz.isFrozen(v.Type()) {
							s.statuses[v] = s.classify(vs.Values[i])
						}
					}
				}
			}
		}
	case *ast.IncDecStmt:
		s.checkFieldWrite(st.X, st.Pos())
		s.exprEffects(st.X)
	case *ast.ExprStmt:
		s.exprEffects(st.X)
		s.publishByCall(st.X)
	case *ast.SendStmt:
		s.exprEffects(st.Chan)
		s.exprEffects(st.Value)
		s.publishIdents(st.Value, st.Pos())
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			s.exprEffects(r)
			s.publishIdents(r, st.Pos())
		}
	case *ast.GoStmt:
		s.exprEffects(st.Call)
	case *ast.DeferStmt:
		s.exprEffects(st.Call)
	}
	return s.statuses
}

// localVar resolves an identifier to its (function-scoped) variable.
func (s *frozenScan) localVar(id *ast.Ident) *types.Var {
	if v, ok := s.n.Pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := s.n.Pkg.Info.Uses[id].(*types.Var); ok && !pkgLevel(v) {
		return v
	}
	return nil
}

// classify assigns a status to the value of an expression.
func (s *frozenScan) classify(e ast.Expr) vstatus {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if v := s.localVar(e); v != nil {
			return s.statuses[v]
		}
		if v, ok := s.n.Pkg.Info.Uses[e].(*types.Var); ok && pkgLevel(v) && s.fz.isFrozen(v.Type()) {
			return vstatus{kind: vPublished, pubPos: e.Pos()}
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				return vstatus{kind: vFresh}
			}
		}
		if e.Op == token.ARROW {
			return vstatus{kind: vPublished, pubPos: e.Pos()}
		}
	case *ast.CompositeLit:
		return vstatus{kind: vFresh}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" {
			if _, isBuiltin := s.n.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				return vstatus{kind: vFresh}
			}
		}
		if recv, name, ok := callReceiver(s.n.Pkg.Info, e); ok && name == "Load" && isNamedType(recv, "sync/atomic", "Pointer") {
			return vstatus{kind: vPublished, pubPos: e.Pos()}
		}
		// Any other call returning a frozen value is treated as fresh:
		// constructors and Clone hand the caller a private copy. A
		// getter returning a shared snapshot must instead be modeled by
		// the caller treating it as published — the repo convention is
		// that such accessors go through atomic.Pointer.Load, which is
		// caught above.
		if tv, ok := s.n.Pkg.Info.Types[e]; ok && s.fz.isFrozen(tv.Type) {
			return vstatus{kind: vFresh}
		}
	}
	return vstatus{}
}

// escapingLHS reports whether assigning to lhs parks the RHS value in
// a longer-lived structure: a field, a slice/map element, a
// dereference, or a package-level variable.
func (s *frozenScan) escapingLHS(lhs ast.Expr) bool {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.Ident:
		v, ok := s.n.Pkg.Info.Uses[e].(*types.Var)
		return ok && pkgLevel(v)
	}
	return false
}

// publishIdents marks the variables whose VALUE e evaluates to (or
// contains, for composites) as published. It deliberately does not
// descend into call arguments or receivers: `m[k] = r.Locate(k)`
// stores Locate's result, not r — r escapes only if something stores
// r itself.
func (s *frozenScan) publishIdents(e ast.Expr, at token.Pos) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if v := s.localVar(e); v != nil && s.fz.isFrozen(v.Type()) {
			st := s.statuses[v]
			if st.kind == vFresh || st.kind == vUnknown {
				s.statuses[v] = vstatus{kind: vPublished, pubPos: at}
			}
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			s.publishIdents(e.X, at)
		}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				s.publishIdents(kv.Value, at)
				continue
			}
			s.publishIdents(el, at)
		}
	case *ast.CallExpr:
		// append(dst, t...) keeps its arguments alive in the result.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := s.n.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				for _, a := range e.Args {
					s.publishIdents(a, at)
				}
			}
		}
	}
}

// publishByCall handles the explicit publish calls: storing into an
// atomic.Pointer (Store, Swap, CompareAndSwap).
func (s *frozenScan) publishByCall(e ast.Expr) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	recv, name, ok := callReceiver(s.n.Pkg.Info, call)
	if !ok || !isNamedType(recv, "sync/atomic", "Pointer") {
		return
	}
	switch name {
	case "Store", "Swap":
		if len(call.Args) == 1 {
			s.publishIdents(call.Args[0], call.Pos())
		}
	case "CompareAndSwap":
		if len(call.Args) == 2 {
			s.publishIdents(call.Args[1], call.Pos())
		}
	}
}

// exprEffects walks an expression: call sites are judged against
// callee mutation facts, and nested function literals are scanned as
// their own little functions (captured variables unknown, direct
// Load-then-mutate still caught).
func (s *frozenScan) exprEffects(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			sub := s.fz.newScan(s.n, s.report)
			walkBlock(sub, n.Body.List, sub.statuses)
			s.changed = s.changed || sub.changed
			return false
		case *ast.CallExpr:
			s.checkCall(n)
			s.publishByCall(n)
		}
		return true
	})
}

// checkCall judges one call against the callee's mutation summary:
// passing a published value into a slot the callee writes through is a
// violation; passing our own parameter through makes the mutation
// transitively ours.
func (s *frozenScan) checkCall(call *ast.CallExpr) {
	callee := calleeFunc(s.n.Pkg.Info, call)
	if callee == nil {
		return
	}
	sum, ok := s.fz.muts.Peek(KeyOf(callee))
	if !ok || len(sum) == 0 {
		return
	}
	slotExpr := func(slot int) ast.Expr {
		if slot == -1 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		if slot < len(call.Args) {
			return call.Args[slot]
		}
		return nil
	}
	slots := make([]int, 0, len(sum))
	for slot := range sum {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	for _, slot := range slots {
		arg := slotExpr(slot)
		if arg == nil {
			continue
		}
		ev := sum[slot]
		switch st := s.classify(arg); st.kind {
		case vPublished:
			s.violate(call.Pos(), "call to %s mutates a published %s value (writes field %s at %s); the type is marked //rnb:frozen-after-publish — clone before mutating",
				shortFuncName(callee), s.shortType(arg), ev.field, shortPosIn(ev.pkg, ev.pos))
		case vParam:
			s.addFact(st.slot, ev)
		}
	}
}

// checkFieldWrite judges an assignment target: a field write (possibly
// through element/deref syntax) whose immediate receiver type is
// frozen, performed on a published or parameter value.
func (s *frozenScan) checkFieldWrite(lhs ast.Expr, at token.Pos) {
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
			continue
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		// `*p = v` overwriting a whole frozen struct through a pointer.
		if star, ok := ast.Unparen(lhs).(*ast.StarExpr); ok {
			if tv, ok := s.n.Pkg.Info.Types[star.X]; ok && s.fz.isFrozen(tv.Type) {
				s.judgeBase(star.X, at, "*"+s.shortType(star.X))
			}
		}
		return
	}
	selInfo, ok := s.n.Pkg.Info.Selections[sel]
	if !ok || selInfo.Kind() != types.FieldVal {
		return
	}
	if !s.fz.isFrozen(selInfo.Recv()) {
		return
	}
	s.judgeBase(sel.X, at, sel.Sel.Name)
}

// judgeBase applies the status rules to the receiver expression of a
// frozen-field write.
func (s *frozenScan) judgeBase(base ast.Expr, at token.Pos, field string) {
	typeName := s.shortType(base)
	switch st := s.classify(base); st.kind {
	case vPublished:
		where := ""
		if st.pubPos.IsValid() {
			where = fmt.Sprintf(" (published at %s)", shortPosIn(s.n.Pkg, st.pubPos))
		}
		s.violate(at, "write to field %s of a published %s value%s; the type is marked //rnb:frozen-after-publish — clone, mutate the clone, republish", field, typeName, where)
	case vParam:
		s.addFact(st.slot, mutEvidence{pkg: s.n.Pkg, pos: at, field: field})
	}
}

func (s *frozenScan) addFact(slot int, ev mutEvidence) {
	sum := s.fz.muts.Get(s.n.Key)
	if _, ok := sum[slot]; !ok {
		sum[slot] = ev
		s.changed = true
	}
}

func (s *frozenScan) violate(pos token.Pos, format string, args ...any) {
	if !s.report || s.reported[pos] {
		return
	}
	s.reported[pos] = true
	s.fz.pass.Report(s.n.Pkg, pos, format, args...)
}

// shortType names the frozen type of an expression for diagnostics.
func (s *frozenScan) shortType(e ast.Expr) string {
	if tv, ok := s.n.Pkg.Info.Types[e]; ok {
		if n := namedOf(tv.Type); n != nil && n.Obj().Pkg() != nil {
			return shortLockID(s.fz.typeKey(tv.Type))
		}
	}
	return "frozen"
}

// shortFuncName renders a FuncKey-ish name without module path noise.
func shortFuncName(f *types.Func) string {
	name := f.FullName()
	name = strings.ReplaceAll(name, "rnb/internal/", "")
	return strings.TrimPrefix(name, "rnb.")
}

// shortPosIn renders pos relative to pkg's fset as file:line.
func shortPosIn(pkg *Package, pos token.Pos) string {
	p := pkg.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
