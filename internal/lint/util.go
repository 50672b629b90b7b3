package lint

import (
	"go/ast"
	"go/types"
)

// calleeFunc resolves a call's callee to its types.Func (package-level
// function or method), or nil for calls through function values,
// conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fn].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fn.Sel].(*types.Func)
		return f
	}
	return nil
}

// isPkgFunc reports whether call invokes the package-level function
// pkgPath.name.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return f.Pkg().Path() == pkgPath && f.Name() == name
}

// callReceiver returns the receiver type and method name of a method
// call, or ok=false for anything else.
func callReceiver(info *types.Info, call *ast.CallExpr) (recv types.Type, method string, ok bool) {
	f := calleeFunc(info, call)
	if f == nil {
		return nil, "", false
	}
	sig, sok := f.Type().(*types.Signature)
	if !sok || sig.Recv() == nil {
		return nil, "", false
	}
	return sig.Recv().Type(), f.Name(), true
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamedType reports whether t (possibly behind a pointer) is the
// named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// pkgLevel reports whether v is declared at package scope.
func pkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
