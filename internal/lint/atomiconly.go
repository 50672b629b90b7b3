package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// AtomicOnly enforces the sync/atomic access invariant: once any code
// touches a struct field through the sync/atomic functions
// (atomic.AddUint64(&s.f, ...), atomic.LoadInt64(&s.f), ...), every
// access to that field must be atomic. A single plain read or write
// mixed in makes the whole scheme a data race — the exact bug class
// the obs histogram's bucket counters and the cluster's per-server
// load counters exist to avoid. Fields of the typed atomic.* wrappers
// are safe by construction and need no checking.
//
// The check runs in two whole-program passes: collect every field that
// appears as an atomic operand anywhere in the loaded packages, then
// flag plain selector reads/writes of those fields (for fields holding
// arrays or slices whose *elements* are atomic operands, plain indexed
// accesses are flagged).
var AtomicOnly = &Analyzer{
	Name: "atomiconly",
	Doc:  "a field accessed via sync/atomic anywhere must never be read or written plainly",
	Run:  runAtomicOnly,
}

// atomicFns are the sync/atomic package functions whose first operand
// is a *addr.
var atomicFns = map[string]bool{
	"AddInt32": true, "AddInt64": true, "AddUint32": true, "AddUint64": true, "AddUintptr": true,
	"LoadInt32": true, "LoadInt64": true, "LoadUint32": true, "LoadUint64": true, "LoadUintptr": true, "LoadPointer": true,
	"StoreInt32": true, "StoreInt64": true, "StoreUint32": true, "StoreUint64": true, "StoreUintptr": true, "StorePointer": true,
	"SwapInt32": true, "SwapInt64": true, "SwapUint32": true, "SwapUint64": true, "SwapUintptr": true, "SwapPointer": true,
	"CompareAndSwapInt32": true, "CompareAndSwapInt64": true, "CompareAndSwapUint32": true,
	"CompareAndSwapUint64": true, "CompareAndSwapUintptr": true, "CompareAndSwapPointer": true,
}

func runAtomicOnly(pass *Pass) {
	pkgs, report := pass.Pkgs, pass.Report
	// Pass 1: every field (or field-element) that is an atomic operand,
	// and the selector nodes that are legitimate atomic accesses.
	atomicFields := make(map[string]bool) // fieldKey -> scalar use
	atomicElems := make(map[string]bool)  // fieldKey -> indexed-element use
	sanctioned := make(map[*ast.SelectorExpr]bool)
	for _, pkg := range pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" ||
					!atomicFns[fn.Name()] || len(call.Args) == 0 {
					return true
				}
				addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
				if !ok {
					return true
				}
				switch target := ast.Unparen(addr.X).(type) {
				case *ast.SelectorExpr:
					if key, ok := fieldKey(info, target); ok {
						atomicFields[key] = true
						sanctioned[target] = true
					}
				case *ast.IndexExpr:
					if sel, ok := ast.Unparen(target.X).(*ast.SelectorExpr); ok {
						if key, ok := fieldKey(info, sel); ok {
							atomicElems[key] = true
							sanctioned[sel] = true
						}
					}
				}
				return true
			})
		}
	}
	if len(atomicFields) == 0 && len(atomicElems) == 0 {
		return
	}

	// Pass 2: plain accesses of those fields.
	for _, pkg := range pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if sanctioned[n] {
						return false
					}
					key, ok := fieldKey(info, n)
					if !ok {
						return true
					}
					if atomicFields[key] {
						report(pkg, n.Pos(), "field %s is accessed with sync/atomic elsewhere; plain access races with it", key)
						return false
					}
				case *ast.IndexExpr:
					sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr)
					if !ok || sanctioned[sel] {
						return true
					}
					key, ok := fieldKey(info, sel)
					if !ok {
						return true
					}
					if atomicElems[key] {
						report(pkg, n.Pos(), "elements of %s are accessed with sync/atomic elsewhere; plain indexed access races with it", key)
						return false
					}
				}
				return true
			})
		}
	}
}

// fieldKey names a struct field stably across packages:
// "pkgpath.Type.field" when the receiver is a named struct, falling
// back to the field's declaration position otherwise.
func fieldKey(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	field, ok := s.Obj().(*types.Var)
	if !ok || !field.IsField() {
		return "", false
	}
	if n := namedOf(s.Recv()); n != nil && n.Obj().Pkg() != nil {
		return shortLockID(n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + field.Name()), true
	}
	return fmt.Sprintf("%v.%s", field.Pos(), field.Name()), true
}
