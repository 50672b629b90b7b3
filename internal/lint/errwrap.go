package lint

import (
	"go/ast"
	"strings"
)

// ErrWrap requires fmt.Errorf to wrap error operands with %w rather
// than flatten them with %v or %s. A %v stringifies the cause, so
// errors.Is/As stop matching through the new error — which is exactly
// how transport-level sentinels (memcache.ErrCacheMiss, ErrTooLarge,
// connection-fatal markers) get lost between layers. Non-error
// operands are untouched; formats with explicit argument indexes
// ("%[1]v") are skipped rather than mis-mapped.
var ErrWrap = &Analyzer{
	Name: "errwrap",
	Doc:  "fmt.Errorf with an error operand must use %w so errors.Is/As keep matching",
	Run:  runErrWrap,
}

func runErrWrap(pass *Pass) {
	pkgs, report := pass.Pkgs, pass.Report
	for _, pkg := range pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !isPkgFunc(info, call, "fmt", "Errorf") || len(call.Args) < 2 {
					return true
				}
				format, ok := stringLit(info, call.Args[0])
				if !ok || strings.Contains(format, "%[") {
					return true
				}
				verbs := parseVerbs(format)
				operands := call.Args[1:]
				for i, v := range verbs {
					if i >= len(operands) {
						break
					}
					if v != 'v' && v != 's' {
						continue
					}
					tv, ok := info.Types[operands[i]]
					if !ok || !implementsError(tv.Type) {
						continue
					}
					report(pkg, operands[i].Pos(),
						"error operand formatted with %%%c; use %%w so errors.Is/As match through the wrap", v)
				}
				return true
			})
		}
	}
}

// parseVerbs extracts the verb letter for each operand of a Printf
// format, in operand order. '*' width/precision arguments consume an
// operand slot and are recorded as '*'.
func parseVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		// flags, width, precision — '*' consumes an operand.
		for i < len(format) {
			c := format[i]
			if c == '*' {
				verbs = append(verbs, '*')
				i++
				continue
			}
			if c >= '0' && c <= '9' || strings.IndexByte("+-# .", c) >= 0 {
				i++
				continue
			}
			break
		}
		if i < len(format) {
			verbs = append(verbs, format[i])
		}
	}
	return verbs
}
